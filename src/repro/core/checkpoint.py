"""Driver-level checkpoint/resume for the CP-ALS solvers.

The engine's lineage recovery heals *worker* loss, but a crash of the
driver itself loses the factor matrices that live only in the solver's
loop state.  This module snapshots that state — factor matrices, λ, the
fit history and the iteration number — to a pluggable store, so a
restarted run resumes at the last snapshot and a driver crash costs at
most ``checkpoint_every`` iterations.

The snapshot is deliberately tiny relative to the tensor (factors are
``size × rank``; the tensor is ``nnz`` records) and fully determines the
loop state: each CP-ALS iteration reads only the current factors, so a
run resumed from a snapshot is bit-for-bit identical to the
uninterrupted run (asserted by the fault-tolerance tests).

Two stores are provided: :class:`InMemoryCheckpointStore` (tests,
simulated crashes within one process) and :class:`FileCheckpointStore`
(survives real process death).  Any object with the same ``save`` /
``load`` / ``iterations`` surface works.

:class:`FileCheckpointStore` implements an *atomic, verifiable* on-disk
protocol — one directory per snapshot::

    ckpt-000003/
        lambdas.npy       # one ``np.save`` blob per array ("shard")
        fit_history.npy
        factor_0.npy ...
        manifest.json     # written LAST: metadata + per-shard CRC-32

Every file lands via write-to-temp + ``os.replace`` so a crash at any
point leaves either the previous complete state or an unreferenced
temp/partial directory — never a half-written file that parses.  The
manifest is the commit record: a snapshot without one (crash before
commit) is invisible to :meth:`FileCheckpointStore.load`.  Each shard's
byte count and CRC-32 are recorded in the manifest and re-verified on
every load, so silent corruption or a torn write (truncated shard) is
*detected* rather than resumed from: ``load(None)`` walks snapshots
newest-first and returns the newest one whose shards all verify,
counting the skips as checkpoint fallbacks in
:class:`~repro.engine.metrics.IntegrityMetrics` when a metrics sink is
attached.

For fault-injection experiments the store accepts the engine's
:class:`~repro.engine.faults.FaultPlan`: ``torn_write_prob`` truncates
one shard of a just-committed snapshot (the manifest keeps the intended
checksums, so the tear is detectable) and ``corrupt_checkpoint_prob``
flips one byte in a shard.  Both draws are site-seeded on the snapshot
iteration, so a given ``(seed, iteration)`` tears or corrupts
deterministically regardless of timing.
"""

from __future__ import annotations

import copy as copy_module
import io
import json
import os
import re

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine.errors import CorruptedDataError
from ..engine.integrity import flip_byte, site_rng
from ..engine.serialization import checksum_blob

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_FORMAT = 1


@dataclass
class CPCheckpoint:
    """One snapshot of a CP-ALS run's driver state."""

    algorithm: str
    rank: int
    iteration: int          # last *completed* iteration (0-based)
    lambdas: np.ndarray
    factors: list[np.ndarray]
    fit_history: list[float]
    #: JSON-able draw state of the leverage sampler
    #: (``LeverageSampler.state()``), so a resumed sampled run replays
    #: the exact draws of the uninterrupted one.  ``None`` for exact
    #: runs, which draw nothing.
    rng_state: dict | None = None

    def copy(self) -> "CPCheckpoint":
        """Deep copy, so stored snapshots are immune to caller mutation."""
        return CPCheckpoint(
            algorithm=self.algorithm, rank=self.rank,
            iteration=self.iteration, lambdas=self.lambdas.copy(),
            factors=[f.copy() for f in self.factors],
            fit_history=list(self.fit_history),
            rng_state=copy_module.deepcopy(self.rng_state))


class CheckpointStore:
    """Interface for checkpoint persistence (subclass or duck-type)."""

    def save(self, checkpoint: CPCheckpoint) -> None:
        """Persist a snapshot, replacing any with the same iteration."""
        raise NotImplementedError

    def load(self, iteration: int | None = None) -> CPCheckpoint:
        """Return the snapshot of ``iteration``, or the latest when
        ``None``.  Raises ``KeyError`` when nothing matches."""
        raise NotImplementedError

    def iterations(self) -> list[int]:
        """Sorted iteration numbers with stored snapshots."""
        raise NotImplementedError


@dataclass
class InMemoryCheckpointStore(CheckpointStore):
    """Keeps snapshots in a dict — the store for simulated crashes."""

    _snapshots: dict[int, CPCheckpoint] = field(default_factory=dict)

    def save(self, checkpoint: CPCheckpoint) -> None:
        self._snapshots[checkpoint.iteration] = checkpoint.copy()

    def load(self, iteration: int | None = None) -> CPCheckpoint:
        if not self._snapshots:
            raise KeyError("checkpoint store is empty")
        if iteration is None:
            iteration = max(self._snapshots)
        if iteration not in self._snapshots:
            raise KeyError(f"no checkpoint for iteration {iteration}")
        return self._snapshots[iteration].copy()

    def iterations(self) -> list[int]:
        return sorted(self._snapshots)


def _array_blob(array: np.ndarray) -> bytes:
    """Serialize one array to its ``np.save`` byte representation."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _blob_array(blob: bytes) -> np.ndarray:
    """Inverse of :func:`_array_blob`."""
    return np.load(io.BytesIO(blob), allow_pickle=False)


class FileCheckpointStore(CheckpointStore):
    """Atomic directory-per-snapshot store with a checksummed manifest.

    See the module docstring for the on-disk protocol.  ``fault_plan``
    (optional) enables seeded torn-write / byte-flip injection on save;
    ``metrics`` (optional, an
    :class:`~repro.engine.metrics.IntegrityMetrics`) receives shard
    verification, fallback, torn-write and injection counts.
    """

    _DIR_RE = re.compile(r"ckpt-(\d+)$")
    _MANIFEST = "manifest.json"

    def __init__(self, path: str | Path, fault_plan=None, metrics=None):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        self.metrics = metrics

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _count(self, counter: str, amount: int = 1) -> None:
        """Bump an :class:`IntegrityMetrics` counter when one is wired."""
        if self.metrics is not None:
            setattr(self.metrics, counter,
                    getattr(self.metrics, counter) + amount)

    def _dir(self, iteration: int) -> Path:
        return self.path / f"ckpt-{iteration:06d}"

    def _atomic_write(self, target: Path, blob: bytes) -> None:
        """Write ``blob`` to ``target`` via temp file + ``os.replace``,
        so a crash mid-write never leaves a partial ``target``."""
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    @staticmethod
    def _shards(checkpoint: CPCheckpoint) -> dict[str, np.ndarray]:
        """The snapshot's arrays keyed by shard name (manifest order)."""
        shards = {
            "lambdas": checkpoint.lambdas,
            "fit_history": np.array(checkpoint.fit_history,
                                    dtype=np.float64),
        }
        for i, factor in enumerate(checkpoint.factors):
            shards[f"factor_{i}"] = factor
        return shards

    # ------------------------------------------------------------------
    # save (atomic: shards first, manifest last, all via os.replace)
    # ------------------------------------------------------------------
    def save(self, checkpoint: CPCheckpoint) -> None:
        directory = self._dir(checkpoint.iteration)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: dict = {
            "format": MANIFEST_FORMAT,
            "algorithm": checkpoint.algorithm,
            "rank": int(checkpoint.rank),
            "iteration": int(checkpoint.iteration),
            "num_factors": len(checkpoint.factors),
            # RNG state is metadata, not an array shard: it rides in
            # the manifest (the commit record) so it is atomic with the
            # snapshot it describes; JSON carries numpy's arbitrary-
            # precision generator state ints losslessly
            "rng_state": checkpoint.rng_state,
            "shards": {},
        }
        for name, array in self._shards(checkpoint).items():
            blob = _array_blob(array)
            self._atomic_write(directory / f"{name}.npy", blob)
            manifest["shards"][name] = {
                "crc32": checksum_blob(blob), "bytes": len(blob)}
        # the manifest is the commit point: until it lands, the snapshot
        # does not exist as far as load()/iterations() are concerned
        self._atomic_write(
            directory / self._MANIFEST,
            json.dumps(manifest, indent=2).encode("utf-8"))
        self._inject_faults(checkpoint.iteration, directory, manifest)

    def _inject_faults(self, iteration: int, directory: Path,
                       manifest: dict) -> None:
        """Seeded post-commit damage: tear (truncate) or byte-flip one
        shard while the manifest keeps the intended checksums, so the
        damage is exactly what load-time verification must catch."""
        plan = self.fault_plan
        if plan is None:
            return
        names = list(manifest["shards"])
        if plan.torn_write_prob > 0.0:
            rng = site_rng(plan.seed, "ckpt-torn", iteration)
            if rng.random() < plan.torn_write_prob:
                name = names[rng.randrange(len(names))]
                target = directory / f"{name}.npy"
                size = manifest["shards"][name]["bytes"]
                with open(target, "r+b") as fh:
                    fh.truncate(max(0, size // 2))
        if plan.corrupt_checkpoint_prob > 0.0:
            rng = site_rng(plan.seed, "ckpt-corrupt", iteration)
            if rng.random() < plan.corrupt_checkpoint_prob:
                name = names[rng.randrange(len(names))]
                target = directory / f"{name}.npy"
                blob = target.read_bytes()
                if blob:
                    self._atomic_write(
                        target, flip_byte(blob, rng.randrange(len(blob))))
                    self._count("corruptions_injected")

    # ------------------------------------------------------------------
    # load (verify every shard; fall back newest-good when unpinned)
    # ------------------------------------------------------------------
    def _read_verified(self, iteration: int) -> CPCheckpoint | None:
        """Read and CRC-verify one snapshot; ``None`` when any shard is
        missing, torn, or corrupt (the caller decides fallback/raise)."""
        directory = self._dir(iteration)
        manifest_path = directory / self._MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        blobs: dict[str, bytes] = {}
        ok = True
        for name, meta in manifest["shards"].items():
            try:
                blob = (directory / f"{name}.npy").read_bytes()
            except OSError:
                ok = False
                continue
            if len(blob) != meta["bytes"]:
                self._count("torn_writes_detected")
                ok = False
            elif checksum_blob(blob) != meta["crc32"]:
                self._count("corrupted_blocks")
                ok = False
            else:
                self._count("checkpoint_shards_verified")
                blobs[name] = blob
        if not ok:
            return None
        n = int(manifest["num_factors"])
        return CPCheckpoint(
            algorithm=manifest["algorithm"],
            rank=int(manifest["rank"]),
            iteration=int(manifest["iteration"]),
            lambdas=_blob_array(blobs["lambdas"]),
            factors=[_blob_array(blobs[f"factor_{i}"]) for i in range(n)],
            fit_history=[float(x) for x in _blob_array(blobs["fit_history"])],
            rng_state=manifest.get("rng_state"))

    def load(self, iteration: int | None = None) -> CPCheckpoint:
        stored = self.iterations()
        if not stored:
            raise KeyError(f"no checkpoints under {self.path}")
        if iteration is not None:
            if iteration not in stored:
                raise KeyError(f"no checkpoint for iteration {iteration}")
            ckpt = self._read_verified(iteration)
            if ckpt is None:
                raise CorruptedDataError(
                    f"checkpoint for iteration {iteration} under "
                    f"{self.path} failed verification (torn or corrupt "
                    f"shard)", kind="checkpoint", site=(iteration,))
            return ckpt
        for it in reversed(stored):
            ckpt = self._read_verified(it)
            if ckpt is not None:
                return ckpt
            self._count("checkpoint_fallbacks")
        raise KeyError(
            f"no checkpoint under {self.path} passed verification")

    def iterations(self) -> list[int]:
        """Committed snapshot iterations (directories with a manifest);
        a torn/corrupt-but-committed snapshot still appears here — it is
        ``load`` that verifies and falls back."""
        out = []
        for p in self.path.iterdir():
            m = self._DIR_RE.search(p.name)
            if m and (p / self._MANIFEST).exists():
                out.append(int(m.group(1)))
        return sorted(out)


#: Backwards-compatible name: earlier revisions called the file-backed
#: store ``DirectoryCheckpointStore`` (one ``.npz`` per snapshot).  The
#: public surface (``save``/``load``/``iterations``) is unchanged; only
#: the on-disk layout moved to the atomic sharded protocol.
DirectoryCheckpointStore = FileCheckpointStore
