"""Content-checksum data integrity for the engine's data plane.

Every serialized blob the engine moves or parks — shuffle blocks,
broadcast payloads, ``MEMORY_SER``/``DISK`` cache entries, spilled
sort runs, checkpoint shards — can rot: a flipped bit in transit, a
torn write on disk.  Without detection, corruption in a CP-ALS run
produces *wrong factors with no error*, which is strictly worse than a
crash.  This module closes that hole:

* :meth:`IntegrityManager.seal` records a CRC-32
  (:func:`~repro.engine.serialization.checksum_blob`) next to every
  blob at write time;
* :meth:`IntegrityManager.checked_read` re-verifies the CRC at read
  time, optionally injecting a seeded in-flight byte flip first
  (:attr:`~repro.engine.faults.FaultPlan.corrupt_block_prob`);
* a failed verification never surfaces bad data — the caller raises a
  retryable :class:`~repro.engine.errors.CorruptedDataError` (or drops
  the blob) and the engine heals through the same lineage machinery
  that covers lost nodes: shuffle corruption resubmits the parent map
  stage, cache corruption becomes a miss and recomputes, broadcast and
  spill corruption recompute through the task retry loop.

The whole layer is gated on ``ctx.conf.integrity`` (resolved in
:mod:`repro.engine.conf`); with the flag off no blob is ever sealed or
verified and the data path is byte-for-byte the pre-integrity code.
With the flag on and no corruption, results are bit-identical to an
unprotected run: pickling round-trips ``float64`` payloads exactly, and
verification only reads the bytes it checks.

Corruption draws follow the fault-injection determinism contract
(see :mod:`repro.engine.faults`): whether a blob is corrupted is a
per-*site* decision seeded by ``(plan.seed, "corrupt", kind, *site)``
and applied to the site's *first* read only, so a given plan replays
identically under the serial and process backends regardless of
task interleaving, and the retry that follows a detected corruption
always re-reads clean bytes — lineage recovery provably converges
instead of racing ``stage_max_failures`` against fresh per-read draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .faults import site_rng
from .serialization import checksum_blob, verify_blob

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultPlan
    from .metrics import IntegrityMetrics


def flip_byte(blob: bytes, offset: int) -> bytes:
    """Copy of ``blob`` with the byte at ``offset`` XOR-flipped — the
    corruption model for both in-flight flips and storage rot."""
    corrupted = bytearray(blob)
    corrupted[offset] ^= 0xFF
    return bytes(corrupted)


class IntegrityManager:
    """Seals and verifies serialized blobs for one context.

    Owned by the :class:`~repro.engine.Context` and handed to the
    shuffle manager, cache manager, spill maps and broadcasts.  Holds
    the context's :class:`~repro.engine.metrics.IntegrityMetrics` and
    counts every verification directly (the data-plane components it
    serves do not post events).

    One engine thread (see :mod:`repro.engine.backends`): nothing here
    locks anything.
    """

    def __init__(self, enabled: bool, plan: "FaultPlan",
                 metrics: "IntegrityMetrics"):
        #: resolved integrity switch; callers skip sealing when False
        self.enabled = enabled
        self.plan = plan
        self.metrics = metrics
        # per-(kind, site) read counts: the k-th read of a blob is an
        # independent corruption decision, like FaultInjector._fetch_reads
        self._reads: dict[tuple, int] = {}

    def seal(self, blob: bytes) -> int:
        """Checksum ``blob`` at write time and account the CRC work."""
        if self.enabled:
            self.metrics.checksum_bytes += len(blob)
        return checksum_blob(blob)

    def _next_occurrence(self, kind: str, site: tuple) -> int:
        key = (kind,) + site
        occurrence = self._reads.get(key, 0)
        self._reads[key] = occurrence + 1
        return occurrence

    def checked_read(self, kind: str, site: tuple,
                     blob: bytes, checksum: int) -> bytes | None:
        """Verify one read of a sealed blob; None means corruption.

        With integrity off, returns ``blob`` untouched.  With it on,
        first gives the fault plan a chance to flip a byte *in flight*
        on the site's first read (the stored copy stays pristine and
        later reads of the site are never corrupted, so the retry that
        follows a detected corruption re-reads good bytes and recovery
        converges), then recomputes the CRC.  A match returns the
        (possibly copied) blob; a mismatch is counted and returns None
        — the caller owns the recovery path for its ``kind``.
        """
        if not self.enabled:
            return blob
        occurrence = self._next_occurrence(kind, site)
        if occurrence == 0 and self.plan.corrupt_block_prob > 0.0 and blob:
            rng = site_rng(self.plan.seed, "corrupt", kind, *site)
            if rng.random() < self.plan.corrupt_block_prob:
                blob = flip_byte(blob, rng.randrange(len(blob)))
                self.metrics.corruptions_injected += 1
        self.metrics.checksum_bytes += len(blob)
        if verify_blob(blob, checksum):
            self.metrics.blocks_verified += 1
            return blob
        self.metrics.corrupted_blocks += 1
        return None
