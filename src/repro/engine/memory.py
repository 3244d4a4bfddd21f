"""Unified per-node memory management: execution + storage pools.

Spark divides each executor's heap into a *storage* pool (cached RDD
partitions) and an *execution* pool (shuffle/aggregation buffers) that
borrow from each other — execution may force storage to shrink down to a
guaranteed floor, but never the reverse (``spark.memory.fraction`` /
``spark.memory.storageFraction``).  This module reproduces that model
for the in-process engine, which is what lets the CSTF reproduction
*degrade gracefully* instead of growing without bound when the tensor
RDD and factor queues no longer fit (the regime outside Section 4.1's
"cache everything" assumption).

Two budget modes:

* **unified** — ``EngineConf.memory_total_bytes`` is set.  The usable
  budget is ``total * memory_fraction``; storage is guaranteed
  ``usable * storage_fraction`` and may additionally grow into free
  execution memory.  :meth:`MemoryManager.try_acquire_execution` evicts
  or spills storage (through a registered reclaimer) to satisfy
  execution demand, down to the storage floor.
* **legacy** — only ``EngineConf.cache_capacity_bytes`` is set: a hard
  cap on the storage pool with unbounded execution, matching the
  pre-existing ``CacheManager`` behaviour.

Both pools track high-water marks into
:class:`~repro.engine.metrics.MemoryMetrics`.

:class:`SpillableAppendOnlyMap` is the engine's analogue of Spark's
``ExternalAppendOnlyMap``: the combine buffer of a record
:class:`~repro.engine.shuffle.Aggregator`, which books its footprint
against the execution pool and, when denied, spills a sorted run to
simulated disk and merges the runs back on read.  The no-spill fast
path preserves dict insertion order exactly, so enabling the memory
manager does not perturb floating-point summation order (and therefore
bit-level reproducibility) unless a spill actually happens.  It holds
records only: a combine that folds whole blocks books its result once
and never spills (the vectorized kernel's row sum).
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from .errors import CorruptedDataError
from .partitioner import stable_hash
from .serialization import (deserialize_partition, estimate_record_size,
                            serialize_partition)
from .storage import StorageLevel

if TYPE_CHECKING:  # pragma: no cover
    from .integrity import IntegrityManager
    from .metrics import MetricsCollector
    from .shuffle import Aggregator


#: Relative in-memory working-set footprint of data handled at each
#: storage level (RAW = 1).  Serialized storage roughly halves the
#: object-graph overhead; DISK-level processing streams through a small
#: buffer.  Strictly decreasing along every demotion chain, so each
#: demotion step monotonically shrinks a task's charged footprint.
LEVEL_MEMORY_FACTOR: dict[StorageLevel, float] = {
    StorageLevel.MEMORY_RAW: 1.0,
    StorageLevel.MEMORY_AND_DISK: 1.0,
    StorageLevel.MEMORY_SER: 0.5,
    StorageLevel.MEMORY_AND_DISK_SER: 0.5,
    StorageLevel.DISK: 0.05,
}

#: Footprint factor of a task forced into spill mode (working set
#: streamed through disk) — same as DISK-level processing.
SPILL_MODE_FACTOR: float = LEVEL_MEMORY_FACTOR[StorageLevel.DISK]

_DEMOTION: dict[StorageLevel, StorageLevel] = {
    StorageLevel.MEMORY_RAW: StorageLevel.MEMORY_SER,
    StorageLevel.MEMORY_AND_DISK: StorageLevel.MEMORY_AND_DISK_SER,
    StorageLevel.MEMORY_SER: StorageLevel.DISK,
    StorageLevel.MEMORY_AND_DISK_SER: StorageLevel.DISK,
}


def demote_level(level: StorageLevel) -> StorageLevel | None:
    """Next storage level down the demotion chain (RAW -> SER -> DISK),
    or ``None`` when ``level`` is already DISK."""
    return _DEMOTION.get(level)


class MemoryManager:
    """Tracks the storage and execution pools of one context.

    Parameters
    ----------
    total_bytes, memory_fraction, storage_fraction:
        Unified mode (see module docstring); ``total_bytes=None``
        disables it.
    storage_cap_bytes:
        Legacy hard cap on the storage pool (``cache_capacity_bytes``).
    metrics:
        Collector receiving pool high-water marks; optional so that a
        bare ``CacheManager()`` keeps working without one.
    """

    def __init__(self, total_bytes: int | None = None,
                 memory_fraction: float = 0.6,
                 storage_fraction: float = 0.5,
                 storage_cap_bytes: int | None = None,
                 metrics: "MetricsCollector | None" = None):
        if total_bytes is not None and total_bytes <= 0:
            raise ValueError(f"total_bytes must be > 0, got {total_bytes}")
        for name, frac in (("memory_fraction", memory_fraction),
                           ("storage_fraction", storage_fraction)):
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {frac}")
        self.usable_bytes = (int(total_bytes * memory_fraction)
                             if total_bytes is not None else None)
        self.storage_floor_bytes = (int(self.usable_bytes * storage_fraction)
                                    if self.usable_bytes is not None else 0)
        self.storage_cap_bytes = storage_cap_bytes
        self.metrics = metrics
        self.storage_used = 0
        self.execution_used = 0
        #: callback ``(nbytes) -> freed`` registered by the CacheManager;
        #: spills/evicts LRU storage so execution can grow
        self._storage_reclaimer: Callable[[int], int] | None = None

    # ------------------------------------------------------------------
    def set_storage_reclaimer(self, fn: Callable[[int], int]) -> None:
        """Register the storage-shrinking callback (the cache manager)."""
        self._storage_reclaimer = fn

    @property
    def _memory_metrics(self):
        return None if self.metrics is None else self.metrics.memory

    # ------------------------------------------------------------------
    # storage pool
    # ------------------------------------------------------------------
    def charge_storage(self, nbytes: int) -> None:
        """Account ``nbytes`` of newly memory-resident cached data.

        Always succeeds — storage admission is shrink-after-insert (the
        cache manager calls :meth:`storage_excess` and demotes/evicts
        right after)."""
        self.storage_used += nbytes
        mm = self._memory_metrics
        if mm is not None:
            mm.storage_peak_bytes = max(mm.storage_peak_bytes,
                                        self.storage_used)

    def release_storage(self, nbytes: int) -> None:
        """Return ``nbytes`` of storage memory to the pool."""
        self.storage_used = max(0, self.storage_used - nbytes)

    def storage_excess(self) -> int:
        """Bytes the storage pool must free to be within budget."""
        excess = 0
        if self.storage_cap_bytes is not None:
            excess = self.storage_used - self.storage_cap_bytes
        if self.usable_bytes is not None:
            over = (self.storage_used + self.execution_used
                    - self.usable_bytes)
            # execution never forces storage below its guaranteed floor
            over = min(over, self.storage_used - self.storage_floor_bytes)
            excess = max(excess, over)
        return max(0, excess)

    # ------------------------------------------------------------------
    # execution pool
    # ------------------------------------------------------------------
    def try_acquire_execution(self, nbytes: int) -> bool:
        """Grant ``nbytes`` of execution memory, shrinking storage (via
        the registered reclaimer) down to its floor if needed.  Returns
        ``False`` when the budget cannot cover the request — the caller
        (a spillable buffer) must spill."""
        if self.usable_bytes is not None:
            free = (self.usable_bytes - self.execution_used
                    - self.storage_used)
            if free < nbytes and self._storage_reclaimer is not None:
                reclaimable = self.storage_used - self.storage_floor_bytes
                if reclaimable > 0:
                    self._storage_reclaimer(
                        min(nbytes - free, reclaimable))
                    free = (self.usable_bytes - self.execution_used
                            - self.storage_used)
            if free < nbytes:
                return False
        self.execution_used += nbytes
        mm = self._memory_metrics
        if mm is not None:
            mm.execution_peak_bytes = max(mm.execution_peak_bytes,
                                          self.execution_used)
        return True

    def release_execution(self, nbytes: int) -> None:
        """Return ``nbytes`` of execution memory to the pool."""
        self.execution_used = max(0, self.execution_used - nbytes)


class SpillableAppendOnlyMap:
    """A per-key combine buffer that spills sorted runs under pressure.

    The buffer books its estimated footprint against the execution pool
    in amortised chunks; a denied acquisition serializes the current
    contents as one sorted run (ordered by ``stable_hash`` of the key,
    so run order is deterministic), releases the memory and keeps
    going.  :meth:`merged_items` folds every run back together with
    ``merge_combiners``.

    When nothing spilled, the result is ``list(dict.items())`` of the
    exact dict the old in-memory combine built — same first-occurrence
    key order, same merge order — so the no-spill path is bit-identical
    to the pre-memory-manager engine.

    Data integrity: with an :class:`~repro.engine.integrity
    .IntegrityManager` attached (and enabled), each spilled run is
    CRC-sealed when written and verified when merged back; a corrupt
    run raises :class:`~repro.engine.errors.CorruptedDataError`, which
    the task retry loop heals by recomputing the whole combine.
    ``site`` names the buffer for the fault plan's seeded corruption
    draws (e.g. ``("map", shuffle_id, map_partition)``).
    """

    #: book execution memory in chunks to avoid a pool round-trip per record
    ACQUIRE_CHUNK_BYTES = 4096

    def __init__(self, memory: MemoryManager, aggregator: "Aggregator",
                 integrity: "IntegrityManager | None" = None,
                 site: tuple = ()):
        self._memory = memory
        self._agg = aggregator
        self._integrity = integrity
        self._site = tuple(site)
        self._data: dict[Any, Any] = {}
        self._runs: list[bytes] = []
        self._checksums: list[int] = []
        self._acquired = 0
        self._pending = 0

    @property
    def spilled(self) -> bool:
        return bool(self._runs)

    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Merge one raw value (reduce side without map-side combine)."""
        data = self._data
        if key in data:
            data[key] = self._agg.merge_value(data[key], value)
        else:
            data[key] = self._agg.create_combiner(value)
            self._book(estimate_record_size((key, data[key])))

    def insert_combiner(self, key: Any, combiner: Any) -> None:
        """Merge one pre-combined value (map-side-combined input)."""
        data = self._data
        if key in data:
            data[key] = self._agg.merge_combiners(data[key], combiner)
        else:
            data[key] = combiner
            self._book(estimate_record_size((key, combiner)))

    def _book(self, nbytes: int) -> None:
        self._pending += nbytes
        if self._pending < self.ACQUIRE_CHUNK_BYTES:
            return
        if self._memory.try_acquire_execution(self._pending):
            self._acquired += self._pending
            self._pending = 0
        else:
            self._spill()

    def _spill(self) -> None:
        items = sorted(self._data.items(),
                       key=lambda kv: stable_hash(kv[0]))
        blob = serialize_partition(items)
        self._runs.append(blob)
        if self._integrity is not None and self._integrity.enabled:
            self._checksums.append(self._integrity.seal(blob))
        mm = self._memory._memory_metrics
        if mm is not None:
            mm.shuffle_spill_bytes += len(blob)
            mm.shuffle_spill_count += 1
        self._memory.release_execution(self._acquired)
        self._acquired = 0
        self._pending = 0
        self._data = {}

    # ------------------------------------------------------------------
    def merged_items(self) -> list[tuple[Any, Any]]:
        """Final ``(key, combiner)`` pairs; merges spilled runs back in
        and releases all execution memory held by the buffer."""
        try:
            if not self._runs:
                return list(self._data.items())
            merge = self._agg.merge_combiners
            out: dict[Any, Any] = {}
            read_back = 0
            verify = (self._integrity is not None
                      and self._integrity.enabled and self._checksums)
            for run_idx, blob in enumerate(self._runs):
                if verify:
                    blob = self._verified_run(run_idx, blob)
                read_back += len(blob)
                for key, combiner in deserialize_partition(blob):
                    if key in out:
                        out[key] = merge(out[key], combiner)
                    else:
                        out[key] = combiner
            for key, combiner in self._data.items():
                if key in out:
                    out[key] = merge(out[key], combiner)
                else:
                    out[key] = combiner
            mm = self._memory._memory_metrics
            if mm is not None:
                mm.spill_read_bytes += read_back
            return list(out.items())
        finally:
            self._memory.release_execution(self._acquired)
            self._acquired = 0
            self._pending = 0
            self._data = {}
            self._runs = []
            self._checksums = []

    def _verified_run(self, run_idx: int, blob: bytes) -> bytes:
        """Verify one spilled run; corruption raises the retryable
        :class:`CorruptedDataError` (the retry rebuilds the combine
        from its inputs — spilled runs have no finer-grained lineage)."""
        good = self._integrity.checked_read(
            "spill", self._site + (run_idx,), blob,
            self._checksums[run_idx])
        if good is None:
            self._integrity.metrics.recompute_recoveries += 1
            raise CorruptedDataError(
                f"spilled run {run_idx} of combine buffer "
                f"{self._site or '(anonymous)'} failed checksum "
                f"verification; the task retry recomputes the combine",
                kind="spill", site=self._site + (run_idx,))
        return good
