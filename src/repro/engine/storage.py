"""RDD persistence: storage levels and the cache manager.

Section 4.1 of the paper discusses caching the tensor RDD in either the
*raw* (deserialized object) format or the *serialized* format, choosing
raw because iterative algorithms read the cache every iteration and the
deserialization CPU cost dominates the memory saving.  We implement both
levels with real (pickle-based) serialization so that the caching
ablation benchmark measures a genuine trade-off, plus a DISK level used
by failure-injection tests and the ``MEMORY_AND_DISK`` /
``MEMORY_AND_DISK_SER`` pair that degrades gracefully under memory
pressure: instead of dropping an over-budget partition (and paying a
lineage recompute later), the cache *demotes* it to simulated disk and
reads it back transparently — the read is charged to the cost model's
disk I/O, never recomputed, and bit-identical (pickle round-trip).

Memory accounting flows through the context's
:class:`~repro.engine.memory.MemoryManager`: memory-resident entries
charge the storage pool; disk-resident entries (DISK level or demoted
AND_DISK entries) charge nothing.  Over-budget puts shrink the pool
LRU-first — spillable levels demote, memory-only levels evict.
"""

from __future__ import annotations

import enum
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CacheEvictedError
from .serialization import (deserialize_partition, estimate_size,
                            serialize_partition)

if TYPE_CHECKING:  # pragma: no cover
    from .integrity import IntegrityManager
    from .memory import MemoryManager
    from .metrics import MetricsCollector


class StorageLevel(enum.Enum):
    """Where and how a persisted partition is stored.

    ``MEMORY_RAW``
        Deserialized Python objects in memory (Spark's ``MEMORY_ONLY``).
        Fastest to read; largest footprint.  The paper's choice for the
        tensor RDD.  Over budget: evicted LRU (recomputed from lineage).
    ``MEMORY_SER``
        Pickled bytes in memory (Spark's ``MEMORY_ONLY_SER``).  Smaller,
        but every read pays a deserialization pass.  Over budget:
        evicted LRU.
    ``MEMORY_AND_DISK``
        Raw objects in memory while they fit; over budget the LRU
        entries are *demoted* to simulated disk instead of dropped
        (Spark's ``MEMORY_AND_DISK``), and reads pull them back
        transparently.
    ``MEMORY_AND_DISK_SER``
        As above with pickled in-memory representation
        (``MEMORY_AND_DISK_SER``).
    ``DISK``
        Pickled bytes on (simulated) disk; charges no storage memory and
        reads additionally count toward disk I/O in the cost model.
    """

    MEMORY_RAW = "memory_raw"
    MEMORY_SER = "memory_ser"
    MEMORY_AND_DISK = "memory_and_disk"
    MEMORY_AND_DISK_SER = "memory_and_disk_ser"
    DISK = "disk"

    @property
    def uses_disk(self) -> bool:
        """Entries at this level may live on disk (spillable or pure)."""
        return self in (StorageLevel.MEMORY_AND_DISK,
                        StorageLevel.MEMORY_AND_DISK_SER,
                        StorageLevel.DISK)

    @property
    def serialized_in_memory(self) -> bool:
        """The in-memory representation is a pickled blob."""
        return self in (StorageLevel.MEMORY_SER,
                        StorageLevel.MEMORY_AND_DISK_SER)


@dataclass
class _CacheEntry:
    records: list | None        # raw storage (None when serialized/on disk)
    blob: bytes | None          # serialized storage
    level: StorageLevel
    size_bytes: int             # estimated footprint (memory or disk)
    on_disk: bool = False       # demoted (or DISK-level) entries
    deser_seconds: float = 0.0  # cumulative CPU spent deserializing
    checksum: int | None = None  # CRC-32 of blob (integrity mode only)


class CacheManager:
    """Stores materialized RDD partitions, keyed ``(rdd_id, partition)``.

    The storage pool of the context's
    :class:`~repro.engine.memory.MemoryManager` bounds the
    memory-resident footprint.  When a put pushes the pool over budget
    the LRU entries shrink it back: ``MEMORY_AND_DISK*`` entries demote
    to disk (still readable, charged as cache spill + disk read),
    memory-only entries are evicted (recomputed from lineage by the
    scheduler).  A single memory-only entry larger than the whole
    budget stays resident — there is nowhere to put it — and is counted
    as an ``oversized_entry`` in :class:`~repro.engine.metrics
    .MemoryMetrics` instead of silently ignoring the budget.

    Eviction of a partition whose lineage was truncated raises
    :class:`~repro.engine.errors.CacheEvictedError` at read time.

    Thread safety: none of its own; its callers run under the engine
    lock (see :mod:`repro.engine.backends`).
    """

    def __init__(self, capacity_bytes: int | None = None,
                 metrics: "MetricsCollector | None" = None,
                 memory: "MemoryManager | None" = None,
                 integrity: "IntegrityManager | None" = None):
        self._entries: OrderedDict[tuple[int, int], _CacheEntry] = OrderedDict()
        if memory is None:
            from .memory import MemoryManager
            memory = MemoryManager(storage_cap_bytes=capacity_bytes,
                                   metrics=metrics)
        self.memory = memory
        self.integrity = integrity
        self.capacity_bytes = (capacity_bytes if capacity_bytes is not None
                               else memory.storage_cap_bytes)
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        memory.set_storage_reclaimer(self.reclaim)

    @property
    def used_bytes(self) -> int:
        """Memory-resident footprint (disk-resident entries are free)."""
        return self.memory.storage_used

    def _seal(self, blob: bytes) -> int | None:
        """CRC-seal a cached blob in integrity mode (else None).  Raw
        in-memory entries are never sealed — like Spark, only bytes at
        rest (serialized or on disk) get checksums; live objects are
        protected by the process, not the storage layer."""
        if self.integrity is not None and self.integrity.enabled:
            return self.integrity.seal(blob)
        return None

    # ------------------------------------------------------------------
    def put(self, rdd_id: int, partition: int, records: list,
            level: StorageLevel) -> None:
        """Cache ``records`` for ``(rdd_id, partition)`` at ``level``."""
        key = (rdd_id, partition)
        if key in self._entries:
            self._remove(key)
        if level.serialized_in_memory or level is StorageLevel.DISK:
            blob = serialize_partition(list(records))
            entry = _CacheEntry(records=None, blob=blob, level=level,
                                size_bytes=len(blob),
                                on_disk=level is StorageLevel.DISK,
                                checksum=self._seal(blob))
        else:
            size = sum(estimate_size(r) for r in records) or 1
            entry = _CacheEntry(records=list(records), blob=None,
                                level=level, size_bytes=size)
        self._entries[key] = entry
        if not entry.on_disk:
            self.memory.charge_storage(entry.size_bytes)
            if self.metrics is not None:
                bucket = self.metrics.cache_stored_bytes
                bucket[level.value] = (bucket.get(level.value, 0)
                                       + entry.size_bytes)
        if self.metrics is not None:
            written = self.metrics.cache_bytes_written
            written[level.value] = (written.get(level.value, 0)
                                    + entry.size_bytes)
        self._shrink_to_budget(protect=key)

    def get(self, rdd_id: int, partition: int) -> list | None:
        """Return the cached partition, or ``None`` on a miss.

        Serialized and disk-resident entries are deserialized on every
        read; the time and bytes are accounted so the caching ablation
        can compare levels, and demoted entries additionally count as
        disk reads.
        """
        key = (rdd_id, partition)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        blob = entry.blob
        if (blob is not None and self.integrity is not None
                and self.integrity.enabled
                and entry.checksum is not None):
            blob = self.integrity.checked_read(
                "cache", key, blob, entry.checksum)
            if blob is None:
                # corrupt cached blob: drop the entry and report a
                # miss — the RDD iterator recomputes the partition
                # from lineage and re-caches it, transparently
                self._remove(key)
                self.misses += 1
                self.integrity.metrics.recompute_recoveries += 1
                return None
        self.hits += 1
        self._entries.move_to_end(key)
        if entry.records is not None:
            return entry.records
        assert blob is not None
        t0 = time.perf_counter()
        records = deserialize_partition(blob)
        entry.deser_seconds += time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.cache_deserialized_bytes += len(blob)
            if entry.on_disk:
                self.metrics.cache_disk_read_bytes += len(blob)
        return records

    def has_all_partitions(self, rdd_id: int, num_partitions: int) -> bool:
        """True iff every partition of ``rdd_id`` is cached — the scheduler
        then prunes lineage walks at this RDD."""
        return all((rdd_id, p) in self._entries
                   for p in range(num_partitions))

    def invalidate_node(self, node_id: int, cluster) -> int:
        """Drop every cached partition placed on ``node_id`` (the node
        died; memory and local disk go with it).  Must be called *before*
        the cluster marks the node dead, while
        ``cluster.node_of_partition`` still reflects the placement the
        entries were stored under.  Returns partitions dropped; affected
        RDDs recompute them from lineage on the next read."""
        doomed = [key for key in self._entries
                  if cluster.node_of_partition(key[1]) == node_id]
        for key in doomed:
            self._remove(key)
        return len(doomed)

    def unpersist(self, rdd_id: int) -> int:
        """Drop all partitions of ``rdd_id``; returns bytes freed."""
        freed = 0
        for key in [k for k in self._entries if k[0] == rdd_id]:
            freed += self._entries[key].size_bytes
            self._remove(key)
        return freed

    def clear(self) -> None:
        """Drop every cached partition."""
        for key in list(self._entries):
            self._remove(key)

    # ------------------------------------------------------------------
    def rdd_size_bytes(self, rdd_id: int) -> int:
        """Total cached footprint of one RDD (memory + disk)."""
        return sum(e.size_bytes
                   for (rid, _), e in self._entries.items()
                   if rid == rdd_id)

    def deser_seconds(self, rdd_id: int) -> float:
        """Cumulative CPU seconds spent deserializing one RDD's cache."""
        return sum(e.deser_seconds
                   for (rid, _), e in self._entries.items()
                   if rid == rdd_id)

    # ------------------------------------------------------------------
    def reclaim(self, nbytes: int) -> int:
        """Free at least ``nbytes`` of storage memory for the execution
        pool (registered as the memory manager's storage reclaimer) by
        demoting/evicting LRU-first.  Returns bytes actually freed."""
        freed = 0
        for key in list(self._entries):
            if freed >= nbytes:
                break
            entry = self._entries[key]
            if entry.on_disk:
                continue
            freed += entry.size_bytes
            if entry.level.uses_disk:
                self._demote_to_disk(key)
            else:
                self._remove(key)
                self.evictions += 1
        return freed

    # ------------------------------------------------------------------
    def _remove(self, key: tuple[int, int]) -> None:
        entry = self._entries.pop(key)
        if not entry.on_disk:
            self.memory.release_storage(entry.size_bytes)
            if self.metrics is not None:
                bucket = self.metrics.cache_stored_bytes
                level = entry.level.value
                if level in bucket:
                    bucket[level] = max(0, bucket[level] - entry.size_bytes)

    def _demote_to_disk(self, key: tuple[int, int]) -> None:
        """Move a memory-resident AND_DISK entry to simulated disk."""
        entry = self._entries[key]
        blob = entry.blob
        if blob is None:
            assert entry.records is not None
            blob = serialize_partition(entry.records)
            entry.checksum = self._seal(blob)
        self.memory.release_storage(entry.size_bytes)
        if self.metrics is not None:
            bucket = self.metrics.cache_stored_bytes
            level = entry.level.value
            if level in bucket:
                bucket[level] = max(0, bucket[level] - entry.size_bytes)
            mem = self.metrics.memory
            mem.cache_spill_bytes += len(blob)
            mem.cache_spill_count += 1
            mem.record_demotion(
                f"cache rdd {key[0]} partition {key[1]}: "
                f"{entry.level.value} -> disk ({len(blob)} B)")
        entry.records = None
        entry.blob = blob
        entry.size_bytes = len(blob)
        entry.on_disk = True

    def _shrink_to_budget(self, protect: tuple[int, int]) -> None:
        """Demote/evict LRU entries until the storage pool fits its
        budget.  The just-inserted ``protect`` entry goes last: it is
        demoted if spillable, or — for memory-only levels — left
        resident and counted as oversized (evicting data the running
        task is about to read would thrash)."""
        while self.memory.storage_excess() > 0:
            victim = None
            for key, entry in self._entries.items():
                if key != protect and not entry.on_disk:
                    victim = key
                    break
            if victim is not None:
                if self._entries[victim].level.uses_disk:
                    self._demote_to_disk(victim)
                else:
                    self._remove(victim)
                    self.evictions += 1
                continue
            entry = self._entries.get(protect)
            if entry is not None and not entry.on_disk:
                if entry.level.uses_disk:
                    self._demote_to_disk(protect)
                elif self.metrics is not None:
                    self.metrics.memory.oversized_entries += 1
            break
