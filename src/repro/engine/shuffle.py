"""Shuffle manager: bucketed map outputs with local/remote byte accounting.

A *shuffle* moves the output of a map stage to the reduce tasks of the
next stage.  Each map task hashes every record's key through the child
partitioner into one bucket per reduce partition; reduce tasks then fetch
their bucket from every map task.  A fetched block is **local** when the
map output and the reduce partition live on the same node, and
**remote** otherwise — this is precisely the local/remote split Spark's
metrics report and that Figure 4 of the paper is built from.

A keyed block is stored the way Spark's sort-based shuffle writes a map
task's file: **once**, its rows gathered into reduce-partition order,
beside an ``offsets[num_partitions + 1]`` index.  Bucket ``p`` is the
row range ``offsets[p]:offsets[p + 1]``, charged ``rows ×
wire_bytes_per_row`` (what the same rows cost as records), and a reduce
task concatenates one range per map output into a single block.  Loose
records keep a list per bucket.

Map-side combining (Spark's ``reduceByKey`` behaviour) is supported: when
an aggregator is attached to the dependency, its :meth:`Aggregator.combine`
pre-merges each map task's records per key, shrinking the shuffle.

Fault tolerance: every map output records the node that wrote it.
Killing a node (``invalidate_node``) discards its outputs, and a reduce
task that later finds its shuffle incomplete raises
:class:`~repro.engine.errors.FetchFailedError` — the scheduler answers
by resubmitting the parent shuffle-map stage from lineage.  A
:class:`~repro.engine.faults.FaultInjector` may additionally inject
transient fetch failures per block.

One engine thread (see :mod:`repro.engine.backends`): nothing here
locks anything.  Reads iterate map
outputs in sorted map-partition order, so fetched record order — and
therefore every downstream reduction — is independent of the order map
tasks wrote in.

Data integrity: with ``EngineConf.integrity`` on, every bucket — a
run's row range cut out as a block of its own — is additionally
serialized and CRC-sealed at write time and re-verified on every fetch
(see :mod:`repro.engine.integrity`).  A corrupt block never
reaches the reduce task — the reader drops the writer's map output and
raises :class:`~repro.engine.errors.CorruptedBlockError`, which the
scheduler heals exactly like a fetch failure, by resubmitting the
parent map stage from lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Iterable, NamedTuple, TYPE_CHECKING

from .blocks import (concat_ranges, is_block, is_keyed_block,
                     partition_order)
from .cluster import Cluster
from .errors import CorruptedBlockError, FetchFailedError
from .metrics import ShuffleReadMetrics, ShuffleWriteMetrics
from .serialization import (deserialize_partition, estimate_record_size,
                            serialize_partition, wire_bytes_per_row)

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultInjector
    from .integrity import IntegrityManager
    from .memory import MemoryManager


@dataclass
class Aggregator:
    """The per-key combine of a shuffle, as Spark's ``Aggregator``.

    :meth:`combine` is the one combine the engine runs: on the map side
    of a map-side-combined shuffle, on its reduce side, and within the
    partitions of an already co-partitioned ``combine_by_key``.  This
    class folds records through a
    :class:`~repro.engine.memory.SpillableAppendOnlyMap`; a subclass may
    fold in another shape (the vectorized kernel's row sum folds whole
    :class:`~repro.engine.blocks.KeyedRowBlock`\\ s) so long as it emits
    what this one emits without a spill: per key, the values folded
    left to right in record order.
    """

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]

    def combine(self, records: Iterable, combiners: bool = False,
                memory: "MemoryManager | None" = None,
                integrity: "IntegrityManager | None" = None,
                site: tuple = ()) -> list:
        """``(key, combiner)`` pairs of one partition's ``records``:
        raw values, or combiners with ``combiners`` (the reduce side of
        a map-side-combined shuffle), keys in first-occurrence order
        unless a spill reorders them.  The buffer books ``memory``'s
        execution pool and spills sorted runs when it is denied; with no
        ``memory`` it books no pool of the context and cannot spill.
        ``integrity`` seals the spilled runs, ``site`` names them."""
        from .memory import MemoryManager, SpillableAppendOnlyMap
        buffer = SpillableAppendOnlyMap(
            MemoryManager() if memory is None else memory, self,
            integrity=integrity, site=site)
        insert = buffer.insert_combiner if combiners else buffer.insert
        for key, value in records:
            insert(key, value)
        return buffer.merged_items()


class _Run(NamedTuple):
    """One keyed block of a map output, gathered into reduce-partition
    order: bucket ``p`` is rows ``offsets[p]:offsets[p + 1]``, each
    charged ``row_bytes``."""

    block: Any
    offsets: list[int]
    row_bytes: int


class _Range(NamedTuple):
    """Rows ``start:stop`` of a stored run: one bucket's share of it."""

    block: Any
    start: int
    stop: int


@dataclass
class _MapOutput:
    """What one map task wrote, in arrival order: each keyed block
    once, as a :class:`_Run`, and each stretch of loose records as a
    ``{bucket: [records]}`` dict."""

    map_partition: int
    #: node that executed the map task (its loss invalidates the output)
    node: int = 0
    segments: list = field(default_factory=list)
    #: records held, a run's rows counted one each
    records: int = 0
    #: bytes of each bucket's loose records (a run's are a closed form
    #: of its offsets)
    record_bytes: dict[int, int] = field(default_factory=dict)
    #: integrity mode only: serialized bucket blobs and their CRC-32
    #: seals; reads deserialize the *verified* blob so corrupt bytes
    #: can never reach a reduce task
    bucket_blobs: dict[int, bytes] = field(default_factory=dict)
    bucket_checksums: dict[int, int] = field(default_factory=dict)

    def bucket(self, reduce_partition: int) -> tuple[list, int, int]:
        """``(items, bytes, records)`` of one bucket; the items are its
        loose records and a :class:`_Range` per run holding rows for
        it, in arrival order."""
        items: list = []
        nbytes = self.record_bytes.get(reduce_partition, 0)
        count = 0
        for segment in self.segments:
            if type(segment) is _Run:
                start = segment.offsets[reduce_partition]
                stop = segment.offsets[reduce_partition + 1]
                if stop > start:
                    items.append(_Range(segment.block, start, stop))
                    nbytes += (stop - start) * segment.row_bytes
                    count += stop - start
            else:
                records = segment.get(reduce_partition, ())
                items.extend(records)
                count += len(records)
        return items, nbytes, count


def _assemble(items: list) -> list:
    """What a reduce task is handed: every stretch of adjacent row
    ranges concatenated into one block, loose records as they are."""
    fetched: list = []
    for ranges, group in groupby(items, lambda it: type(it) is _Range):
        fetched.extend([concat_ranges(list(group))] if ranges else group)
    return fetched


class ShuffleManager:
    """Holds all shuffle outputs for one context, keyed by shuffle id."""

    def __init__(self, cluster: Cluster,
                 faults: "FaultInjector | None" = None,
                 memory: "MemoryManager | None" = None,
                 integrity: "IntegrityManager | None" = None):
        self.cluster = cluster
        self.faults = faults
        self.memory = memory
        self.integrity = integrity
        self._shuffles: dict[int, dict[int, _MapOutput]] = {}
        #: shuffle id -> expected map-partition count
        self._num_maps: dict[int, int] = {}
        self._next_shuffle_id = 0

    def new_shuffle_id(self, num_map_partitions: int) -> int:
        """Register a new shuffle of ``num_map_partitions`` map tasks and
        return its id.  Reduce-side reads verify the shuffle is complete
        and raise ``FetchFailedError`` otherwise."""
        sid = self._next_shuffle_id
        self._next_shuffle_id += 1
        self._shuffles[sid] = {}
        self._num_maps[sid] = num_map_partitions
        return sid

    def is_written(self, shuffle_id: int, num_map_partitions: int) -> bool:
        """True iff every map task of the shuffle already wrote output."""
        outputs = self._shuffles.get(shuffle_id)
        return (outputs is not None
                and len(outputs) >= num_map_partitions)

    # ------------------------------------------------------------------
    # map side
    # ------------------------------------------------------------------
    def write(self, shuffle_id: int, map_partition: int,
              records: Iterable[tuple], partitioner,
              write_metrics: ShuffleWriteMetrics,
              aggregator: Aggregator | None = None) -> None:
        """Bucket ``records`` (key-value tuples) for one map task.

        With an ``aggregator``, values are combined per key before being
        written (map-side combine, :meth:`Aggregator.combine`), reducing
        both bytes and records; its buffer books the context's execution
        pool, so a constrained context bounds the map task's footprint.
        """
        if aggregator is not None:
            records = aggregator.combine(
                records, memory=self.memory, integrity=self.integrity,
                site=("map", shuffle_id, map_partition))

        output = _MapOutput(
            map_partition=map_partition,
            node=self.cluster.node_of_partition(map_partition))
        num_partitions = partitioner.num_partitions
        get_partition = partitioner.get_partition
        record_bytes = output.record_bytes
        loose: dict[int, list] | None = None
        n_records = 0
        n_bytes = 0
        for record in records:
            if is_keyed_block(record):
                # columnar fast path: place all keys in one vectorized
                # call and store the block once, gathered into bucket
                # order, charged as the records it stands for
                loose = None
                if not len(record):
                    continue
                order, offsets = partition_order(
                    partitioner.partition_int_keys(record.keys),
                    num_partitions)
                run = _Run(record.take(order), offsets.tolist(),
                           wire_bytes_per_row(record))
                output.segments.append(run)
                n_records += len(record)
                n_bytes += len(record) * run.row_bytes
                continue
            bucket = get_partition(record[0])
            size = estimate_record_size(record)
            if loose is None:
                loose = {}
                output.segments.append(loose)
            loose.setdefault(bucket, []).append(record)
            record_bytes[bucket] = record_bytes.get(bucket, 0) + size
            n_records += 1
            n_bytes += size
        if self.integrity is not None and self.integrity.enabled:
            for bucket in range(num_partitions):
                items = output.bucket(bucket)[0]
                if not items:
                    continue
                blob = serialize_partition([
                    item.block.take(slice(item.start, item.stop))
                    if type(item) is _Range else item for item in items])
                output.bucket_blobs[bucket] = blob
                output.bucket_checksums[bucket] = self.integrity.seal(blob)
        output.records = n_records
        # dropped shuffles (drop_shuffle_outputs) may be re-written when
        # lineage is recomputed; re-register lazily
        self._shuffles.setdefault(shuffle_id, {})[map_partition] = \
            output
        write_metrics.bytes_written += n_bytes
        write_metrics.records_written += n_records

    # ------------------------------------------------------------------
    # reduce side
    # ------------------------------------------------------------------
    def read(self, shuffle_id: int, reduce_partition: int,
             read_metrics: ShuffleReadMetrics) -> list:
        """Fetch all blocks of ``reduce_partition``, accounting each block
        as local or remote based on the writer's node placement.

        Raises :class:`FetchFailedError` when the shuffle's declared map
        outputs are incomplete (a writer node died and its blocks were
        invalidated) or when the fault plan injects a fetch failure.
        """
        outputs = self._shuffles.get(shuffle_id)
        if outputs is None:
            if shuffle_id not in self._num_maps:
                raise KeyError(f"unknown shuffle id {shuffle_id}")
            # registered but dropped (gc'd or removed): recoverable —
            # the scheduler recomputes the map stage from lineage
            missing = tuple(range(self._num_maps[shuffle_id]))
            raise FetchFailedError(
                f"shuffle {shuffle_id} has no map outputs (dropped "
                f"or lost) for reduce partition {reduce_partition}",
                shuffle_id=shuffle_id,
                reduce_partition=reduce_partition,
                missing_map_partitions=missing)
        expected = self._num_maps[shuffle_id]
        if len(outputs) < expected:
            missing = tuple(sorted(set(range(expected))
                                   - set(outputs)))
            raise FetchFailedError(
                f"shuffle {shuffle_id} is missing map outputs "
                f"{list(missing)} for reduce partition "
                f"{reduce_partition}",
                shuffle_id=shuffle_id,
                reduce_partition=reduce_partition,
                missing_map_partitions=missing)
        # snapshot in sorted map-partition order: fetch order (and
        # thus reduce-side record order) must not depend on write
        # interleaving or on recovery re-insertion order
        snapshot = sorted(outputs.items())
        reduce_node = self.cluster.node_of_partition(reduce_partition)
        fetched: list = []
        for map_partition, output in snapshot:
            items, nbytes, n_fetched = output.bucket(reduce_partition)
            if not items:
                continue
            if self.faults is not None:
                self.faults.maybe_fail_fetch(shuffle_id, map_partition,
                                             reduce_partition)
            if self.integrity is not None and self.integrity.enabled:
                items = [
                    _Range(item, 0, len(item)) if is_block(item) else item
                    for item in self._verified_block(
                        shuffle_id, map_partition, reduce_partition,
                        output)]
            if output.node == reduce_node:
                read_metrics.local_bytes += nbytes
                read_metrics.local_records += n_fetched
            else:
                read_metrics.remote_bytes += nbytes
                read_metrics.remote_records += n_fetched
            fetched.extend(items)
        return _assemble(fetched)

    def _verified_block(self, shuffle_id: int, map_partition: int,
                        reduce_partition: int,
                        output: _MapOutput) -> list:
        """Integrity mode: return the block decoded from its verified
        blob, never the in-memory record list.

        On a checksum mismatch the writer's whole map output is dropped
        (mirroring node loss) so the scheduler's lineage resubmission
        rewrites it, and :class:`CorruptedBlockError` propagates to the
        reduce task — a FetchFailedError subclass, so the existing
        recovery path heals it; the task scheduler additionally charges
        the writer node's health score.
        """
        blob = output.bucket_blobs[reduce_partition]
        checksum = output.bucket_checksums[reduce_partition]
        good = self.integrity.checked_read(
            "shuffle", (shuffle_id, map_partition, reduce_partition),
            blob, checksum)
        if good is None:
            self._shuffles.get(shuffle_id, {}).pop(map_partition, None)
            raise CorruptedBlockError(
                f"shuffle {shuffle_id} block (map {map_partition} -> "
                f"reduce {reduce_partition}) failed checksum "
                f"verification; map output dropped for recomputation",
                shuffle_id=shuffle_id,
                reduce_partition=reduce_partition,
                missing_map_partitions=(map_partition,),
                node=output.node)
        return deserialize_partition(good)

    # ------------------------------------------------------------------
    def invalidate_node(self, node_id: int) -> tuple[int, int]:
        """Discard every map output written by ``node_id`` (the node
        died).  Returns ``(outputs_lost, records_lost)``; subsequent
        reduce-side reads of the affected shuffles raise
        ``FetchFailedError`` and trigger lineage resubmission."""
        outputs_lost = 0
        records_lost = 0
        for shuffle_outputs in self._shuffles.values():
            doomed = [p for p, out in shuffle_outputs.items()
                      if out.node == node_id]
            for p in doomed:
                output = shuffle_outputs.pop(p)
                outputs_lost += 1
                records_lost += output.records
        return outputs_lost, records_lost

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Discard one shuffle's map outputs."""
        self._shuffles.pop(shuffle_id, None)

    def clear(self) -> None:
        """Discard all map outputs (recomputed from lineage on demand).

        The declared map-partition counts are metadata, not data, and
        survive — recomputed shuffles re-register their outputs."""
        self._shuffles.clear()
