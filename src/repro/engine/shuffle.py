"""Shuffle manager: map outputs placed in reduce order once per shuffle.

Each map task hashes its records' keys through the child partitioner
into one bucket per reduce partition.  A fetched (map, reduce) pair is
**local** when both share a node and **remote** otherwise — Figure 4's
split — and a bucket is charged what its rows cost as records.

A keyed block is written as the map task made it, beside its rows'
reduce partitions.  The first read of a complete shuffle builds its
**store**: one stable argsort of all map outputs' partition ids in map
order, and one block allocated once, into which each output's rows are
scattered in (reduce partition, map partition, arrival) order.  Each
map array is dropped once placed, so the store *replaces* the map
blocks (an output keeps its node and its rows and bytes per bucket),
and every read returns a zero-copy slice of it.  Losing an output
(``invalidate_node``) or rewriting one (lineage, after a lost node, a
corrupt blob or a resubmitted stage) retires the store; the survivors'
rows stay in it, and the next read rebuilds it in the same order from
them and the fresh blocks.

Per (map, reduce) pair stay: the fetch-fault draw, for each pair whose
bucket holds rows, in map order; the local/remote booking, pairs before
an injected failure included; and, with ``EngineConf.integrity`` on, a
CRC-sealed blob per bucket that a fetch decodes once verified
(:mod:`repro.engine.integrity`).  A sealed shuffle, or one of loose
records (a list per bucket), stores no rows, only its pairs: its reads
walk the map outputs in arrival order.  A corrupt blob drops its
writer's output (:class:`~repro.engine.errors.CorruptedBlockError`), a
read of an incomplete shuffle raises
:class:`~repro.engine.errors.FetchFailedError`, and the scheduler heals
both by resubmitting the parent map stage.  An aggregator pre-merges
each map task's records per key (Spark's map-side combine).  One engine
thread: nothing here locks; fetches run in sorted map order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Iterable, NamedTuple, TYPE_CHECKING

import numpy as np

from .blocks import (is_block, is_keyed_block, layout, partition_order,
                     row_arrays, with_row_arrays)
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


def _by_row(a: np.ndarray) -> np.ndarray:
    """Contiguous ``a`` as one opaque item per row (if 2-D+, rows not
    empty): a fancy index then moves rows ~10x faster than on ``a``."""
    width = a.itemsize * math.prod(a.shape[1:])
    return a if a.ndim == 1 or not width else a.reshape(
        len(a), width // a.itemsize).view(np.dtype((np.void, width)))[:, 0]


class _Run(NamedTuple):
    """A keyed block as the map task wrote it, and its rows' buckets."""

    block: Any
    pids: np.ndarray


@dataclass
class _Store:
    """A shuffle's rows by (reduce partition, map, arrival), ``p`` at
    ``offsets[p]:offsets[p + 1]`` (no ``block``: reads walk the outputs);
    ``rows[p]``, ``nbytes[p]``: its share of each of ``maps`` (``nodes``)."""

    block: Any
    offsets: list[int]
    maps: tuple[int, ...]
    nodes: np.ndarray
    rows: np.ndarray
    nbytes: np.ndarray

    def cut(self, map_partition: int) -> _Run:
        """One map output's rows cut back out, in reduce order."""
        i = self.maps.index(map_partition)
        counts = self.rows[:, i]
        starts = np.asarray(self.offsets[:-1]) + self.rows[:, :i].sum(1)
        index = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                 + np.arange(counts.sum()))
        return _Run(self.block.take(index),
                    np.repeat(np.arange(len(counts)), counts))


@dataclass
class _MapOutput:
    """A map task's :class:`_Run` per keyed block and ``{bucket: [records]}``
    per loose stretch, in arrival order, until a ``store`` (or integrity's
    blobs) holds them; ``rows`` and ``nbytes`` count each bucket."""

    node: int
    rows: np.ndarray
    nbytes: np.ndarray
    segments: list = field(default_factory=list)
    store: _Store | None = None
    #: integrity mode only: each bucket's serialized blob and its CRC-32
    bucket_blobs: dict[int, bytes] = field(default_factory=dict)
    bucket_checksums: dict[int, int] = field(default_factory=dict)

    def bucket(self, reduce_partition: int) -> list:
        """One bucket's runs' rows (a block each) and loose records."""
        items: list = []
        for segment in self.segments:
            if type(segment) is _Run:
                at = np.flatnonzero(segment.pids == reduce_partition)
                items.extend([segment.block.take(at)] if len(at) else ())
            else:
                items.extend(segment.get(reduce_partition, ()))
        return items


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
        #: shuffle id -> its store, until a map output is lost or rewritten
        self._stores: dict[int, _Store] = {}
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

        num_partitions = partitioner.num_partitions
        output = _MapOutput(self.cluster.node_of_partition(map_partition),
                            *np.zeros((2, num_partitions), np.int64))
        loose: dict[int, list] | None = None
        for record in records:
            if is_keyed_block(record):
                # one vectorized placement; the block is kept as it is
                loose = None
                if len(record):
                    pids = partitioner.partition_int_keys(record.keys)
                    counts = np.bincount(pids, minlength=num_partitions)
                    output.segments.append(_Run(record, pids.astype(
                        np.min_scalar_type(num_partitions - 1))))
                    output.rows += counts
                    output.nbytes += counts * wire_bytes_per_row(record)
                continue
            bucket = partitioner.get_partition(record[0])
            if loose is None:
                loose = {}
                output.segments.append(loose)
            loose.setdefault(bucket, []).append(record)
            output.rows[bucket] += 1
            output.nbytes[bucket] += estimate_record_size(record)
        if self.integrity is not None and self.integrity.enabled:
            for bucket in np.flatnonzero(output.rows).tolist():
                blob = serialize_partition(output.bucket(bucket))
                output.bucket_blobs[bucket] = blob
                output.bucket_checksums[bucket] = self.integrity.seal(blob)
            output.segments = []    # every read decodes a sealed blob
        # dropped shuffles may be re-written by lineage: re-register
        # lazily; a rewritten map output retires the store
        self._shuffles.setdefault(shuffle_id, {})[map_partition] = \
            output
        self._stores.pop(shuffle_id, None)
        write_metrics.bytes_written += int(output.nbytes.sum())
        write_metrics.records_written += int(output.rows.sum())

    # ------------------------------------------------------------------
    # reduce side
    # ------------------------------------------------------------------
    def read(self, shuffle_id: int, reduce_partition: int,
             read_metrics: ShuffleReadMetrics) -> list:
        """Fetch all blocks of ``reduce_partition``, accounting each
        (map, reduce) pair as local or remote by its writer's node.

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
        if not outputs:
            return []
        store = self._stores.get(shuffle_id) or self._build_store(
            shuffle_id, outputs)
        walk = store.block is None
        sealed = self.integrity is not None and self.integrity.enabled
        shares = store.rows[reduce_partition]
        fetched, failure, items = np.flatnonzero(shares), None, []
        injects = bool(self.faults and self.faults.plan.fetch_failure_prob)
        for done, i in enumerate(fetched.tolist() if walk or injects else ()):
            m = store.maps[i]
            try:
                if injects:
                    self.faults.maybe_fail_fetch(shuffle_id, m,
                                                 reduce_partition)
                if walk:
                    items.extend(self._verified_block(
                        shuffle_id, m, reduce_partition, outputs[m])
                        if sealed else outputs[m].bucket(reduce_partition))
            except FetchFailedError as exc:
                fetched, failure = fetched[:done], exc
                break
        # the pairs fetched before a failure are booked too
        local = store.nodes[fetched] == \
            self.cluster.node_of_partition(reduce_partition)
        rows, nbytes = shares[fetched], store.nbytes[reduce_partition, fetched]
        read_metrics.local_bytes += int(nbytes[local].sum())
        read_metrics.local_records += int(rows[local].sum())
        read_metrics.remote_bytes += int(nbytes[~local].sum())
        read_metrics.remote_records += int(rows[~local].sum())
        if failure is not None:
            raise failure
        if walk:    # adjacent blocks joined into one, as a store slice is
            joined: list = []
            for blocks, group in groupby(items, is_block):
                group = list(group)
                joined.extend([type(group[0]).concat(group)] if blocks
                              else group)
            return joined
        start, stop = store.offsets[reduce_partition:reduce_partition + 2]
        return [store.block.take(slice(start, stop))] if stop > start \
            else []

    def _build_store(self, shuffle_id: int,
                     outputs: dict[int, _MapOutput]) -> _Store:
        """The shuffle's pairs in map order and, unless sealed, loose or
        empty (reads then walk the outputs), its runs' rows placed in one
        block (a retired store's outputs are cut back out of it first)."""
        maps, outs = zip(*sorted(outputs.items()))
        store = self._stores[shuffle_id] = _Store(
            None, [], maps, np.array([out.node for out in outs]),
            np.stack([out.rows for out in outs], 1),
            np.stack([out.nbytes for out in outs], 1))
        if self.integrity is not None and self.integrity.enabled or any(
                type(s) is dict for out in outs for s in out.segments):
            return store
        runs = [run for m, out in zip(maps, outs) for run in (
            [out.store.cut(m)] if out.store is not None else out.segments)]
        if not runs:
            return store
        if len({layout(run.block) for run in runs}) > 1:
            raise ValueError(f"shuffle {shuffle_id} mixes block layouts")
        order, offsets = partition_order(
            np.concatenate([run.pids for run in runs]), len(outs[0].rows))
        dest = np.empty_like(order)
        dest[order] = np.arange(len(order))
        del order
        store.offsets = offsets.tolist()
        store.block = with_row_arrays(runs[0].block, [
            np.empty((len(dest), *a.shape[1:]), a.dtype)
            for a in row_arrays(runs[0].block)])
        for out in outs:
            out.segments, out.store = [], store
        ats = np.split(dest, np.cumsum([len(run.block) for run in runs])[:-1])
        sources = [[_by_row(a) for a in row_arrays(run.block)] for run in runs]
        del runs
        # column by column (~1.6x faster than block by block: one column
        # stays in cache), each map array dropped once its rows are placed
        for k, column in enumerate(map(_by_row, row_arrays(store.block))):
            for at, arrays in zip(ats, sources):
                column[at], arrays[k] = arrays[k], None
        return store

    def _verified_block(self, shuffle_id: int, map_partition: int,
                        reduce_partition: int,
                        output: _MapOutput) -> list:
        """Integrity mode: the bucket decoded from its verified blob.  A
        checksum mismatch drops the writer's whole map output, as a lost
        node does, and raises :class:`CorruptedBlockError` (a
        ``FetchFailedError``: lineage rewrites the output; the task
        scheduler also charges the writer node's health)."""
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
        for shuffle_id, shuffle_outputs in self._shuffles.items():
            doomed = [p for p, out in shuffle_outputs.items()
                      if out.node == node_id]
            if doomed:  # the survivors' rows stay in the retired store
                self._stores.pop(shuffle_id, None)
            for p in doomed:
                output = shuffle_outputs.pop(p)
                outputs_lost += 1
                records_lost += int(output.rows.sum())
        return outputs_lost, records_lost

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Discard one shuffle's map outputs and its store."""
        self._shuffles.pop(shuffle_id, None)
        self._stores.pop(shuffle_id, None)

    def clear(self) -> None:
        """Discard all map outputs (recomputed from lineage on demand).

        The declared map-partition counts are metadata, not data, and
        survive — recomputed shuffles re-register their outputs."""
        self._shuffles.clear()
        self._stores.clear()
