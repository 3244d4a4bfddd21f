"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked
collections with Spark transformation/action semantics.

This is the abstraction the CSTF paper programs against (Section 2.4).
The subset implemented here is what the paper's dataflows (Table 2),
the BIGtensor baseline, the record oracle and the examples call:

* narrow transformations — ``map``, ``map_values``, ``flat_map_values``,
  ``map_partitions``, ``key_blocks``, ``materialize_records``;
* wide transformations — ``partition_by``, ``combine_by_key``,
  ``reduce_by_key``, ``join``, ``block_join``, ``cogroup``,
  ``left_outer_join``;
* actions — ``collect``, ``count``, ``take``, ``top``, ``reduce``,
  ``tree_aggregate``, ``sum``, ``collect_as_map``;
* persistence — ``persist``/``cache``/``unpersist`` with the storage
  levels of :mod:`repro.engine.storage`.

Co-partitioning semantics match Spark: joining two RDDs that share an
equal partitioner is a narrow operation for the already-partitioned side,
which is the property CSTF exploits to keep factor matrices from
re-shuffling (Section 4.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

import numpy as np

from . import linthooks
from .blocks import (ColumnarBlock, KeyedRowBlock, coalesce_blocks,
                     coalesce_rows, iter_records, stable_argsort)
from .errors import EngineError
from .partitioner import HashPartitioner, Partitioner
from .shuffle import Aggregator
from .storage import StorageLevel

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .scheduler import TaskContext


# ----------------------------------------------------------------------
# dependencies
# ----------------------------------------------------------------------
class Dependency:
    """Edge in the lineage graph, pointing at a parent RDD."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """One-to-one edge: child partition ``p`` reads parent partition
    ``p``, inside the same task."""


class ShuffleDependency(Dependency):
    """Wide dependency: the parent's output must be re-bucketed by key."""

    def __init__(self, rdd: "RDD", partitioner: Partitioner,
                 aggregator: Aggregator | None = None,
                 map_side_combine: bool = False):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        self.shuffle_id = rdd.ctx._shuffle_manager.new_shuffle_id(
            rdd.num_partitions)
        #: id of the wide RDD consuming this shuffle; set by the consumer.
        #: Lets the scheduler count paper-style "shuffle rounds" (a
        #: cogroup of two shuffled parents is one round).
        self.consumer_rdd_id: int | None = None


# ----------------------------------------------------------------------
# RDD base
# ----------------------------------------------------------------------
class RDD:
    """A lazy, immutable, partitioned collection.

    Subclasses override :meth:`compute` to produce the records of one
    partition; everything else (caching, shuffles, scheduling) is shared
    machinery.
    """

    _offloads = False
    #: the broadcasts this node's tasks read, handed to the context
    #: (``MapPartitionsRDD(broadcasts=...)``; see ``repro.engine.broadcast``)
    broadcasts: tuple = ()

    @property
    def offloads(self) -> bool:
        """Whether this node's tasks may leave their body's request to
        a worker process in flight, fixed when the kernel builds it
        (``MapPartitionsRDD(offloads=True)``): a stage whose final RDD
        offloads may keep several tasks suspended (see
        ``repro.engine.taskscheduler``)."""
        return self._offloads

    def __init__(self, ctx: "Context", dependencies: list[Dependency],
                 num_partitions: int,
                 partitioner: Partitioner | None = None):
        self.ctx = ctx
        self.rdd_id = ctx._next_rdd_id()
        self.dependencies = dependencies
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.storage_level: StorageLevel | None = None
        self.name = type(self).__name__
        #: semantic operation kind ("map", "keyBlocks", ...): pinned
        #: by the *first* set_name call (always the factory method), so
        #: user renames keep the display name and plan analysis apart
        self.op = type(self).__name__
        self._op_pinned = False

    # -- subclass interface -------------------------------------------
    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Produce the records of partition ``split`` (subclass hook;
        wide RDDs read their shuffle here, narrow ones pipeline)."""
        raise NotImplementedError

    # -- evaluation ----------------------------------------------------
    def iterator(self, split: int, task: "TaskContext") -> Iterable:
        """Records of partition ``split``, honouring the cache."""
        if self.storage_level is not None:
            cached = self.ctx._cache.get(self.rdd_id, split)
            if cached is not None:
                task.stage_metrics.cache_hit_partitions += 1
                return cached
            task.stage_metrics.cache_miss_partitions += 1
            records = list(self.compute(split, task))
            if self.ctx.caching_enabled:
                self.ctx._cache.put(self.rdd_id, split, records,
                                    self.storage_level)
            return records
        return self.compute(split, task)

    # -- persistence ----------------------------------------------------
    def persist(self, level: StorageLevel = StorageLevel.MEMORY_RAW) -> "RDD":
        """Mark this RDD for caching at ``level`` (lazy; materialized the
        first time a job computes its partitions).  ``MEMORY_AND_DISK``
        levels demote to simulated disk instead of dropping entries when
        the storage pool is over budget."""
        self.storage_level = level
        self.ctx._register_persist(self)
        return self

    def cache(self) -> "RDD":
        """Alias for ``persist(StorageLevel.MEMORY_RAW)``."""
        return self.persist(StorageLevel.MEMORY_RAW)

    def unpersist(self) -> "RDD":
        """Drop cached partitions of this RDD."""
        self.storage_level = None
        self.ctx._cache.unpersist(self.rdd_id)
        self.ctx._register_unpersist(self.rdd_id)
        return self

    def is_fully_cached(self) -> bool:
        """True iff every partition is materialised in the cache (the
        scheduler then prunes lineage walks at this RDD)."""
        return (self.storage_level is not None
                and self.ctx._cache.has_all_partitions(
                    self.rdd_id, self.num_partitions))

    def set_name(self, name: str) -> "RDD":
        """Label the RDD for lineage rendering and stage names."""
        self.name = name
        if not self._op_pinned:
            self.op = name
            self._op_pinned = True
        return self

    def lineage_rdds(self) -> list["RDD"]:
        """Every RDD reachable from this one through lineage, parents
        before children, deduplicated by ``rdd_id``.

        This is the raw material of the plan auditor
        (:mod:`repro.lint.plan`): a cheap driver-side walk over
        already-built objects — nothing is computed and no state is
        recorded, so exporting a plan costs nothing unless a lint
        session asks for it."""
        order: list[RDD] = []
        seen: set[int] = set()
        stack: list[tuple[RDD, bool]] = [(self, False)]
        while stack:
            rdd, expanded = stack.pop()
            if expanded:
                order.append(rdd)
                continue
            if rdd.rdd_id in seen:
                continue
            seen.add(rdd.rdd_id)
            stack.append((rdd, True))
            for dep in rdd.dependencies:
                stack.append((dep.rdd, False))
        return order

    def narrow_chain(self) -> list["RDD"]:
        """All RDDs reachable from this one through narrow dependencies
        (the data one of its stage's tasks touches), itself included."""
        chain: list[RDD] = []
        visited: set[int] = set()
        stack = [self]
        while stack:
            current = stack.pop()
            if current.rdd_id in visited:
                continue
            visited.add(current.rdd_id)
            chain.append(current)
            for dep in current.dependencies:
                if isinstance(dep, NarrowDependency):
                    stack.append(dep.rdd)
        return chain

    def to_debug_string(self) -> str:
        """Render the lineage tree (Spark's ``toDebugString``): one line
        per RDD, indentation increasing at every shuffle boundary."""
        lines: list[str] = []

        def walk(rdd: "RDD", depth: int, seen: set[int]) -> None:
            marker = "*" if rdd.is_fully_cached() else " "
            lines.append(f"{'  ' * depth}({rdd.num_partitions}){marker} "
                         f"{rdd.name} [{rdd.rdd_id}]")
            if rdd.rdd_id in seen:
                return
            seen.add(rdd.rdd_id)
            for dep in rdd.dependencies:
                from_shuffle = isinstance(dep, ShuffleDependency)
                walk(dep.rdd, depth + 1 if from_shuffle else depth, seen)

        walk(self, 0, set())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} id={self.rdd_id} "
                f"partitions={self.num_partitions} name={self.name!r}>")

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------
    def map(self, f: Callable[[Any], Any],
            preserves_partitioning: bool = False) -> "RDD":
        """Apply ``f`` to every record."""
        return MapPartitionsRDD(
            self, lambda _split, it: map(f, it),
            preserves_partitioning=preserves_partitioning,
        ).set_name("map")

    def map_partitions(self, f: Callable[[Iterable], Iterable],
                       preserves_partitioning: bool = False) -> "RDD":
        """Apply ``f`` to each whole partition iterator."""
        return MapPartitionsRDD(
            self, lambda _split, it: f(it),
            preserves_partitioning=preserves_partitioning,
        ).set_name("mapPartitions")

    def map_values(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to the value of each key-value record; the key —
        and therefore the partitioner — is preserved."""
        def apply(_split: int, it: Iterable) -> Iterator:
            for k, v in it:
                yield (k, f(v))
        return MapPartitionsRDD(self, apply,
                                preserves_partitioning=True
                                ).set_name("mapValues")

    def flat_map_values(self, f: Callable[[Any], Iterable]) -> "RDD":
        """Expand each value into zero or more values under the same
        key; preserves the partitioner."""
        def apply(_split: int, it: Iterable) -> Iterator:
            for k, v in it:
                for out in f(v):
                    yield (k, out)
        return MapPartitionsRDD(self, apply,
                                preserves_partitioning=True
                                ).set_name("flatMapValues")

    def materialize_records(self) -> "RDD":
        """The one block→records seam, for the one record *program*
        (the BIGtensor baseline) that runs the tensor through generic
        record transforms; kernels expand blocks inside their own ops
        instead.

        Expands each block into its rows in storage order —
        bit-identical to a pipeline that never used blocks.  Non-block
        records pass through untouched, so the step is a no-op on
        record partitions and preserves the partitioner.
        """
        return MapPartitionsRDD(
            self, lambda _split, it: iter_records(it),
            preserves_partitioning=True,
        ).set_name("materializeRecords")

    def key_blocks(self, mode: int) -> "RDD":
        """Coalesce each partition into one
        :class:`~repro.engine.blocks.ColumnarBlock` keyed by ``mode``'s
        index column — the block form of ``(idx, val) -> (idx[mode],
        (idx, val))``, ready for :meth:`block_join`.  An O(1) relabel
        for a partition that already is one block; an empty partition
        stays empty.  Drops the partitioner, like :meth:`map`."""
        def key(_split: int, it: Iterable) -> list:
            block = coalesce_blocks(it)
            return [] if block is None else [block.keyed_by(mode)]
        return MapPartitionsRDD(self, key).set_name("keyBlocks")

    # ------------------------------------------------------------------
    # wide transformations
    # ------------------------------------------------------------------
    def _default_partitioner(self, num_partitions: int | None) -> Partitioner:
        if num_partitions is None:
            if self.partitioner is not None:
                return self.partitioner
            num_partitions = self.num_partitions
        return HashPartitioner(num_partitions)

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Re-bucket key-value records by ``partitioner``.  A no-op (self)
        when already partitioned identically, as in Spark."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def combine_by_key(self, create_combiner: Callable, merge_value: Callable,
                       merge_combiners: Callable,
                       num_partitions: int | None = None,
                       map_side_combine: bool = True) -> "RDD":
        """General per-key aggregation (the primitive under
        :meth:`reduce_by_key`)."""
        if linthooks.session_active():
            for fn in (create_combiner, merge_value, merge_combiners):
                linthooks.closure_created(fn, "combineByKey")
        return self._combine(
            Aggregator(create_combiner, merge_value, merge_combiners),
            self._default_partitioner(num_partitions), map_side_combine,
            "combineByKey(local)")

    def _combine(self, aggregator: Aggregator, partitioner: Partitioner,
                 map_side_combine: bool, local_op: str) -> "RDD":
        """``aggregator``'s per-key combine under ``partitioner``: within
        each partition, as op ``local_op``, when this RDD is already
        partitioned so (no shuffle; the combine books nothing and cannot
        spill), else through a shuffle."""
        if self.partitioner == partitioner:
            return MapPartitionsRDD(
                self, lambda _split, it: aggregator.combine(it),
                preserves_partitioning=True).set_name(local_op)
        return ShuffledRDD(self, partitioner, aggregator=aggregator,
                           map_side_combine=map_side_combine
                           ).set_name("combineByKey")

    def reduce_by_key(self, f: Callable[[Any, Any], Any],
                      num_partitions: int | None = None,
                      map_side_combine: bool | None = None) -> "RDD":
        """Merge values per key with ``f``.  Map-side combining follows the
        context configuration unless overridden."""
        if map_side_combine is None:
            map_side_combine = self.ctx.conf.map_side_combine
        return self.combine_by_key(
            lambda v: v, f, f, num_partitions,
            map_side_combine=map_side_combine).set_name("reduceByKey")

    def cogroup(self, other: "RDD",
                num_partitions: int | None = None) -> "RDD":
        """Group both RDDs by key: ``(key, (list_self, list_other))``."""
        partitioner = self._default_partitioner(num_partitions)
        return CoGroupedRDD(self.ctx, [self, other], partitioner)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join by key: ``(key, (v_self, v_other))``, in probe
        order (see :class:`HashJoinRDD`).

        Sides already partitioned by the join partitioner are consumed
        through a narrow dependency (no shuffle) — CSTF relies on this
        for the factor-matrix side of every MTTKRP join.
        """
        return HashJoinRDD(self.ctx, [self, other],
                           self._default_partitioner(num_partitions)
                           ).set_name("join")

    def block_join(self, other: "RDD",
                   fold: Callable[[ColumnarBlock, Any], Any],
                   out_key_mode: int, keep_index: bool = True,
                   num_partitions: int | None = None) -> "RDD":
        """Inner join of keyed columnar blocks with keyed rows, block
        in and block out (see :class:`BlockJoinRDD`).  Same
        narrow-vs-shuffle rule as :meth:`join`."""
        return BlockJoinRDD(
            self.ctx, self, other,
            self._default_partitioner(num_partitions),
            fold, out_key_mode, keep_index)

    def left_outer_join(self, other: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        """Join keeping unmatched left keys (right value ``None``)."""
        def emit(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            for lv in left:
                if right:
                    for rv in right:
                        yield (lv, rv)
                else:
                    yield (lv, None)
        return (self.cogroup(other, num_partitions)
                .flat_map_values(emit).set_name("leftOuterJoin"))

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self) -> list:
        """Return all records to the driver."""
        parts = self.ctx._scheduler.run_job(
            self, lambda _p, it: list(it), f"collect {self.name}")
        out: list = []
        for p in parts:
            out.extend(p)
        return out

    def count(self) -> int:
        """Number of records."""
        return sum(self.ctx._scheduler.run_job(
            self, lambda _p, it: sum(1 for _ in it), f"count {self.name}"))

    def take(self, n: int) -> list:
        """First ``n`` records (computes all partitions; the engine is
        in-process so there is no reason to run incremental jobs)."""
        if n <= 0:
            return []
        collected = self.collect()
        return collected[:n]

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        """Combine all records with an associative ``f``."""
        import functools
        def reduce_partition(_p: int, it: Iterable) -> list:
            items = list(it)
            if not items:
                return []
            return [functools.reduce(f, items)]
        partials = self.ctx._scheduler.run_job(
            self, reduce_partition, f"reduce {self.name}")
        flat = [x for part in partials for x in part]
        if not flat:
            raise EngineError("reduce() on an empty RDD")
        return functools.reduce(f, flat)

    def tree_aggregate(self, zero: Any, seq_op: Callable,
                       comb_op: Callable) -> Any:
        """Aggregate with distinct within-partition (``seq_op``) and
        cross-partition (``comb_op``) operators.  ``zero`` is deep-copied
        per partition, so mutable accumulators (numpy arrays) are safe.
        Spark merges the partials in a tree on the executors; in-process
        the result is identical (used for gram matrices)."""
        import copy
        import functools

        def agg_partition(_p: int, it: Iterable) -> Any:
            return functools.reduce(seq_op, it, copy.deepcopy(zero))
        partials = self.ctx._scheduler.run_job(
            self, agg_partition, f"treeAggregate {self.name}")
        return functools.reduce(comb_op, partials, copy.deepcopy(zero))

    def sum(self) -> Any:
        """Sum of all records (``0`` for an empty RDD)."""
        import functools
        import operator
        partials = self.ctx._scheduler.run_job(
            self, lambda _p, it: functools.reduce(operator.add, it, 0),
            f"sum {self.name}")
        return functools.reduce(operator.add, partials, 0)

    def top(self, n: int, key: Callable | None = None) -> list:
        """Largest ``n`` records (descending)."""
        import heapq
        def top_partition(_p: int, it: Iterable) -> list:
            return heapq.nlargest(n, it, key=key)
        partials = self.ctx._scheduler.run_job(
            self, top_partition, f"top {self.name}")
        return heapq.nlargest(n, [x for p in partials for x in p],
                              key=key)

    def collect_as_map(self) -> dict:
        """Collect key-value records into a driver-side dict (later
        duplicates win, as in Spark)."""
        return dict(self.collect())


# ----------------------------------------------------------------------
# concrete RDDs
# ----------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """An RDD backed by a driver-side list, split into equal slices."""

    def __init__(self, ctx: "Context", data: list, num_partitions: int,
                 partitioner: Partitioner | None = None):
        super().__init__(ctx, [], num_partitions, partitioner)
        self._slices: list[list] = [[] for _ in range(num_partitions)]
        if partitioner is not None:
            for record in data:
                self._slices[partitioner.get_partition(record[0])].append(record)
        else:
            n = len(data)
            step, extra = divmod(n, num_partitions)
            start = 0
            for i in range(num_partitions):
                end = start + step + (1 if i < extra else 0)
                self._slices[i] = list(data[start:end])
                start = end
        self.set_name("parallelize")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Return the pre-sliced driver-side data."""
        return self._slices[split]


class BlockCollectionRDD(RDD):
    """An RDD of pre-partitioned columnar blocks, one per partition.

    The zero-copy analogue of :class:`ParallelCollectionRDD`: the
    driver has already placed every nonzero into its partition's block
    (``COOTensor.partition_blocks``), so each partition holds exactly
    one :class:`~repro.engine.blocks.ColumnarBlock` record and no
    per-record slicing happens at all.
    """

    def __init__(self, ctx: "Context", blocks: list,
                 partitioner: Partitioner | None = None):
        super().__init__(ctx, [], len(blocks), partitioner)
        self._blocks: list[list] = [[b] for b in blocks]
        self.set_name("parallelizeBlocks")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Return the partition's single pre-built block."""
        return self._blocks[split]


class MapPartitionsRDD(RDD):
    """Narrow transformation applying ``f(split, iterator)``, which
    reads ``broadcasts`` (:attr:`RDD.broadcasts`).  An offloading node's
    ``f(split, iterator, task)`` also gets the attempt's
    :class:`~repro.engine.taskscheduler.TaskContext`."""

    def __init__(self, parent: RDD, f: Callable[..., Iterable],
                 preserves_partitioning: bool = False,
                 broadcasts: Iterable = (), offloads: bool = False):
        super().__init__(
            parent.ctx, [NarrowDependency(parent)], parent.num_partitions,
            parent.partitioner if preserves_partitioning else None)
        self._parent = parent
        self._f = f
        self.broadcasts = tuple(broadcasts)
        self._offloads = offloads
        for bc in self.broadcasts:
            bc.handed = True
        # the partition function usually wraps a user closure in its
        # cells; the closure analyzer unwraps the chain
        linthooks.closure_created(f, "mapPartitions")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Apply the stage function to the parent partition."""
        parent = self._parent.iterator(split, task)
        if self.offloads:
            return self._f(split, parent, task)
        return self._f(split, parent)


class ShuffledRDD(RDD):
    """Wide transformation: output of a single shuffle, optionally
    combined per key on the reduce side."""

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 aggregator: Aggregator | None = None,
                 map_side_combine: bool = False):
        dep = ShuffleDependency(parent, partitioner, aggregator,
                                map_side_combine)
        super().__init__(parent.ctx, [dep], partitioner.num_partitions,
                         partitioner)
        dep.consumer_rdd_id = self.rdd_id
        self._dep = dep
        self.set_name("shuffled")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Fetch this partition's shuffle blocks, merging per key when an aggregator is attached."""
        records = self.ctx._shuffle_manager.read(
            self._dep.shuffle_id, split, task.stage_metrics.shuffle_read)
        agg = self._dep.aggregator
        if agg is None:
            return records
        # under a memory budget the combine books execution memory and
        # may spill (see Aggregator.combine)
        return agg.combine(records, combiners=self._dep.map_side_combine,
                           memory=self.ctx.memory,
                           integrity=self.ctx.integrity,
                           site=("reduce", self._dep.shuffle_id, split))


class _KeyGroupingRDD(RDD):
    """Base of the RDDs that bring several key-value parents together
    by key under one partitioner.

    Parents already partitioned by the target partitioner contribute
    through a narrow dependency — no data movement, matching Spark;
    the others are shuffled, and all of them count as one shuffle
    round of the consuming RDD.
    """

    def __init__(self, ctx: "Context", parents: list[RDD],
                 partitioner: Partitioner):
        deps: list[Dependency] = []
        for parent in parents:
            if parent.partitioner == partitioner:
                deps.append(NarrowDependency(parent))
            else:
                deps.append(ShuffleDependency(parent, partitioner))
        super().__init__(ctx, deps, partitioner.num_partitions, partitioner)
        for dep in deps:
            if isinstance(dep, ShuffleDependency):
                dep.consumer_rdd_id = self.rdd_id
        self._parents = parents

    def _read_parent(self, dep: Dependency, split: int,
                     task: "TaskContext") -> Iterable:
        """One parent's records for this partition: its shuffle
        blocks in map-partition order, or the co-partitioned parent
        partition itself."""
        if isinstance(dep, ShuffleDependency):
            return self.ctx._shuffle_manager.read(
                dep.shuffle_id, split, task.stage_metrics.shuffle_read)
        return dep.rdd.iterator(split, task)

    def _read_rows(self, dep: Dependency, split: int,
                   task: "TaskContext") -> KeyedRowBlock | None:
        """A keyed-row parent's partition as :meth:`_slots`' table: one
        block sorted by key, no key twice (``None`` for no rows), as a
        co-partitioned factor arrives; rows fetched through a shuffle
        (hadoop mode) arrive in map order and are sorted here."""
        table = coalesce_rows(self._read_parent(dep, split, task))
        if table is None:
            return None
        if isinstance(dep, ShuffleDependency):
            table = table.take(stable_argsort(table.keys))
        keys = table.keys
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if bad.size:
            prev, key = keys[bad[0]:bad[0] + 2].tolist()
            if prev == key:
                raise EngineError(
                    f"{self.name} partition {split}: key {key} appears "
                    f"more than once on the row side")
            raise EngineError(
                f"{self.name} partition {split}: the row side is not "
                f"sorted by row index (key {key} follows {prev}); a "
                f"co-partitioned factor partition is one KeyedRowBlock "
                f"in index order")
        return table

    def _slots(self, split: int, table: KeyedRowBlock,
               keys: np.ndarray) -> np.ndarray:
        """Each key's row in a :meth:`_read_rows` ``table`` (-1 for
        none), in probe order, from a dense lookup built in O(largest
        key).  Keys are mode indices: a negative one raises."""
        low = min(int(table.keys[0]), int(keys.min()))
        if low < 0:
            raise EngineError(
                f"{self.name} partition {split}: key {low} is negative; "
                f"a dense key lookup takes mode indices")
        top = int(table.keys[-1])
        # one slot past the largest key stays -1 for larger probes
        slot = np.full(top + 2, -1, dtype=np.intp)
        slot[table.keys] = np.arange(len(table))
        return slot[np.minimum(keys, top + 1)]


class CoGroupedRDD(_KeyGroupingRDD):
    """Groups several key-value parents by key:
    ``(key, ([values from parent 0], [values from parent 1], ...))``.
    """

    def __init__(self, ctx: "Context", parents: list[RDD],
                 partitioner: Partitioner):
        super().__init__(ctx, parents, partitioner)
        self.set_name("cogroup")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Group all parents' records for this partition by key."""
        n = len(self._parents)
        groups: dict[Any, tuple[list, ...]] = {}
        for idx, dep in enumerate(self.dependencies):
            records = self._read_parent(dep, split, task)
            for k, v in records:
                bucket = groups.get(k)
                if bucket is None:
                    bucket = tuple([] for _ in range(n))
                    groups[k] = bucket
                bucket[idx].append(v)
        return iter(groups.items())


class HashJoinRDD(_KeyGroupingRDD):
    """Inner join as a shuffled hash join, with a ``cogroup``'s
    dependencies: the right partition becomes a dict of value lists and
    the left records probe it, leaving in probe order — fetch order,
    once per right value of the key; unmatched left records drop."""

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Probe this partition's right records with its left ones."""
        left_dep, right_dep = self.dependencies
        left = list(self._read_parent(left_dep, split, task))
        table: dict[Any, list] = {}
        for k, v in self._read_parent(right_dep, split, task):
            table.setdefault(k, []).append(v)
        return ((k, (lv, rv)) for k, lv in left for rv in table.get(k, ()))


class BlockJoinRDD(_KeyGroupingRDD):
    """Inner join of keyed :class:`~repro.engine.blocks.ColumnarBlock`
    partitions with a factor (one sorted
    :class:`~repro.engine.blocks.KeyedRowBlock` per partition), as one
    gather through :meth:`_slots` instead of a hash probe per record.

    Each output partition is a single block: the left side's blocks
    concatenated in fetch order — :class:`HashJoinRDD`'s probe order —
    rows whose key has no right-side row dropped, the accumulator
    column replaced by ``fold(block, gathered_rows)`` and the block
    re-keyed by ``out_key_mode`` (``keep_index=False`` drops the index
    columns: a :class:`~repro.engine.blocks.KeyedRowBlock`).  A key
    twice on the right (a cross product there) raises
    :class:`EngineError`.
    """

    def __init__(self, ctx: "Context", left: RDD, right: RDD,
                 partitioner: Partitioner,
                 fold: Callable[[ColumnarBlock, Any], Any],
                 out_key_mode: int, keep_index: bool = True):
        super().__init__(ctx, [left, right], partitioner)
        # the output is re-keyed, so (like the record path's map after
        # its join) it is no longer partitioned by the join partitioner
        self.partitioner = None
        self._fold = fold
        self.out_key_mode = out_key_mode
        self.keep_index = keep_index
        linthooks.closure_created(fold, "blockJoin")
        self.set_name("blockJoin")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Join this partition's keyed blocks with its factor rows."""
        left_dep, right_dep = self.dependencies
        blocks = []
        for item in self._read_parent(left_dep, split, task):
            if type(item) is not ColumnarBlock or item.key_mode is None:
                raise EngineError(
                    f"{self.name} partition {split}: the left side of "
                    f"a block join must hold keyed ColumnarBlocks, got "
                    f"{type(item).__name__}")
            if len(item):
                blocks.append(item)
        table = self._read_rows(right_dep, split, task)
        if not blocks or table is None:
            return []
        block = (blocks[0] if len(blocks) == 1
                 else ColumnarBlock.concat(blocks))
        at = self._slots(split, table, block.keys)
        matched = at >= 0
        if not matched.all():
            block = block.take(np.flatnonzero(matched))
            at = at[matched]
        rows = self._fold(block, table.rows[at])
        if self.keep_index:
            return [ColumnarBlock(block.columns, block.values, rows,
                                  self.out_key_mode)]
        return [KeyedRowBlock(block.column(self.out_key_mode), rows)]


class RowProductsRDD(_KeyGroupingRDD):
    """Row-wise products of two keyed-row RDDs brought together by key:
    every left row times the right row of its key, one :meth:`_slots`
    gather per partition — ``join`` + ``mapValues(a * b)`` for a left
    side with distinct keys (an MTTKRP output against its factor).
    Keys, order and partitioner are the left side's.  A left key with
    no right row, or a negative one, raises :class:`EngineError`."""

    def __init__(self, ctx: "Context", left: RDD, right: RDD,
                 partitioner: Partitioner):
        super().__init__(ctx, [left, right], partitioner)
        self.set_name("rowProducts")

    def compute(self, split: int, task: "TaskContext") -> Iterable:
        """Multiply this partition's rows by their right-side rows."""
        left_dep, right_dep = self.dependencies
        left = coalesce_rows(self._read_parent(left_dep, split, task))
        table = self._read_rows(right_dep, split, task)
        if left is None:
            return []
        keys = left.keys
        at = (np.full(len(left), -1) if table is None
              else self._slots(split, table, keys))
        missing = np.flatnonzero(at < 0)
        if missing.size:
            raise EngineError(
                f"{self.name} partition {split}: key "
                f"{int(keys[missing[0]])} has no row on the right side; "
                f"both sides must hold the same keys")
        return [KeyedRowBlock(keys, left.rows * table.rows[at])]
