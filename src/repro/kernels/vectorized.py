"""The vectorized kernel: ndarray batches per partition.

Each partition's records are gathered into contiguous numpy arrays, so
the MTTKRP arithmetic runs as one broadcasted Hadamard product per join
step plus a deterministic segmented-sum reduce, instead of one Python
dispatch per nonzero.  The result is bit-identical to the record kernel
because every elementwise product batches exactly (``vals[:, None] *
rows`` multiplies the same pairs of doubles as ``val * row`` per
record), and the segmented sum (:mod:`repro.kernels.segsum`) replays
the record path's per-key left folds, keys in ascending order.

Both paper dataflows run on keyed columnar blocks end to end: keying a
tensor partition is an O(1) relabel of its block, each join step is one
``RDD.block_join`` (a gather in probe order + a fold of the gathered
rows into the block's ``rows`` column: a row-wise Hadamard product into
CSTF-COO's ``(n, R)`` accumulator, or an append to CSTF-QCOO's ``(n,
q, R)`` queue, oldest slot dropped once full) and the blocks are
shuffled whole.  A join iteration sorts nothing but the shuffle's
partition order and QCOO's canonical queue order.

The per-key sum is the shuffle's own combine: a
:class:`RowSumAggregator` folds a partition's rows and blocks into one
``KeyedRowBlock`` on the map side and again on the reduce side, books
it once against the execution pool and never spills.  Its output, the
factors and every step between them (solve, column norms, normalise,
Gram, fit) hold one ``KeyedRowBlock`` per partition, in key order, and
are one array expression each.
"""

from __future__ import annotations

import functools
import operator
import weakref
from typing import Any, Callable, Iterable, TYPE_CHECKING

import numpy as np

from ..engine.blocks import (ColumnarBlock, KeyedRowBlock, coalesce_blocks,
                             coalesce_rows, stable_argsort)
from ..engine.partitioner import HashPartitioner
from ..engine import procpool
from ..engine.procpool import resolve_op
from ..engine.rdd import MapPartitionsRDD, RowProductsRDD
from ..engine.serialization import estimate_record_size
from ..engine.shuffle import Aggregator
from .base import Kernel
from .sampled import draw_block
from .segsum import (PLANE_BYTES, FoldPlan, combine_rows_block,
                     fold_plan, fold_rows, segmented_fold_at,
                     segmented_left_fold)

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.integrity import IntegrityManager
    from ..engine.memory import MemoryManager
    from ..engine.metrics import MetricsCollector
    from ..engine.rdd import RDD
    from ..engine.taskscheduler import TaskContext
    from .sampled import LeverageSampler


def _per_block(rdd: "RDD", op: str, f: Callable[[Any], Any]) -> "RDD":
    """Narrow step applying ``f`` to each block of every partition
    (the one block, on both dataflows and on the factor side) under a
    pinned op kind, which ``repro.lint.plan`` types where a bare
    ``mapPartitions`` would erase the schema.  For steps that keep
    every key: the partitioner is preserved, like ``RDD.map_values``."""
    return MapPartitionsRDD(
        rdd, lambda _split, it: [f(blk) for blk in it],
        preserves_partitioning=True).set_name(op)


def _zero_led_sum(rows: np.ndarray) -> np.ndarray:
    """Left fold of ``rows`` into a zero row, as the record path's
    ``acc + row`` from ``np.zeros``: the explicit zero row in front
    makes even the signs of zeros match."""
    return fold_rows(np.concatenate([np.zeros((1, rows.shape[1])), rows]))


def block_contribution(
        values: np.ndarray, key_col: np.ndarray,
        fixed: list[tuple[np.ndarray, np.ndarray]],
        prereduce: bool, plan: "FoldPlan | None" = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, rows)`` MTTKRP contributions of one block: per nonzero
    its value times the Hadamard product of the factor rows that the
    ``(index column, factor)`` pairs of ``fixed`` select, left-folded
    per key under ``prereduce``: by ``bincount`` if the product fits one
    ``PLANE_BYTES`` plane and no ``plan`` (a ``FoldPlan`` of ``key_col``)
    is given, else evaluated in the plan's order (it commutes with a
    permutation); either is the strict left fold in record order.  Runs
    inline and in the pool worker."""
    def product_at(at: "np.ndarray | slice") -> np.ndarray:
        (col, factor), *rest = fixed
        acc = np.take(factor, col[at], axis=0)
        acc *= values[at][..., None]
        for col, factor in rest:
            acc *= np.take(factor, col[at], axis=0)
        return acc
    width = fixed[0][1].shape[1]
    if not prereduce:
        return key_col, product_at(slice(None))
    if plan is not None or len(key_col) * width * 8 > PLANE_BYTES:
        return segmented_fold_at(key_col, product_at, width, plan)
    return segmented_left_fold(key_col, product_at(slice(None)))


def sampled_block_contribution(
        block: ColumnarBlock, scores: "dict[int, np.ndarray]",
        factors: "dict[int, np.ndarray]", mode: int, s: int, site: tuple,
        floor: float, prereduce: bool) -> tuple[np.ndarray, np.ndarray]:
    """The sampled MTTKRP's whole map task on one partition's block:
    :func:`~repro.kernels.sampled.draw_block` (pool, weigh, draw ``s``
    rows at ``site``) and the :func:`block_contribution` of what was
    drawn against the fixed modes' ``factors``.  Without ``prereduce``
    the ``s`` raw rows come back in draw order.  Runs inline and in the
    pool worker, which gets the cached partition's own arrays and only
    has to send ``s`` rows back."""
    drawn = draw_block(block, scores, mode, s, site, floor)
    return block_contribution(
        drawn.values, drawn.column(mode),
        [(drawn.column(m), factor) for m, factor in factors.items()],
        prereduce)


class RowSumAggregator(Aggregator):
    """The MTTKRP's per-key row sum as a shuffle's combine: identity /
    ``a + b`` / ``a + b``, so raw rows and combined rows fold alike, and
    :meth:`combine` folds a partition's ``(key, row)`` records and
    :class:`~repro.engine.blocks.KeyedRowBlock`\\ s with
    :func:`~repro.kernels.segsum.combine_rows_block`: the record
    aggregator's bits, keys ascending, one block.  Kernel batches count
    on ``metrics``."""

    def __init__(self, metrics: "MetricsCollector | None" = None):
        super().__init__(lambda v: v, operator.add, operator.add)
        self.metrics = metrics

    def combine(self, records: Iterable, combiners: bool = False,
                memory: "MemoryManager | None" = None,
                integrity: "IntegrityManager | None" = None,
                site: tuple = ()) -> list:
        """The one combined block in a list (empty for no rows), booked
        on ``memory``'s execution pool once, charged as the records it
        stands for, and released: the hand-off is all it holds the pool
        for.  Granted or denied, the block leaves whole; nothing spills,
        so ``integrity`` and ``site`` go unused."""
        combined = combine_rows_block(records, self.metrics)
        if memory is not None and combined:
            nbytes = estimate_record_size(combined[0])
            if memory.try_acquire_execution(nbytes):
                memory.release_execution(nbytes)
        return combined


class VectorizedKernel(Kernel):
    """Batched numpy arithmetic, bit-identical to the record kernel."""

    name = "vectorized"

    def __init__(self, metrics: "MetricsCollector | None" = None,
                 offload=None):
        self._metrics = metrics
        # the process backend's offload client, if any
        self._offload = offload
        # cached tensor block -> {mode: FoldPlan}, dropped with the block
        self._plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _count(self, records: int) -> None:
        if self._metrics is not None:
            self._metrics.add_kernel_batch(records)

    def _run(self, task: "TaskContext", op: str, arrays: tuple,
             meta: dict, then: Callable[[tuple], Any]) -> Any:
        """``then`` of the results of task body ``op`` (an entry of
        ``procpool._OPS``).  When the attempt may defer
        (``task.deferred``) and a pool worker is idle, the body goes to
        the worker and its ``Pending`` request is the record, resolved
        by the task scheduler; else the body runs inline.  The same
        function either way, so the same bits."""
        if self._offload is not None and task.deferred is not None:
            pending = self._offload.run(op, arrays, meta, then)
            if pending is not None:
                task.deferred.append(pending)
                return pending
        return then(resolve_op(op)(*arrays, **meta))

    # ------------------------------------------------------------------
    def coo_join(self, keyed: "RDD", factor_rdd: "RDD", next_mode: int,
                 last: bool, num_partitions: int) -> "RDD":
        def hadamard(blk: ColumnarBlock, rows: np.ndarray) -> np.ndarray:
            self._count(len(blk))
            if blk.rows is None:
                return blk.values[:, None] * rows
            return blk.rows * rows
        return keyed.block_join(factor_rdd, hadamard, next_mode,
                                keep_index=not last,
                                num_partitions=num_partitions)

    def broadcast_contributions(self, tensor_rdd: "RDD",
                                broadcasts: "dict[int, Broadcast]",
                                mode: int) -> "RDD":
        # pre-reducing a partition's contributions is bit-safe only
        # when the shuffle map-side-combines: the combine of already
        # distinct per-partition keys is an identity fold, so the
        # reduce side sees the exact sums the record path builds.
        # With combining off, raw rows must cross the shuffle so the
        # reduce-side fold groups them identically.
        prereduce = tensor_rdd.ctx.conf.map_side_combine
        # the workers' publish cache holds the blocks' values and d
        # columns and a stage's d - 1 factors; the first partitions whose
        # d plan orders fit the room left plan, so no mode evicts a block
        d, parts = len(broadcasts) + 1, tensor_rdd.num_partitions
        planned = parts if self._offload is None else (
            procpool._PUBLISH_CACHE_CAP - parts * (d + 1) - (d - 1)) // d

        def batch(split: int, it: Iterable, task: "TaskContext") -> list:
            """One partition's :func:`block_contribution`.  Requires
            dense ndarray broadcast factors (row ``i`` at index ``i``),
            which is what every driver broadcasts."""
            blk = coalesce_blocks(it)
            if blk is None:
                return []
            key_col = blk.column(mode)
            fixed = [(blk.column(m), bc.value)
                     for m, bc in broadcasts.items()]
            rank = fixed[0][1].shape[1]
            plan = None
            if prereduce and split < planned \
                    and len(blk) * rank * 8 > PLANE_BYTES:
                plans = self._plans.setdefault(blk, {})
                plan = plans.get(mode) or plans.setdefault(
                    mode, fold_plan(key_col))
            self._count(len(blk))
            # unreduced rows keep the keys as they are: not sent
            return [self._run(
                task, "contrib",
                (blk.values, key_col if prereduce else None, fixed),
                {"prereduce": prereduce, "plan": plan},
                lambda res: KeyedRowBlock(
                    res[0] if prereduce else key_col, res[1]))]
        return MapPartitionsRDD(
            tensor_rdd, batch, broadcasts=broadcasts.values(),
            offloads=True).set_name("blockContributions")

    def sampled_contributions(self, tensor_rdd: "RDD",
                              sampler: "LeverageSampler",
                              score_broadcasts: "dict[int, Broadcast]",
                              broadcasts: "dict[int, Broadcast]",
                              mode: int, iteration: int) -> "RDD":
        conf, metrics = tensor_rdd.ctx.conf, tensor_rdd.ctx.metrics
        s = sampler.sample_count

        def body(pid: int, it: Iterable, task: "TaskContext") -> list:
            # the persisted partition's one block, as it is cached: its
            # arrays are published to the workers once per run
            block = coalesce_blocks(it)
            if block is None:
                return []
            scores = {m: bc.value for m, bc in score_broadcasts.items()}
            factors = {m: bc.value for m, bc in broadcasts.items()}

            def drawn(res: tuple) -> KeyedRowBlock:
                metrics.add_sampler_draw(s, len(block))
                self._count(s)
                return KeyedRowBlock(*res)
            return [self._run(
                task, "sampled_contrib", (block, scores, factors),
                {"mode": mode, "s": s, "floor": sampler.floor,
                 "site": (sampler.seed, iteration, pid),
                 "prereduce": conf.map_side_combine}, drawn)]
        return MapPartitionsRDD(
            tensor_rdd, body,
            broadcasts=(*score_broadcasts.values(), *broadcasts.values()),
            offloads=True).set_name("sampledContributions")

    def key_tensor_by_mode(self, tensor_rdd: "RDD", mode: int) -> "RDD":
        return tensor_rdd.key_blocks(mode)

    def qcoo_key_tensor(self, tensor_rdd: "RDD", rank: int) -> "RDD":
        def with_empty_queue(blk: ColumnarBlock) -> ColumnarBlock:
            return ColumnarBlock(blk.columns, blk.values,
                                 np.empty((len(blk), 0, rank)),
                                 blk.key_mode)
        return _per_block(tensor_rdd.key_blocks(0), "emptyQueueBlocks",
                          with_empty_queue)

    def qcoo_join(self, keyed: "RDD", factor_rdd: "RDD", out_mode: int,
                  dequeue: bool, num_partitions: int) -> "RDD":
        def enqueue(blk: ColumnarBlock, rows: np.ndarray,
                    _oldest=int(dequeue)) -> np.ndarray:
            return np.concatenate(
                [blk.rows[:, _oldest:], rows[:, None, :]], axis=1)
        return keyed.block_join(factor_rdd, enqueue, out_mode,
                                num_partitions=num_partitions)

    def qcoo_canonical(self, queue_rdd: "RDD") -> "RDD":
        def by_coordinate(blk: ColumnarBlock) -> ColumnarBlock:
            # a lexsort is stable LSD passes, last column first, so
            # duplicate coordinates tie exactly as sorted() ties them
            order = stable_argsort(blk.columns[-1])
            for col in blk.columns[-2::-1]:
                order = order[stable_argsort(col[order])]
            return blk.take(order)
        return _per_block(queue_rdd, "canonicalBlocks", by_coordinate)

    def qcoo_reduce(self, queue_rdd: "RDD") -> "RDD":
        def reduce_queue(blk: ColumnarBlock) -> KeyedRowBlock:
            # a left fold over the queue slots, not np.prod: the oracle
            # computes val * ((q0 * q1) * q2) and the bits must match
            queue = blk.rows
            acc = queue[:, 0]
            for pos in range(1, queue.shape[1]):
                acc = acc * queue[:, pos]
            self._count(len(blk))
            return KeyedRowBlock(blk.keys, blk.values[:, None] * acc)
        return _per_block(queue_rdd, "reduceQueueBlocks", reduce_queue)

    def sum_rows_by_key(self, rdd: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        return rdd._combine(RowSumAggregator(self._metrics),
                            rdd._default_partitioner(num_partitions),
                            rdd.ctx.conf.map_side_combine, "rowBlocks")

    def solve_rows(self, m_rdd: "RDD", pinv_v: np.ndarray,
                   nonnegative: bool) -> "RDD":
        def solve(blk: KeyedRowBlock) -> KeyedRowBlock:
            acc = blk.rows[:, 0, None] * pinv_v[0]
            for r in range(1, blk.rank):
                acc += blk.rows[:, r, None] * pinv_v[r]
            if nonnegative:
                np.maximum(acc, 0.0, out=acc)
            return KeyedRowBlock(blk.keys, acc)
        return _per_block(m_rdd, "solveRows", solve)

    def scale_rows(self, rdd: "RDD", divisor: np.ndarray) -> "RDD":
        def scale(blk: KeyedRowBlock) -> KeyedRowBlock:
            return KeyedRowBlock(blk.keys, blk.rows / divisor)
        return _per_block(rdd, "scaleRows", scale)

    def row_products(self, left: "RDD", right: "RDD",
                     num_partitions: int) -> "RDD":
        return RowProductsRDD(left.ctx, left, right,
                              HashPartitioner(num_partitions))

    def _sum_partials(self, rdd: "RDD", what: str, zero: np.ndarray,
                      partial: Callable[[KeyedRowBlock], np.ndarray]
                      ) -> np.ndarray:
        """One job: ``partial`` of every non-empty partition's block,
        folded on the driver as ``RDD.tree_aggregate`` folds — zero-led,
        in partition order."""
        def run(_p: int, it: Iterable) -> np.ndarray:
            block = coalesce_rows(it)
            return zero if block is None else partial(block)
        partials = rdd.ctx._scheduler.run_job(
            rdd, run, f"{what} {rdd.name}")
        return functools.reduce(lambda a, b: a + b, partials, zero)

    def column_sums(self, rdd: "RDD", rank: int,
                    squares: bool = False) -> np.ndarray:
        def partial(blk: KeyedRowBlock) -> np.ndarray:
            return _zero_led_sum(blk.rows * blk.rows if squares
                                 else blk.rows)
        return self._sum_partials(rdd, "aggregate", np.zeros(rank),
                                  partial)

    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        def partial(blk: KeyedRowBlock) -> np.ndarray:
            outers = (blk.rows[:, :, None] * blk.rows[:, None, :]
                      ).reshape(len(blk), rank * rank)
            self._count(len(blk))
            return _zero_led_sum(outers).reshape(rank, rank)
        return self._sum_partials(factor_rdd, "gram",
                                  np.zeros((rank, rank)), partial)
