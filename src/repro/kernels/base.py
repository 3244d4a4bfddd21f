"""The partition-level compute kernel interface.

The CSTF drivers express every MTTKRP as dataflow (joins, re-keying,
queue reductions, a per-key sum) and hand the *arithmetic* of each step
to a :class:`Kernel`.  Two implementations ship:

* :class:`~repro.kernels.record.RecordKernel` — per-record closures,
  the engine's original semantics and the bit-comparison oracle;
* :class:`~repro.kernels.vectorized.VectorizedKernel` — batches each
  partition into contiguous numpy arrays and replaces the per-record
  Python dispatch with broadcasted Hadamard products and deterministic
  segmented sums.

Both must produce bit-identical results; the contract every method pair
honours is spelled out in ``docs/architecture.md`` (Kernels section).

Orthogonal to the kernel choice, :mod:`repro.kernels.sampled` provides
the CP-ARLS-LEV *estimator*: it rewrites the tensor RDD into a sampled
one (importance weights folded into the values) that then flows through
the same :meth:`Kernel.broadcast_contributions` /
:meth:`Kernel.sum_rows_by_key` methods — unbiased rather than exact,
but still bit-identical across kernels and backends at a fixed seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, TYPE_CHECKING

import numpy as np

from ..engine.blocks import iter_records
from ..engine.rdd import MapPartitionsRDD
from .segsum import batch_rows

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.rdd import RDD
    from .sampled import LeverageSampler


def per_partition_rows(
        rdd: "RDD", op: str,
        f: Callable[[int, Iterable], Iterable] = lambda _split, it: it,
) -> "RDD":
    """Narrow step ``f(split, partition)`` (default: the partition as
    it is) whose output — blocks, ``(key, row)`` records or both — is
    batched into one :class:`~repro.engine.blocks.KeyedRowBlock` per
    non-empty partition, the one shape a factor and an MTTKRP output
    have.
    ``repro.lint.plan`` types the op kind ``op`` as keyed rows;
    preserves the partitioner."""
    def apply(split: int, it: Iterable) -> list:
        block = batch_rows(f(split, it))
        return [] if block is None else [block]
    return MapPartitionsRDD(rdd, apply,
                            preserves_partitioning=True).set_name(op)


class Kernel(ABC):
    """Partition-level arithmetic strategy for the CP-ALS dataflows.

    Methods take and return RDDs (or driver-side arrays for
    :meth:`gram`); the dataflow shape — what shuffles, what joins, what
    is cached — is identical across kernels.  Only how each partition's
    records are *computed* differs.
    """

    #: canonical kernel name (what ``Context.kernel.name`` reports)
    name: str = "abstract"

    def key_tensor_by_mode(self, tensor_rdd: "RDD", mode: int) -> "RDD":
        """Key every tensor nonzero by one mode's index (the join
        dataflow's STAGE 1): ``(idx, val)`` becomes
        ``(idx[mode], (idx, val))``, in whatever representation this
        kernel's :meth:`coo_join` consumes — records here (the tensor's
        columnar partitions are expanded inside this one op), keyed
        columnar blocks in the vectorized kernel.  Drops the
        partitioner, like ``RDD.map``.
        """
        def key(it: Iterable, _m=mode) -> Iterator:
            return ((rec[0][_m], rec) for rec in iter_records(it))
        return tensor_rdd.map_partitions(key)

    @abstractmethod
    def coo_join(self, keyed: "RDD", factor_rdd: "RDD", next_mode: int,
                 last: bool, num_partitions: int) -> "RDD":
        """One CSTF-COO join step: join the keyed nonzeros with the
        factor of the mode they are keyed by, fold the joined row into
        each nonzero's accumulator and re-key by ``next_mode``'s index.

        Logically ``(k, (idx, acc))`` joined with ``(k, row)`` becomes
        ``(idx[next_mode], (idx, acc * row))``, where ``acc`` is the
        tensor value before the first join and the running Hadamard
        row after it.  On the ``last`` step (``next_mode`` is then the
        MTTKRP's output mode) the index tuple is dropped:
        ``(idx[next_mode], acc * row)``, the input of
        :meth:`sum_rows_by_key`.  Output is in ``RDD.join``'s probe
        order: shuffle-fetch order, unmatched nonzeros dropped.  One
        shuffle round (the factor side is co-partitioned); drops the
        partitioner, like ``RDD.map``.
        """

    @abstractmethod
    def broadcast_contributions(self, tensor_rdd: "RDD",
                                broadcasts: "dict[int, Broadcast]",
                                mode: int) -> "RDD":
        """Per-nonzero MTTKRP contributions from replicated factors.

        For each tensor record ``(idx, val)``, multiplies the broadcast
        factor rows of every fixed mode (in ``broadcasts`` iteration
        order) and scales by ``val``, emitting
        ``(idx[mode], contribution_row)``.
        """

    def sampled_contributions(self, tensor_rdd: "RDD",
                              sampler: "LeverageSampler",
                              score_broadcasts: "dict[int, Broadcast]",
                              broadcasts: "dict[int, Broadcast]",
                              mode: int, iteration: int) -> "RDD":
        """The CP-ARLS-LEV map side of one MTTKRP: per partition,
        ``sampler.sample_count`` nonzeros drawn by the fixed modes'
        broadcast leverage scores (1-D, by mode) at the site ``(seed,
        iteration, mode, partition)``, and their
        :meth:`broadcast_contributions` with the ``1/(s q)`` weights
        folded in.  Here the two steps are two nodes —
        ``LeverageSampler.sample_rdd``, then the exact contributions of
        the sampled blocks; a kernel may fuse them into one task body
        with the same draws and the same bits.
        """
        sampled = sampler.sample_rdd(
            tensor_rdd, score_broadcasts, mode, iteration,
            metrics=tensor_rdd.ctx.metrics)
        return self.broadcast_contributions(sampled, broadcasts, mode)

    @abstractmethod
    def qcoo_key_tensor(self, tensor_rdd: "RDD", rank: int) -> "RDD":
        """Start CSTF-QCOO's queue: ``(idx, val)`` becomes
        ``(idx[0], ((idx, val), ()))`` — keyed by the mode-0 index with
        an empty factor-row queue, the left input of the first
        :meth:`qcoo_join` — in partition and record order.  ``rank`` is
        the width of the rows the queue will hold (a columnar queue
        needs it even while empty).  Drops the partitioner, like
        ``RDD.map``.
        """

    @abstractmethod
    def qcoo_join(self, keyed: "RDD", factor_rdd: "RDD", out_mode: int,
                  dequeue: bool, num_partitions: int) -> "RDD":
        """One CSTF-QCOO join step (STAGE 1 + 2, and each of the N-1
        queue-building joins): join the queued nonzeros with the factor
        of the mode they are keyed by, enqueue the joined row and
        re-key by ``out_mode``'s index.

        Logically ``(k, ((idx, val), queue))`` joined with ``(k, row)``
        becomes ``(idx[out_mode], ((idx, val), queue + (row,)))``; with
        ``dequeue`` the oldest row leaves as the new one enters
        (``queue[1:] + (row,)``): a FIFO, oldest first.  Output order,
        shuffle rounds and partitioner as :meth:`coo_join`.
        """

    @abstractmethod
    def qcoo_canonical(self, queue_rdd: "RDD") -> "RDD":
        """Sort each partition of a queue RDD by nonzero coordinate,
        stably (duplicate coordinates keep their incoming order).

        Join outputs are ordered by how their inputs happened to be
        ordered, so the queue built at setup and the queue carried
        across iterations would hold the same records in different
        orders — and the order feeds the floating-point summation in
        the MTTKRP's reduce.  Canonicalising makes every queue (and
        hence every factor) bit-for-bit reproducible, which
        checkpoint/resume relies on: a run resumed from snapshotted
        factors rebuilds the queue and must continue exactly as the
        uninterrupted run would.  Preserves the partitioner.
        """

    @abstractmethod
    def qcoo_reduce(self, queue_rdd: "RDD") -> "RDD":
        """QCOO STAGE 3: reduce each record's factor-row queue.

        ``(key, ((idx, val), queue))`` becomes ``(key, val * (queue[0] *
        queue[1] * ...))`` with the Hadamard products evaluated in queue
        order, records in partition order.  Preserves the partitioner,
        like ``RDD.map_values``.
        """

    @abstractmethod
    def sum_rows_by_key(self, rdd: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        """Sum row vectors per key (the MTTKRP's final ``reduceByKey``).

        Per key, rows are folded left-to-right in record order; keys
        leave in ascending order, a factor partition's order, whether
        the record kernel's combine spilled or not (the vectorized
        kernel's never spills).  Honours ``map_side_combine``.  Takes
        ``(key, row)`` records and/or keyed row blocks; every non-empty
        partition of the result is one
        :class:`~repro.engine.blocks.KeyedRowBlock`, partitioned by key.
        """

    # -- the factor side: every partition one KeyedRowBlock ------------
    @abstractmethod
    def solve_rows(self, m_rdd: "RDD", pinv_v: np.ndarray,
                   nonnegative: bool) -> "RDD":
        """The ALS update ``M @ pinv_v`` row by row, clipped at zero
        with ``nonnegative``; keys, order and partitioner are
        ``m_rdd``'s.

        Each row's product is an explicit left fold over the rank —
        ``row[0] * pinv_v[0]``, then ``+= row[r] * pinv_v[r]`` — never
        a BLAS call, whose summation order differs between a per-row
        and a batched product and between BLAS builds.
        """

    @abstractmethod
    def scale_rows(self, rdd: "RDD", divisor: np.ndarray) -> "RDD":
        """Every row divided elementwise by ``divisor``, keys and order
        kept (a solved ``M`` is in key order already): the normalised
        factor.  Preserves the partitioner."""

    @abstractmethod
    def row_products(self, left: "RDD", right: "RDD",
                     num_partitions: int) -> "RDD":
        """Each row of ``left`` (distinct keys: an MTTKRP output) times
        ``right``'s row of the same key, in ``left``'s order.  Narrow
        for a co-partitioned side, a shuffle for the other, as
        ``RDD.join``; a ``left`` key with no row in ``right`` raises
        ``EngineError``.
        """

    @abstractmethod
    def column_sums(self, rdd: "RDD", rank: int,
                    squares: bool = False) -> np.ndarray:
        """Sum of all rows (of their elementwise squares with
        ``squares``: the squared column norms).  Folded as :meth:`gram`
        folds: partition partials left to right from a zero row, the
        partials in partition order from a zero row.
        """

    @abstractmethod
    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        """``A^T A`` of a distributed factor (keyed rows).

        Partition partials accumulate outer products in index-sorted
        order starting from a zero matrix; the driver folds the partials
        in partition order with a leading zero matrix.
        """
