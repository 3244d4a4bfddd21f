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
from typing import Iterable, Iterator, TYPE_CHECKING

import numpy as np

from ..engine.blocks import iter_records

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.rdd import RDD


def key_records_by_mode(tensor_rdd: "RDD", mode: int) -> "RDD":
    """Key every tensor nonzero by one mode's index, as records:
    ``(idx, val)`` becomes ``(idx[mode], (idx, val))``.

    The one keyed-record code path: the base
    :meth:`Kernel.key_tensor_by_mode` and CSTF-QCOO's queue
    initialisation (which stays on records whatever the kernel) both
    go through it.  Columnar partitions are expanded inside this one
    op with bulk ``tolist`` conversions and loose records pass
    through — the same records either way.  Drops the partitioner,
    like ``RDD.map``.
    """
    def key(it: Iterable, _m=mode) -> Iterator:
        return ((rec[0][_m], rec) for rec in iter_records(it))
    return tensor_rdd.map_partitions(key)


class Kernel(ABC):
    """Partition-level arithmetic strategy for the CP-ALS dataflows.

    Methods take and return RDDs (or driver-side arrays for
    :meth:`gram`); the dataflow shape — what shuffles, what joins, what
    is cached — is identical across kernels.  Only how each partition's
    records are *computed* differs.
    """

    #: canonical kernel name (what ``Context.kernel.name`` reports)
    name: str = "abstract"

    #: whether this kernel consumes columnar partition blocks
    #: (:class:`~repro.engine.blocks.ColumnarBlock`); drivers
    #: distribute the tensor as blocks only when True, so the record
    #: oracle keeps its original record-list partitions bit for bit
    wants_blocks: bool = False

    def key_tensor_by_mode(self, tensor_rdd: "RDD", mode: int) -> "RDD":
        """Key every tensor nonzero by one mode's index (the join
        dataflow's STAGE 1): ``(idx, val)`` becomes
        ``(idx[mode], (idx, val))``, in whatever representation this
        kernel's :meth:`coo_join` consumes — records here, keyed
        columnar blocks in the vectorized kernel.  Drops the
        partitioner, like ``RDD.map``.
        """
        return key_records_by_mode(tensor_rdd, mode)

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
        :meth:`sum_rows_by_key`.  Output order is the record path's:
        keys by first occurrence in shuffle-fetch order, rows of one
        key in fetch order.  One shuffle round (the factor side is
        co-partitioned); drops the partitioner, like ``RDD.map``.
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

    @abstractmethod
    def qcoo_reduce(self, queue_rdd: "RDD") -> "RDD":
        """QCOO STAGE 3: reduce each record's factor-row queue.

        ``(key, ((idx, val), queue))`` becomes ``(key, val * (queue[0] *
        queue[1] * ...))`` with the Hadamard products evaluated in queue
        order.  Preserves the partitioner, like ``RDD.map_values``.
        """

    @abstractmethod
    def sum_rows_by_key(self, rdd: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        """Sum row vectors per key (the MTTKRP's final ``reduceByKey``).

        Per key, rows are folded left-to-right in record order; output
        keys appear in first-occurrence order.  Honours the context's
        ``map_side_combine`` configuration.
        """

    @abstractmethod
    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        """``A^T A`` of a distributed factor ``RDD[(index, row)]``.

        Partition partials accumulate outer products in index-sorted
        order starting from a zero matrix; the driver folds the partials
        in partition order with a leading zero matrix.
        """
