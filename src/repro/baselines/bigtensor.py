"""BIGtensor/GigaTensor-style distributed CP-ALS (the paper's baseline).

Implements the left column of Table 2: the Hadoop MapReduce workflow
that *matricizes* the tensor and reconstructs the MTTKRP from two
element-wise-scaled copies of ``X(n)``:

* **Job 1** — map ``X(n)`` keyed by the slow-varying other mode and join
  with that mode's factor (e.g. ``C``); emit
  ``N1 = ((i, col), X(n)(i, col) * C(k, :))``.
* **Job 2** — map ``bin(X(n))`` (the sparsity pattern, values replaced
  by 1 — "an expensive operation [requiring] a full pass over the tensor
  data") keyed by the fast-varying other mode and join with its factor;
  emit ``N2 = ((i, col), B(j, :))``.
* **Job 3** — join ``N1`` with ``N2`` on ``(i, col)`` and Hadamard-
  multiply; *double the number of tensor nonzeros are shuffled*.
* **Job 4** — ``reduceByKey`` on the mode index, summing rows into M.

Four shuffle rounds and ``5 nnz R`` flops per MTTKRP (Table 4).  Run it
on a hadoop-mode :class:`~repro.engine.Context`: caching is suppressed
(the tensor is re-materialized every job, as MapReduce re-reads HDFS)
and every round pays job startup plus HDFS traffic in the cost model.

Faithful to the original in its limits too: **3rd-order tensors only**
(Section 6.3: "BIGtensor only supports 3rd-order tensors").
"""

from __future__ import annotations

import numpy as np

from ..engine.blocks import KeyedRowBlock, partition_rows
from ..engine.context import Context
from ..engine.partitioner import slice_partitions
from ..engine.rdd import RDD
from ..tensor.coo import COOTensor
from ..tensor.unfold import column_strides
from ..core.cp_als import CPALSDriver


class BigtensorCP(CPALSDriver):
    """The BIGtensor CP-ALS baseline workflow."""

    name = "bigtensor"

    def __init__(self, ctx: Context, num_partitions: int | None = None,
                 **kwargs):
        if not ctx.hadoop_mode:
            raise ValueError(
                "BigtensorCP models a Hadoop workflow; construct the "
                "context with execution_mode='hadoop'")
        super().__init__(ctx, num_partitions, **kwargs)
        self._shape: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    def _distribute_factor(self, factor: np.ndarray) -> RDD:
        """Factors live as plain HDFS files in BIGtensor — contiguous
        slices of rows, no co-partitioning, so every join re-shuffles
        the factor side."""
        index = np.arange(factor.shape[0])
        return self.ctx.parallelize_blocks(partition_rows(
            KeyedRowBlock(index, factor),
            slice_partitions(factor.shape[0], self.num_partitions),
            self.num_partitions))

    def _setup(self, tensor_rdd: RDD, tensor: COOTensor,
               factor_rdds: list[RDD], rank: int) -> None:
        if tensor.order != 3:
            raise ValueError(
                "BIGtensor's distributed CP supports 3rd-order tensors "
                f"only (got order {tensor.order}); use CSTF for higher "
                "orders — this limitation is faithful to the baseline")
        self._shape = tensor.shape

    # ------------------------------------------------------------------
    def _mttkrp(self, mode: int, tensor_rdd: RDD,
                factor_rdds: list[RDD], rank: int) -> RDD:
        assert self._shape is not None
        # materialize point: the matricization maps consume records
        tensor_rdd = tensor_rdd.materialize_records()
        shape = self._shape
        strides = column_strides(shape, mode)
        others = [m for m in range(3) if m != mode]
        # fast-varying mode has the smaller stride (paper: B joined via
        # "jo mod J", slow via "jo / J")
        fast, slow = sorted(others, key=lambda m: strides[m])
        s_fast, s_slow = int(strides[fast]), int(strides[slow])

        # the matricization joins consume the factors record by record
        # too (the same seam: it keeps a partitioner, were there one)
        slow_rows = factor_rdds[slow].materialize_records()
        fast_rows = factor_rdds[fast].materialize_records()

        # Job 1: matricized tensor joined with the slow mode's factor
        def to_matricized_slow(rec):
            idx, val = rec
            col = idx[fast] * s_fast + idx[slow] * s_slow
            return (idx[slow], (idx[mode], col, val))

        n1 = (tensor_rdd.map(to_matricized_slow)
              .set_name(f"bigtensor-X({mode})-by-slow")
              .join(slow_rows, self.num_partitions)
              .map(lambda kv: ((kv[1][0][0], kv[1][0][1]),
                               kv[1][0][2] * kv[1][1]))
              .set_name("bigtensor-N1"))

        # Job 2: bin(X) joined with the fast mode's factor — the values
        # are dropped (bin() keeps only the sparsity pattern)
        def to_bin_fast(rec):
            idx, _val = rec
            col = idx[fast] * s_fast + idx[slow] * s_slow
            return (idx[fast], (idx[mode], col))

        n2 = (tensor_rdd.map(to_bin_fast)
              .set_name(f"bigtensor-bin(X({mode}))-by-fast")
              .join(fast_rows, self.num_partitions)
              .map(lambda kv: ((kv[1][0][0], kv[1][0][1]), kv[1][1]))
              .set_name("bigtensor-N2"))

        # Job 3: combine N1 and N2 (both nnz-sized RDDs shuffle)
        combined = (n1.join(n2, self.num_partitions)
                    .map(lambda kv: (kv[0][0], kv[1][0] * kv[1][1]))
                    .set_name("bigtensor-hadamard"))

        # Job 4: sum rows per mode index
        return self.ctx.kernel.sum_rows_by_key(
            combined, self.num_partitions).set_name(f"mttkrp-{mode}")

    # ------------------------------------------------------------------
    def shuffles_per_mttkrp(self, order: int) -> int:
        """Table 4: 4 shuffle rounds (two factor joins, the N1-N2 join,
        the final reduce)."""
        return 4

    def flops_per_iteration(self, tensor: COOTensor, rank: int) -> float:
        """Table 4: ``5 nnz R`` per MTTKRP — three Hadamard scalings plus
        the final combine — times N modes."""
        return 5.0 * tensor.order * tensor.nnz * rank
