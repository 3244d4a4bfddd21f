"""CSTF-COO: MTTKRP on the raw coordinate format (Section 4.1, middle
column of Table 2).

The tensor lives as ``RDD[(idx_tuple, value)]``.  A mode-``n`` MTTKRP for
an N-order tensor runs N shuffle rounds:

* one join per non-``n`` mode — the tensor records are re-keyed by that
  mode's index and joined with the (co-partitioned, hence not shuffled)
  factor RDD, multiplying the accumulating Hadamard product by the
  retrieved row (STAGE 1 and STAGE 2 of Table 2);
* one final ``reduceByKey`` on the mode-``n`` index summing the scaled
  rows into the MTTKRP result M (STAGE 3).

Join order follows the paper (mode-1 MTTKRP joins C then B): highest
remaining mode first.
"""

from __future__ import annotations

from ..engine.rdd import RDD
from .cp_als import CPALSDriver


class CstfCOO(CPALSDriver):
    """The CSTF-COO CP-ALS algorithm.

    ``factor_strategy`` selects how fixed factor rows reach the
    nonzeros:

    * ``"join"`` (the paper's dataflow) — one shuffle-join per fixed
      mode; communication scales with nnz, memory stays partitioned;
    * ``"broadcast"`` — every fixed factor is collected and replicated
      to all nodes, and the MTTKRP becomes a single ``reduceByKey``.
      This is the "complete factor replication" design the paper's
      related work (DMS, medium-grained SPLATT) explicitly avoids: it
      wins when factors are small, and its replication traffic and
      memory grow with mode sizes and cluster size.  Kept as a measured
      ablation (``benchmarks/test_ablation_broadcast.py``).
    """

    name = "cstf-coo"
    #: the paper's dataflow; ``__init__`` overrides it per instance
    factor_strategy = "join"

    def __init__(self, ctx, num_partitions: int | None = None,
                 factor_strategy: str = "join", **kwargs):
        if factor_strategy not in ("join", "broadcast"):
            raise ValueError(
                f"factor_strategy must be 'join' or 'broadcast', "
                f"got {factor_strategy!r}")
        super().__init__(ctx, num_partitions, **kwargs)
        self.factor_strategy = factor_strategy

    def join_order(self, order: int, mode: int) -> list[int]:
        """Modes joined for a mode-``mode`` MTTKRP, in order."""
        return [m for m in range(order - 1, -1, -1) if m != mode]

    def _mttkrp(self, mode: int, tensor_rdd: RDD,
                factor_rdds: list[RDD], rank: int) -> RDD:
        if self.factor_strategy == "broadcast":
            return self._mttkrp_broadcast(mode, tensor_rdd, factor_rdds,
                                          rank)
        modes = self.join_order(len(factor_rdds), mode)
        kernel = self.ctx.kernel

        # STAGE 1: key the tensor by the first join mode;  (k, (idx, val))
        current = kernel.key_tensor_by_mode(tensor_rdd, modes[0]).set_name(
            f"coo-key-mode{modes[0]}")

        # STAGE 2: one join per fixed mode, folding the joined factor
        # row into the accumulator and re-keying by the next mode:
        # (k, ((idx, acc), row)) -> (next_key, (idx, acc * row)); the
        # last one keys by the output mode and drops the index tuple
        for join_mode, next_mode in zip(modes, modes[1:] + [mode]):
            current = kernel.coo_join(
                current, factor_rdds[join_mode], next_mode,
                last=(next_mode == mode),
                num_partitions=self.num_partitions,
            ).set_name(f"coo-acc-mode{join_mode}")

        # STAGE 3: sum rows per output index
        return kernel.sum_rows_by_key(
            current, self.num_partitions).set_name(f"mttkrp-{mode}")

    def _mttkrp_broadcast(self, mode: int, tensor_rdd: RDD,
                          factor_rdds: list[RDD], rank: int) -> RDD:
        """Replicate the fixed factors to every node and reduce locally:
        one shuffle round total, at the cost of full factor replication."""
        order = len(factor_rdds)
        # factors are replicated as dense (size, rank) ndarrays, row i
        # at index i, for the kernels' fancy-index gather; rows absent
        # from the factor RDD are never looked up (every tensor index of
        # a mode appears in that mode's MTTKRP output).  The kernel's
        # node names the broadcasts, so their lifetime is the engine's.
        broadcasts = {
            m: self.ctx.broadcast(
                self._collect_factor(factor_rdds[m], rank, mode=m))
            for m in range(order) if m != mode}

        kernel = self.ctx.kernel
        contrib = kernel.broadcast_contributions(tensor_rdd, broadcasts,
                                                 mode)
        return kernel.sum_rows_by_key(
            contrib, self.num_partitions
        ).set_name(f"mttkrp-{mode}-broadcast")

    def shuffles_per_mttkrp(self, order: int) -> int:
        """Table 4: N shuffle rounds per MTTKRP (N-1 joins + 1 reduce);
        the broadcast ablation needs only the reduce."""
        if self.factor_strategy == "broadcast":
            return 1
        return order
