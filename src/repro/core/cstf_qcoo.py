"""CSTF-QCOO: the queued coordinate format (Section 4.2, right column of
Table 2, Algorithm 3).

Every nonzero record carries a FIFO queue of the N-1 factor rows it will
need, ``((idx_tuple, value), (row, row, ...))``, keyed by the mode whose
factor was updated most recently.  One mode-``n`` MTTKRP is then:

* STAGE 1 — join with that freshest factor (the only shuffle of the
  tensor-sized RDD; the factor side is co-partitioned);
* STAGE 2 — enqueue the joined row, dequeue the oldest row (the stale
  row of mode ``n``, which is about to be recomputed anyway), and re-key
  by the mode-``n`` index.  This re-keyed RDD is cached: it both feeds
  the current MTTKRP and *is* the input of the next one;
* STAGE 3 — ``mapValues`` reduces the queue (Hadamard product of its
  rows, scaled by the tensor value) and a ``reduceByKey`` sums the
  partial rows into M.

2 shuffle rounds per MTTKRP regardless of tensor order, versus N for
CSTF-COO — the communication saving measured in Figure 4.  The queue is
built once per ``decompose`` by N-1 initial joins; that startup cost is
the mode-1 overhead visible in Figure 5.
"""

from __future__ import annotations

from ..engine.rdd import RDD
from ..tensor.coo import COOTensor
from .cp_als import CPALSDriver


class CstfQCOO(CPALSDriver):
    """The CSTF-QCOO CP-ALS algorithm."""

    name = "cstf-qcoo"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue_rdd: RDD | None = None
        self._old_queue: RDD | None = None
        self._expected_key_mode: int | None = None

    # ------------------------------------------------------------------
    def _setup(self, tensor_rdd: RDD, tensor: COOTensor,
               factor_rdds: list[RDD], rank: int) -> None:
        """Build the queue RDD X_Q (Table 3): joins the factors of modes
        ``0..N-2`` onto every nonzero, leaving the RDD keyed by the
        mode-``N-1`` index with queue ``(row_0, ..., row_{N-2})``."""
        if self.sampler == "lev":
            # the sampled MTTKRP (CPALSDriver._mttkrp_sampled) bypasses
            # the queue dataflow entirely; building X_Q would pay N-1
            # tensor-sized joins for state nobody reads
            return
        order = tensor.order
        kernel = self.ctx.kernel
        current = kernel.qcoo_key_tensor(tensor_rdd, rank).set_name(
            "qcoo-init-key0")
        for m in range(order - 1):
            current = kernel.qcoo_join(
                current, factor_rdds[m], m + 1, dequeue=False,
                num_partitions=self.num_partitions,
            ).set_name(f"qcoo-init-enqueue{m}")
        self._queue_rdd = kernel.qcoo_canonical(current).set_name(
            "qcoo-queue").persist(self.storage_level)
        self._expected_key_mode = order - 1

    def _teardown(self) -> None:
        self._queue_rdd = None
        self._old_queue = None
        self._expected_key_mode = None
        super()._teardown()

    # ------------------------------------------------------------------
    def _mttkrp(self, mode: int, tensor_rdd: RDD,
                factor_rdds: list[RDD], rank: int) -> RDD:
        assert self._queue_rdd is not None, "QCOO queue not initialised"
        order = len(factor_rdds)
        key_mode = (mode - 1) % order
        if key_mode != self._expected_key_mode:
            raise RuntimeError(
                f"QCOO queue is keyed by mode {self._expected_key_mode} "
                f"but a mode-{mode} MTTKRP expects mode {key_mode}; "
                f"MTTKRPs must run in cyclic mode order")

        # the previous MTTKRP's queue RDD is superseded once the current
        # one exists; it was materialized by the driver's normalisation
        # action, so dropping the predecessor is safe now
        if self._old_queue is not None:
            self._old_queue.unpersist()
            self._old_queue = None

        # STAGE 1: the single tensor-sized shuffle — join with the factor
        # updated by the previous MTTKRP (mode key_mode); STAGE 2:
        # rotate the queue (enqueue the fresh row, dequeue the stale
        # row of mode ``mode``) and re-key by the update mode
        kernel = self.ctx.kernel
        rotated = kernel.qcoo_join(
            self._queue_rdd, factor_rdds[key_mode], mode, dequeue=True,
            num_partitions=self.num_partitions).set_name("qcoo-rotate")
        next_queue = kernel.qcoo_canonical(rotated).set_name(
            "qcoo-queue").persist(self.storage_level)

        # STAGE 3: reduce each record's queue to one scaled row, then sum
        partials = kernel.qcoo_reduce(next_queue).set_name(
            "qcoo-partials")
        m_rdd = kernel.sum_rows_by_key(
            partials, self.num_partitions).set_name(f"mttkrp-{mode}")

        # the rotated RDD replaces the old queue; the old one is dropped
        # once the new one is materialized by the driver's next action
        # (Section 4.2: "remove ... by explicitly asking Spark to
        # unpersist the old RDD")
        self._old_queue = self._queue_rdd
        self._queue_rdd = next_queue
        self._expected_key_mode = mode
        return m_rdd

    def shuffles_per_mttkrp(self, order: int) -> int:
        """Table 4: 2 shuffle rounds (1 join + 1 reduce), any order."""
        return 2
