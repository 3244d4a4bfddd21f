"""The vectorized kernel: ndarray batches per partition.

Each partition's records are gathered into contiguous numpy arrays —
stacked factor rows, a value vector, output indices — so the MTTKRP
arithmetic runs as one broadcasted Hadamard product per join step plus a
deterministic sort-then-segmented-sum reduce, instead of one Python
dispatch per nonzero.  The result is bit-identical to the record kernel
because every elementwise product batches exactly (``vals[:, None] *
rows`` multiplies the same pairs of doubles as ``val * row`` per
record), and the segmented sum (:mod:`repro.kernels.segsum`) replays the
record path's per-key left folds and first-occurrence key order.

The CSTF-COO join runs on keyed columnar blocks end to end: keying a
tensor partition is an O(1) relabel of its block, each join step is one
``RDD.block_join`` (sort + ``searchsorted`` gather + a row-wise
Hadamard product) and the blocks are shuffled whole — no per-nonzero
tuple exists between the tensor load and the reduce output.

The per-key sum routes through ``RDD.combine_by_key``'s
``combine_batch`` fast path, so map-side combining still books memory
in (and spills through) the shuffle's ``SpillableAppendOnlyMap``.
Batch counts are recorded on the metrics collector
(``kernel_batches`` / ``kernel_batch_records``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, TYPE_CHECKING

import numpy as np

from ..engine.blocks import ColumnarBlock, KeyedRowBlock
from .base import Kernel
from .segsum import combine_rows_block, fold_rows, segmented_left_fold

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.metrics import MetricsCollector
    from ..engine.rdd import RDD


class VectorizedKernel(Kernel):
    """Batched numpy arithmetic, bit-identical to the record kernel."""

    name = "vectorized"
    wants_blocks = True

    def __init__(self, metrics: "MetricsCollector | None" = None,
                 offload=None):
        self._metrics = metrics
        # optional process-pool offload client (ProcessPoolBackend);
        # every offloaded op has a bit-identical inline fallback
        self._offload = offload

    def _count(self, records: int) -> None:
        if self._metrics is not None:
            self._metrics.add_kernel_batch(records)

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

        def batch(it: Iterable, _mode=mode, _bc=broadcasts) -> Iterator:
            records = list(it)
            if not records:
                return iter(())
            if type(records[0]) is ColumnarBlock:
                out = []
                for blk in records:
                    if len(blk) == 0:
                        continue
                    out.append(self._block_contrib(
                        blk, _bc, _mode, prereduce))
                return iter(out)
            n = len(records)
            vals = np.fromiter((rec[1] for rec in records),
                               dtype=np.float64, count=n)
            acc = None
            for m, bc in _bc.items():
                factor = bc.value
                rows = np.stack([factor[rec[0][m]] for rec in records])
                acc = rows * vals[:, None] if acc is None else acc * rows
            self._count(n)
            return iter([(rec[0][_mode], acc[i])
                         for i, rec in enumerate(records)])
        return tensor_rdd.map_partitions(batch)

    def _block_contrib(self, blk: ColumnarBlock,
                       broadcasts: "dict[int, Broadcast]", mode: int,
                       prereduce: bool) -> KeyedRowBlock:
        """One columnar partition's MTTKRP contributions.

        Requires dense ndarray broadcast factors (row ``i`` at index
        ``i``) so the gather is a fancy-index; the drivers broadcast
        dense arrays whenever the kernel ``wants_blocks``.  Offloads
        the Hadamard fold (and the pre-reduce) to the process pool
        when one is attached; the inline path computes the exact same
        product chain, so both are bit-identical.
        """
        key_col = blk.column(mode)
        fixed = [(blk.column(m), bc.value)
                 for m, bc in broadcasts.items()]
        if self._offload is not None:
            res = self._offload.contrib(
                blk.values, key_col, fixed, prereduce)
            if res is not None:
                keys, rows = res
                self._count(len(blk))
                if prereduce:
                    return KeyedRowBlock(keys, rows)
                return KeyedRowBlock(key_col, rows)
        acc = None
        for col, factor in fixed:
            rows = factor[col]
            acc = (rows * blk.values[:, None] if acc is None
                   else acc * rows)
        self._count(len(blk))
        if prereduce:
            out_keys, out_rows = segmented_left_fold(key_col, acc)
            return KeyedRowBlock(out_keys, out_rows)
        return KeyedRowBlock(key_col, acc)

    def key_tensor_by_mode(self, tensor_rdd: "RDD", mode: int) -> "RDD":
        return tensor_rdd.key_blocks(mode)

    def qcoo_reduce(self, queue_rdd: "RDD") -> "RDD":
        def batch(it: Iterable) -> Iterator:
            records = list(it)
            if not records:
                return iter(())
            n = len(records)
            vals = np.fromiter((kv[1][0][1] for kv in records),
                               dtype=np.float64, count=n)
            queue_len = len(records[0][1][1])
            acc = np.stack([kv[1][1][0] for kv in records])
            for pos in range(1, queue_len):
                acc = acc * np.stack([kv[1][1][pos] for kv in records])
            out = vals[:, None] * acc
            self._count(n)
            return iter([(kv[0], out[i])
                         for i, kv in enumerate(records)])
        # keys are untouched: keep the partitioner, like map_values
        return queue_rdd.map_partitions(batch,
                                        preserves_partitioning=True)

    def sum_rows_by_key(self, rdd: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        metrics = self._metrics

        def batch(records):
            return combine_rows_block(records, metrics)

        return rdd.combine_by_key(
            lambda v: v, lambda a, b: a + b, lambda a, b: a + b,
            num_partitions,
            map_side_combine=rdd.ctx.conf.map_side_combine,
            combine_batch=batch)

    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        def partial(_p: int, it: Iterable) -> np.ndarray:
            items = sorted(it, key=lambda kv: kv[0])
            if not items:
                return np.zeros((rank, rank))
            rows = np.stack([kv[1] for kv in items])
            outers = (rows[:, :, None] * rows[:, None, :]).reshape(
                len(items), rank * rank)
            # the record path folds into a zero matrix in place; lead
            # with an explicit zero row so even the signs of zeros match
            lead = np.concatenate(
                [np.zeros((1, rank * rank)), outers])
            self._count(len(items))
            return fold_rows(lead).reshape(rank, rank)

        import functools
        partials = factor_rdd.ctx._scheduler.run_job(
            factor_rdd, partial, f"gram {factor_rdd.name}")
        # same driver-side fold structure as aggregate(): zero-led, in
        # partition order
        return functools.reduce(lambda a, b: a + b, partials,
                                np.zeros((rank, rank)))
