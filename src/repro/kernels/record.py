"""The record-at-a-time kernel: per-record Python closures.

This is the engine's original arithmetic, unchanged — every nonzero pays
a Python dispatch for its Hadamard multiply and a per-pair lambda for
its reduce merge.  It is kept (and selectable via
``EngineConf.kernel="record"`` / ``REPRO_KERNEL=record``) as the
bit-comparison oracle for the vectorized kernel: the determinism suite
runs both and asserts ``np.array_equal`` on every factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..engine.blocks import iter_records
from ..engine.errors import EngineError
from ..engine.rdd import MapPartitionsRDD
from .base import Kernel, per_partition_rows

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.rdd import RDD


def _records(rdd: "RDD") -> "RDD":
    """A keyed-row RDD as ``(key, row)`` records, its blocks expanded
    inside this op — a ``materializeRecords`` node ahead of a shuffle
    would read as block churn to the plan auditor.  Preserves the
    partitioner, so a co-partitioned join stays narrow."""
    return rdd.map_partitions(iter_records, preserves_partitioning=True)


class RecordKernel(Kernel):
    """Per-record closures — the reference semantics.  The factor side
    holds keyed row blocks like every kernel's; each step expands them
    inside its own op and batches its output again."""

    name = "record"

    def coo_join(self, keyed: "RDD", factor_rdd: "RDD", next_mode: int,
                 last: bool, num_partitions: int) -> "RDD":
        def rekey(kv, _next=next_mode):
            (idx, acc), row = kv[1]
            return (idx[_next], (idx, acc * row))
        rekeyed = keyed.join(_records(factor_rdd),
                             num_partitions).map(rekey)
        if last:
            return rekeyed.map_values(lambda pair: pair[1])
        return rekeyed

    def broadcast_contributions(self, tensor_rdd: "RDD",
                                broadcasts: "dict[int, Broadcast]",
                                mode: int) -> "RDD":
        def contribute(rec, _mode=mode, _bc=broadcasts):
            idx, val = rec
            acc = None
            for m, bc in _bc.items():
                row = bc.value[idx[m]]
                acc = row * val if acc is None else acc * row
            return (idx[_mode], acc)
        # expanded inside the op: a materializeRecords node ahead of
        # the reduce would read as block churn to the plan auditor
        return MapPartitionsRDD(
            tensor_rdd, lambda _split, it: map(contribute, iter_records(it)),
            broadcasts=broadcasts.values()
        ).set_name("blockContributions")

    def qcoo_key_tensor(self, tensor_rdd: "RDD", rank: int) -> "RDD":
        return self.key_tensor_by_mode(tensor_rdd, 0).map_values(
            lambda rec: (rec, ()))

    def qcoo_join(self, keyed: "RDD", factor_rdd: "RDD", out_mode: int,
                  dequeue: bool, num_partitions: int) -> "RDD":
        def enqueue(kv, _out=out_mode, _oldest=int(dequeue)):
            (rec, queue), row = kv[1]
            return (rec[0][_out], (rec, queue[_oldest:] + (row,)))
        return keyed.join(_records(factor_rdd),
                          num_partitions).map(enqueue)

    def qcoo_canonical(self, queue_rdd: "RDD") -> "RDD":
        return queue_rdd.map_partitions(
            lambda it: sorted(it, key=lambda kv: kv[1][0][0]),
            preserves_partitioning=True)

    def qcoo_reduce(self, queue_rdd: "RDD") -> "RDD":
        def reduce_queue(value):
            (idx, val), queue = value
            acc = queue[0]
            for row in queue[1:]:
                acc = acc * row
            return val * acc
        return queue_rdd.map_values(reduce_queue)

    def sum_rows_by_key(self, rdd: "RDD",
                        num_partitions: int | None = None) -> "RDD":
        return per_partition_rows(
            rdd.reduce_by_key(lambda a, b: a + b, num_partitions),
            "rowBlocks",
            lambda _split, it: sorted(it, key=lambda kv: kv[0]))

    def solve_rows(self, m_rdd: "RDD", pinv_v: np.ndarray,
                   nonnegative: bool) -> "RDD":
        def solve(row):
            acc = row[0] * pinv_v[0]
            for r in range(1, row.shape[0]):
                acc = acc + row[r] * pinv_v[r]
            return np.maximum(acc, 0.0) if nonnegative else acc
        return per_partition_rows(
            m_rdd, "solveRows",
            lambda _split, it: ((k, solve(row))
                                for k, row in iter_records(it)))

    def scale_rows(self, rdd: "RDD", divisor: np.ndarray) -> "RDD":
        return per_partition_rows(
            rdd, "scaleRows",
            lambda _split, it: ((k, row / divisor)
                                for k, row in iter_records(it)))

    def row_products(self, left: "RDD", right: "RDD",
                     num_partitions: int) -> "RDD":
        def multiply(split, it):
            for key, (a, b) in it:
                if b is None:
                    raise EngineError(
                        f"rowProducts partition {split}: key {key} has "
                        f"no row on the right side; both sides must "
                        f"hold the same keys")
                yield (key, a * b)
        return per_partition_rows(
            _records(left).left_outer_join(_records(right),
                                           num_partitions),
            "rowProducts", multiply)

    def column_sums(self, rdd: "RDD", rank: int,
                    squares: bool = False) -> np.ndarray:
        def seq(acc, kv):
            return acc + (kv[1] * kv[1] if squares else kv[1])
        return _records(rdd).tree_aggregate(
            np.zeros(rank), seq, lambda a, b: a + b)

    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        def seq(acc: np.ndarray, kv: tuple) -> np.ndarray:
            row = kv[1]
            acc += np.outer(row, row)
            return acc

        canonical = factor_rdd.map_partitions(
            lambda it: sorted(iter_records(it), key=lambda kv: kv[0]),
            preserves_partitioning=True)
        return canonical.tree_aggregate(
            np.zeros((rank, rank)), seq, lambda a, b: a + b)
