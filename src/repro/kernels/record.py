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
from .base import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.rdd import RDD


class RecordKernel(Kernel):
    """Per-record closures — the reference semantics."""

    name = "record"

    def coo_join(self, keyed: "RDD", factor_rdd: "RDD", next_mode: int,
                 last: bool, num_partitions: int) -> "RDD":
        def rekey(kv, _next=next_mode):
            (idx, acc), row = kv[1]
            return (idx[_next], (idx, acc * row))
        rekeyed = keyed.join(factor_rdd, num_partitions).map(rekey)
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
        return tensor_rdd.map_partitions(
            lambda it: map(contribute, iter_records(it)))

    def qcoo_key_tensor(self, tensor_rdd: "RDD", rank: int) -> "RDD":
        return self.key_tensor_by_mode(tensor_rdd, 0).map_values(
            lambda rec: (rec, ()))

    def qcoo_join(self, keyed: "RDD", factor_rdd: "RDD", out_mode: int,
                  dequeue: bool, num_partitions: int) -> "RDD":
        def enqueue(kv, _out=out_mode, _oldest=int(dequeue)):
            (rec, queue), row = kv[1]
            return (rec[0][_out], (rec, queue[_oldest:] + (row,)))
        return keyed.join(factor_rdd, num_partitions).map(enqueue)

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
        return rdd.reduce_by_key(lambda a, b: a + b, num_partitions)

    def gram(self, factor_rdd: "RDD", rank: int) -> np.ndarray:
        def seq(acc: np.ndarray, kv: tuple) -> np.ndarray:
            row = kv[1]
            acc += np.outer(row, row)
            return acc

        canonical = factor_rdd.map_partitions(
            lambda it: sorted(it, key=lambda kv: kv[0]),
            preserves_partitioning=True)
        return canonical.tree_aggregate(
            np.zeros((rank, rank)), seq, lambda a, b: a + b)
