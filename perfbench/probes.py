"""Layer probes: direct timed calls into each layer's public functions.

Inputs are cut from the workload's own tensor (its first
``PROBE_NNZ`` nonzeros) at the workload's rank, so a probe sees the
index skew, record shape and row width the workload feeds that layer.
Every probe is the median of :data:`REPEATS` calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.engine import (ColumnarBlock, HashPartitioner, checksum_blob,
                          estimate_record_size)
from repro.engine.serialization import (deserialize_partition,
                                        serialize_partition)
from repro.kernels import (combine_rows_batch, sample_block,
                           segmented_left_fold)
from repro.tensor import COOTensor, mttkrp, random_factors

from workloads import NUM_PARTITIONS, PROBE_NNZ

REPEATS = 5


def median_seconds(fn, repeats: int = REPEATS) -> float:
    """Median wall time of ``fn()``; the result is consumed by the
    call itself (every probed function is eager)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stage1_records(workload, records: list, order: int, factors) -> list:
    """``(idx, val)`` records keyed into the shape the workload's first
    shuffle carries: ``(key, (idx, val))`` for COO, ``(key, ((idx, val),
    queue))`` with a queue of N-1 factor rows for QCOO."""
    if workload.driver == "qcoo":
        return [(idx[order - 1],
                 ((idx, val),
                  tuple(factors[m][idx[m]] for m in range(order - 1))))
                for idx, val in records]
    return [(idx[order - 1], (idx, val)) for idx, val in records]


def run_probes(workload, tensor: COOTensor, seed: int) -> dict:
    """Every probe metric of one workload, by metric name."""
    n = min(PROBE_NNZ, tensor.nnz)
    order = tensor.order
    rank = workload.rank
    sub = COOTensor(tensor.indices[:n], tensor.values[:n], tensor.shape)
    factors = random_factors(tensor.shape, rank, seed)
    block = sub.to_block()
    records = block.to_records()
    keyed = stage1_records(workload, records, order, factors)
    keys = block.column(order - 1)
    key_list = keys.tolist()
    rows = factors[order - 1][keys]
    row_records = list(zip(key_list, rows))
    partitioner = HashPartitioner(NUM_PARTITIONS)
    out = {}

    def per_item(name: str, fn, items: int = n, scale: float = 1e9):
        out[name] = median_seconds(fn) / items * scale

    # engine.serialization: records go one partition's worth at a
    # time, which is how the engine serializes them
    per_item("engine.serialization.estimate_ns",
             lambda: [estimate_record_size(r) for r in keyed])

    def mb_per_s(name: str, nbytes: int, fn):
        out[f"engine.serialization.{name}_mb_s"] = \
            nbytes / 2**20 / median_seconds(fn)

    for name, partition in (
            ("pickle", keyed[:max(1, n // NUM_PARTITIONS)]),
            ("block", [block])):
        blob = serialize_partition(partition)
        mb_per_s(name, len(blob),
                 lambda p=partition: deserialize_partition(
                     serialize_partition(p)))
    # blob is now the block partition's framed bytes
    mb_per_s("crc", len(blob), lambda: checksum_blob(blob))

    # engine.partitioner
    per_item("engine.partitioner.hash_ns",
             lambda: [partitioner.get_partition(k) for k in key_list])
    per_item("engine.partitioner.hash_vec_ns",
             lambda: partitioner.partition_int_keys(keys))

    # engine.blocks
    shuffled = np.random.default_rng(seed).permutation(n)
    per_item("engine.blocks.from_records_ns",
             lambda: ColumnarBlock.from_records(records, order))
    per_item("engine.blocks.to_records_ns", block.to_records)
    per_item("engine.blocks.take_ns", lambda: block.take(shuffled))

    # kernels
    per_item("kernels.segsum.fold_ns",
             lambda: segmented_left_fold(keys, rows))
    per_item("kernels.segsum.combine_ns",
             lambda: combine_rows_batch(row_records))
    draws = workload.sample_count or 1024
    weights = np.ones(n)
    for m in range(order - 1):
        weights = weights * (factors[m][block.column(m)] ** 2).sum(axis=1)
    per_item("kernels.sampled.draw_us",
             lambda: sample_block(block, weights, draws, (seed, "probe")),
             items=draws, scale=1e6)

    # tensor
    per_item("tensor.mttkrp_ns",
             lambda: [mttkrp(sub, factors, m) for m in range(order)],
             items=n * order)
    out["tensor.partition_blocks_s"] = median_seconds(
        lambda: tensor.partition_blocks("hash", NUM_PARTITIONS))

    # engine.scheduler and engine.rdd, on the workload's own backend
    ctx = workload.make_context()
    try:
        trivial = ctx.parallelize(list(range(NUM_PARTITIONS)),
                                  NUM_PARTITIONS)
        per_item("engine.scheduler.task_us", trivial.count,
                 items=NUM_PARTITIONS, scale=1e6)
        keyed_rdd = ctx.parallelize(keyed, NUM_PARTITIONS)
        factor_rdd = ctx.parallelize(
            [(i, row) for i, row in enumerate(factors[order - 1])],
            NUM_PARTITIONS, partitioner)
        per_item("engine.rdd.shuffle_us",
                 lambda: keyed_rdd.partition_by(partitioner).count(),
                 scale=1e6)
        per_item("engine.rdd.join_us",
                 lambda: keyed_rdd.join(factor_rdd,
                                        NUM_PARTITIONS).count(),
                 scale=1e6)
    finally:
        ctx.stop()
    return out
