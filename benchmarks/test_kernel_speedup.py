"""Microbenchmark — vectorized vs record MTTKRP partition kernel.

The vectorized kernel's claim is pure throughput: batching a partition's
records into contiguous arrays and replacing the per-record Hadamard
products and dict fold with one broadcasted product plus a segmented
left fold must be markedly faster while producing the same bits.  This
bench times exactly the partition-level work both kernels do for one
COO MTTKRP contribution pass — Hadamard of the two fixed-mode factor
rows scaled by the tensor value, then a per-key sum — on a synthetic
partition of ``REPRO_BENCH_KERNEL_NNZ`` nonzeros (default 1e5).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import format_table
from repro.kernels import segmented_left_fold

from _harness import report

NNZ = int(os.environ.get("REPRO_BENCH_KERNEL_NNZ", "100000"))
RANK = 16
MODE_SIZE = 2048
REPEATS = 3
MIN_SPEEDUP = 3.0


def _partition(nnz: int):
    rng = np.random.default_rng(42)
    keys = rng.integers(0, MODE_SIZE, size=nnz).astype(np.int64)
    vals = rng.standard_normal(nnz)
    rows_a = rng.standard_normal((nnz, RANK))
    rows_b = rng.standard_normal((nnz, RANK))
    return keys, vals, rows_a, rows_b


def _record_path(keys, vals, rows_a, rows_b):
    # per-record closures + dict fold, as the record kernel executes them,
    # keys in ascending order as its sum_rows_by_key emits them
    acc: dict[int, np.ndarray] = {}
    for i in range(keys.shape[0]):
        row = vals[i] * rows_a[i] * rows_b[i]
        k = int(keys[i])
        if k in acc:
            acc[k] = acc[k] + row
        else:
            acc[k] = row
    return sorted(acc.items(), key=lambda kv: kv[0])


def _vectorized_path(keys, vals, rows_a, rows_b):
    out = vals[:, None] * rows_a * rows_b
    out_keys, out_rows = segmented_left_fold(keys, out)
    return [(int(k), out_rows[i]) for i, k in enumerate(out_keys)]


def _best_of(fn, *args):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_kernel_speedup(benchmark):
    keys, vals, rows_a, rows_b = _partition(NNZ)

    def measure():
        rec_s, rec_out = _best_of(_record_path, keys, vals, rows_a, rows_b)
        vec_s, vec_out = _best_of(_vectorized_path, keys, vals, rows_a,
                                  rows_b)
        return rec_s, rec_out, vec_s, vec_out

    rec_s, rec_out, vec_s, vec_out = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    speedup = rec_s / vec_s

    report("kernel_speedup", format_table(
        ["kernel", "partition time (ms)", "speedup"],
        [["record", f"{rec_s * 1e3:.2f}", "1.00x"],
         ["vectorized", f"{vec_s * 1e3:.2f}", f"{speedup:.2f}x"]],
        title=f"MTTKRP partition kernel, nnz={NNZ}, rank={RANK}, "
              f"mode size={MODE_SIZE}"))

    # same keys in the same order, same bits in every summed row
    assert [k for k, _ in rec_out] == [k for k, _ in vec_out]
    for (_, a), (_, b) in zip(rec_out, vec_out):
        assert a.tobytes() == b.tobytes()
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernel only {speedup:.2f}x faster "
        f"(floor {MIN_SPEEDUP}x)")
