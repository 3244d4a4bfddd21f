"""The measured process: one workload, one pass, then exit.

Started by ``run.py`` with a scrubbed environment.  Generates the
workload's inputs from the seed, runs the repetitions, checks the
outputs against the numpy floor and prints one JSON object (the last
line of stdout) for ``run.py`` to collect.

A repetition is *new ``Context`` → driver → ``decompose`` → ``stop()``*
for a fixed ``1 + k`` iterations; iteration 0 is warm-up for ``iter_s``
but counts toward ``decompose_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import repro
from repro.baselines import local_cp_als
from repro.tensor import random_factors

from probes import run_probes
from spans import Tracer, summarize
from workloads import WORKLOADS

#: fewest repetitions of an untraced pass (the cross-repetition hash
#: check needs two)
MIN_REPS = 2

#: timed iterations of the traced pass
TRACED_K = 2

#: fit the sampled model may lose against the floor model (check d)
MAX_FIT_GAP = 0.02


def run_repetition(workload, tensor, init, iterations: int, seed: int,
                   tracer: Tracer | None = None) -> dict:
    """One repetition; everything between the two clock reads is the
    program's."""
    start = time.perf_counter()
    ctx = workload.make_context()
    try:
        if tracer is not None:
            ctx.event_bus.subscribe(tracer)
        driver = workload.make_driver(ctx)
        result = driver.decompose(
            tensor, workload.rank, max_iterations=iterations, tol=0.0,
            seed=seed, initial_factors=init, compute_fit=True)
    finally:
        ctx.stop()
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    for factor in result.factors:
        digest.update(np.ascontiguousarray(factor).tobytes())
    digest.update(result.lambdas.tobytes())
    return {
        "decompose_s": wall,
        "iteration_s": [it.seconds for it in result.iterations],
        "shuffle_bytes": [it.shuffle_bytes for it in result.iterations],
        "shuffle_rounds": result.iterations[-1].shuffle_rounds,
        "expected_rounds": workload.expected_shuffle_rounds(
            driver, tensor.order, iterations),
        "sha256": digest.hexdigest(),
        "result": result,
        "ran": {"kernel": ctx.kernel.name, "backend": ctx.backend.name,
                "backend_workers": ctx.backend.num_workers,
                "driver": driver.name, "sampler": driver.sampler},
    }


def run_floor(workload, tensor, init, iterations: int,
              min_seconds: float = 0.0):
    """``local_cp_als`` from the same initial factors.  Returns the
    first run (the reference the checks compare against) and, when
    ``min_seconds`` asks for the floor to be timed, the seconds of every
    non-first iteration from as many runs as it takes to collect three
    of them over ``min_seconds``.  An untimed reference skips the
    per-iteration fit; the checks compute the final fit themselves."""
    timed = min_seconds > 0
    reference = None
    samples: list[float] = []
    spent = 0.0
    while True:
        start = time.perf_counter()
        run = local_cp_als(tensor, workload.rank,
                           max_iterations=iterations, tol=0.0,
                           initial_factors=init,
                           compute_fit=timed)
        spent += time.perf_counter() - start
        reference = reference or run
        samples += [it.seconds for it in run.iterations[1:]]
        if not timed or (len(samples) >= 3 and spent >= min_seconds):
            break
    return reference, samples


def run_checks(workload, tensor, reps: list[dict], reference) -> dict:
    """The output checks, by name; all outside any timed region."""
    first = reps[0]["result"]
    reference_fit = reference.fit(tensor)
    checks = {
        "shuffle-rounds": all(
            rep["shuffle_rounds"] == rep["expected_rounds"]
            for rep in reps),
        "same-factor-bytes": len({rep["sha256"] for rep in reps}) == 1,
    }
    if workload.sampler == "lev":
        fit_gap = reference_fit - first.fit(tensor)
        checks["sampled-fit"] = bool(
            all(np.isfinite(f).all() for f in first.factors)
            and fit_gap <= MAX_FIT_GAP)
    else:
        fit_gap = reference_fit - first.final_fit
        checks["matches-floor"] = bool(
            abs(fit_gap) <= 1e-9
            and np.allclose(first.lambdas, reference.lambdas,
                            rtol=1e-6, atol=0.0))
    return {"checks": checks, "fit_gap": fit_gap}


def untraced_pass(workload, tensor, init, seed: int, seconds: float,
                  quick: bool) -> dict:
    """End-to-end metrics: repetitions until the next one would overrun
    ``seconds``, never fewer than ``MIN_REPS``."""
    k = 1 if quick else workload.k
    min_reps = 1 if quick else MIN_REPS
    reps: list[dict] = []
    spent = 0.0
    while len(reps) < min_reps or \
            (not quick and spent + spent / len(reps) <= seconds):
        reps.append(run_repetition(workload, tensor, init, 1 + k, seed))
        spent += reps[-1]["decompose_s"]
    # read before the floor runs: the high-water mark then covers
    # input generation and the program, not the reference's temporaries
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.backend == "process":
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reference, _ = run_floor(workload, tensor, init, 1 + k)
    checked = run_checks(workload, tensor, reps, reference)
    iter_samples = [s for rep in reps for s in rep["iteration_s"][1:]]
    setup = [rep["decompose_s"] - sum(rep["iteration_s"]) for rep in reps]
    moved = reps[0]["shuffle_bytes"]
    return {
        "reps": len(reps), "k": k, **checked,
        "ran": reps[0]["ran"],
        "metrics": {
            "iter_s": statistics.median(iter_samples),
            "decompose_s": statistics.median(
                rep["decompose_s"] for rep in reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss / 1024,
            "shuffle_mb_per_iter": (moved[-1] - moved[0]) / k / 2**20,
        },
        "samples": {
            "iter_s": iter_samples,
            "decompose_s": [rep["decompose_s"] for rep in reps],
            "setup_s": setup,
        },
    }


def traced_pass(workload, tensor, init, seed: int, quick: bool,
                make_s: float) -> dict:
    """Per-layer metrics: an untraced reference repetition, the traced
    repetition, the floor and the probes."""
    k = 1 if quick else TRACED_K
    plain = run_repetition(workload, tensor, init, 1 + k, seed)
    tracer = Tracer()
    with tracer.installed():
        traced = run_repetition(workload, tensor, init, 1 + k, seed,
                                tracer)
    reference, floor_samples = run_floor(
        workload, tensor, init, 1 + k, 0.2 if quick else 1.0)
    checked = run_checks(workload, tensor, [plain, traced], reference)

    # means on both sides, so the overhead compares like with like and
    # the layer seconds (sums over k) add up to the traced figure
    plain_iter_s = statistics.fmean(plain["iteration_s"][1:])
    traced_iter_s = statistics.fmean(traced["iteration_s"][1:])
    floor_iter_s = statistics.median(floor_samples)
    totals = summarize(tracer.spans, k)
    count, total, self_time = (totals[key] for key in
                               ("count", "total", "self"))
    jobs_s = total.get("job", 0.0)
    task_s = total.get("task", 0.0)
    # boundaries[i] is the state at the end of iteration i, so the
    # growth from boundaries[0] to boundaries[k] belongs to 1..k
    first, last = tracer.boundaries[0], tracer.boundaries[k]

    def grown(key: str) -> float:
        return (last[key] - first[key]) / k

    def phase(label: str) -> float:
        return (last["phase_seconds"].get(label, 0.0)
                - first["phase_seconds"].get(label, 0.0)) / k

    def per_iter(table: dict, kind: str) -> float:
        return table.get(kind, 0) / k

    modes = [phase(f"MTTKRP-{m}") for m in range(1, 5)]
    read_bytes = grown("read_bytes")
    metrics = {
        "core.mttkrp_s": sum(modes),
        **{f"core.mttkrp_mode{m}_s": modes[m - 1] for m in range(1, 5)},
        "core.fit_s": phase("fit"),
        "core.first_iter_extra_s": plain["iteration_s"][0] - plain_iter_s,
        "core.driver_s": traced_iter_s - jobs_s / k,
        "core.gram.pinv_s": per_iter(total, "gram.pinv"),
        "core.gram.refresh_s": per_iter(total, "gram.refresh"),
        "engine.scheduler.jobs": per_iter(count, "job"),
        "engine.scheduler.stages": per_iter(count, "stage"),
        "engine.scheduler.tasks": per_iter(count, "task"),
        "engine.scheduler.task_s": task_s / k,
        "engine.scheduler.overhead_s":
            (jobs_s - totals["task_union"]) / k,
        "engine.backends.parallelism": task_s / totals["task_union"],
        "engine.shuffle.write_s": per_iter(total, "shuffle.write"),
        "engine.shuffle.read_s": per_iter(total, "shuffle.read"),
        "engine.shuffle.write_calls": per_iter(count, "shuffle.write"),
        "engine.shuffle.records_written": grown("records_written"),
        "engine.shuffle.bytes_per_nnz": read_bytes / tensor.nnz,
        "engine.shuffle.remote_fraction":
            grown("remote_bytes") / read_bytes,
        "engine.rdd.cogroup_s": per_iter(self_time, "rdd.cogroup"),
        "engine.rdd.task_self_s": per_iter(self_time, "task"),
        "engine.broadcast.create_s": per_iter(total, "broadcast.create"),
        "kernels.batches": grown("kernel_batches"),
        "kernels.batch_records": grown("kernel_batch_records"),
        "kernels.sampled.draws": grown("sampler_draws"),
        "kernels.sampled.fit_gap": checked["fit_gap"],
        "baselines.floor_iter_s": floor_iter_s,
        "baselines.x_floor": plain_iter_s / floor_iter_s,
        "datasets.make_s": make_s,
        "bench.trace_overhead_pct":
            100.0 * (traced_iter_s / plain_iter_s - 1.0),
        **run_probes(workload, tensor, seed),
    }
    return {"reps": 2, "k": k, **checked, "ran": plain["ran"],
            "metrics": metrics, "traced_iter_s": traced_iter_s,
            "spans": tracer.spans}


def main(argv: list[str] | None = None) -> int:
    """Run one pass of one workload and print its result as JSON."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", action="store_true",
                        help="include the traced pass's spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    tensor = workload.make_tensor(args.seed, args.quick)
    make_s = time.perf_counter() - start
    init = random_factors(tensor.shape, workload.rank, args.seed)
    try:
        if args.trace:
            out = traced_pass(workload, tensor, init, args.seed,
                              args.quick, make_s)
        else:
            out = untraced_pass(workload, tensor, init, args.seed,
                                args.seconds, args.quick)
    except Exception:
        # a repetition that raises is a failed operation: nothing
        # measured around it can be trusted, so report and stop
        traceback.print_exc()
        print("ops_failed 1 (a repetition raised); no result",
              file=sys.stderr)
        return 1

    checks = out["checks"]
    spans = out.pop("spans", None)
    out["ops_attempted"] = out["reps"] + len(checks)
    out["ops_failed"] = sum(not ok for ok in checks.values())
    out["ran"].update({
        "workload": workload.name, "seed": args.seed,
        "quick": args.quick, "rank": workload.rank,
        "nnz": tensor.nnz, "shape": list(tensor.shape),
        "reps": out.pop("reps"), "k": out.pop("k"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": os.path.dirname(repro.__file__),
        "threads": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
    })
    if args.spans and spans is not None:
        out["spans"] = spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
