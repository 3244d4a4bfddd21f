"""Wall-clock benchmark of the CP-ALS dataflows.

    python perfbench/run.py [--seed N] [--out FILE] [--quick]
    python perfbench/run.py --workload NAME --trace 0|1 [--seed N]
                            [--seconds S]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, first
untraced (end-to-end metrics) then traced (per-layer metrics).  With
``--workload`` one pass of one workload runs and the last line printed
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Each pass runs in its own fresh child process, one at a time, with
every ``REPRO_*`` variable removed and BLAS/OpenMP pinned to one
thread, so the program is configured by the explicit ``EngineConf`` of
``workloads.py`` and nothing else.  Exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: seconds a child may take before it is killed (the contract allows a
#: run 180)
CHILD_TIMEOUT_S = 170


def child_environment() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` variable, with
    native thread pools pinned to 1 and the checkout's ``src`` first on
    the import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, trace: int, args) -> dict | None:
    """One pass in a fresh process; ``None`` when it failed or hung."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    if args.out:
        command.append("--spans")
    # its own session, so a hung child's pool workers die with it
    child = subprocess.Popen(command, cwd=ROOT, env=child_environment(),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{workload}: killed after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if child.returncode != 0:
        print(f"{workload}: child exited with {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(stdout.splitlines()[-1])


def report(workload: str, declared: list[dict], out: dict) -> dict:
    """Print one pass's metrics by name with their units; returns them
    in the contract's ``{"value", "unit"}`` form.  The names measured
    must be exactly the names ``BENCHMARK.json`` declares."""
    measured = out["metrics"]
    names = [metric["name"] for metric in declared]
    if set(names) != set(measured):
        raise SystemExit(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(measured))}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = measured[name]
        metrics[name] = {"value": value, "unit": unit}
        line = f"{workload:14s} {name:36s} {value:14.6g} {unit}"
        samples = out.get("samples", {}).get(name)
        if samples:
            line += (f"   (n={len(samples)}, min {min(samples):.6g}, "
                     f"max {max(samples):.6g})")
        print(line)
    failed = [name for name, ok in out["checks"].items() if not ok]
    print(f"{workload:14s} ops_failed {out['ops_failed']} / "
          f"ops_attempted {out['ops_attempted']}"
          + (f"   FAILED: {', '.join(failed)}" if failed else ""))
    return metrics


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark; 0 only when every check of every pass held."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="how long an untraced pass keeps adding "
                             "repetitions (it never runs fewer than 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 1e4-nnz tensors, one "
                             "repetition of 1 + 1 iterations")
    parser.add_argument("--out", type=Path,
                        help="append this run (results and spans) to "
                             "a JSON file of runs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    single = args.workload is not None
    if single != (args.trace is not None):
        parser.error("--workload and --trace go together")

    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    passes = ([(args.workload, args.trace)] if single else
              [(w["name"], trace) for w in bench["workloads"]
               for trace in (0, 1)])
    run = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "seed": args.seed, "quick": args.quick, "workloads": {}}
    attempted = failed = 0
    broken = False
    metrics: dict = {}
    for workload, trace in passes:
        out = run_child(workload, trace, args)
        if out is None:
            broken = True
            continue
        metrics = report(workload, declared[trace], out)
        attempted += out["ops_attempted"]
        failed += out["ops_failed"]
        run["workloads"].setdefault(workload, {})[
            "traced" if trace else "untraced"] = out

    if args.out:
        runs = (json.loads(args.out.read_text())["runs"]
                if args.out.exists() else [])
        args.out.write_text(json.dumps({"runs": runs + [run]}))
    if broken:
        return 1
    if single:
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    else:
        print(f"total ops_failed {failed} / ops_attempted {attempted}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
