"""Compare two sets of benchmark runs under the benchmark's own bounds.

    python perfbench/compare.py A.json B.json

``A.json`` is the base (the parent commit), ``B.json`` the change; each
is a file ``run.py --out`` wrote, holding one or more complete runs.
Prints one row per (workload, end-to-end metric) with both medians, the
ratio B/A and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the metric's bound.
``same``
    it does not.
``unresolved``
    the run-to-run spread of either side is wider than the bound and
    the two sides' runs interleave, so the medians decide nothing.

With one run per side the spread is taken from the samples inside the
run (iterations for ``iter_s``, repetitions for ``decompose_s`` and
``setup_s``).  Exits 1 on any ``worse`` or when B fails a higher share
of its operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> list[dict]:
    """The runs of one ``--out`` file."""
    return json.loads(Path(path).read_text())["runs"]


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    """One value per run; for a single run, the samples inside it."""
    passes = [run["workloads"][workload]["untraced"] for run in runs
              if "untraced" in run["workloads"].get(workload, {})]
    if len(passes) == 1:
        samples = passes[0].get("samples", {}).get(metric)
        if samples:
            return samples
    return [p["metrics"][metric] for p in passes]


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one row."""
    base = statistics.median(a)
    worsening = (statistics.median(b) - base) / base
    if not lower_is_better:
        worsening = -worsening
    interleaved = min(b) <= max(a) and min(a) <= max(b)
    if interleaved and max(relative_spread(a),
                           relative_spread(b)) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def failed_share(runs: list[dict]) -> float:
    """Operations failed over operations attempted, all passes."""
    passes = [p for run in runs for w in run["workloads"].values()
              for p in w.values()]
    attempted = sum(p["ops_attempted"] for p in passes)
    return sum(p["ops_failed"] for p in passes) / attempted


def main(argv: list[str]) -> int:
    """Print the comparison; 1 when B regressed."""
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    print(f"A = {argv[0]} ({len(a_runs)} runs), "
          f"B = {argv[1]} ({len(b_runs)} runs)")
    print(f"{'workload':14s} {'metric':20s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = values_of(a_runs, workload, metric["name"])
            b = values_of(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            row = verdict(a, b, metric["bound"],
                          metric["better"] == "lower")
            regressed |= row == "worse"
            base, new = statistics.median(a), statistics.median(b)
            print(f"{workload:14s} {metric['name']:20s} {base:12.6g} "
                  f"{new:12.6g} {new / base:7.3f} "
                  f"{metric['bound']:6.0%}  {row}")
    a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
    print(f"failed share: A {a_failed:.3f}, B {b_failed:.3f}")
    return 1 if regressed or b_failed > a_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
