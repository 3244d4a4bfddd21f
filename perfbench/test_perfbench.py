"""Smoke test of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench

Runs ``run.py --quick`` once (all four workloads, both passes) and
checks what it printed and saved.  Lives outside tier-1's ``testpaths``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import KIND, tree_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SERIAL = [w.name for w in WORKLOADS.values() if w.backend == "serial"]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """``(stdout, saved run)`` of one ``--quick`` run."""
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())["runs"][-1]


def names(metrics: list[dict]) -> set[str]:
    return {metric["name"] for metric in metrics}


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCH["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}


def test_every_metric_is_emitted_by_name(quick):
    stdout, run = quick
    assert set(run["workloads"]) == set(WORKLOADS)
    for workload, passes in run["workloads"].items():
        assert set(passes["untraced"]["metrics"]) == \
            names(BENCH["end_to_end"]), workload
        assert set(passes["traced"]["metrics"]) == \
            names(BENCH["per_layer"]), workload
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f" {metric['name']} " in stdout


def test_checks_pass(quick):
    _, run = quick
    for workload, passes in run["workloads"].items():
        for out in passes.values():
            assert out["ops_failed"] == 0, (workload, out["checks"])
            assert all(out["checks"].values())
            assert out["ops_attempted"] == \
                out["ran"]["reps"] + len(out["checks"])


def test_run_records_what_ran(quick):
    _, run = quick
    for workload, passes in run["workloads"].items():
        ran = passes["untraced"]["ran"]
        spec = WORKLOADS[workload]
        assert ran["kernel"] == "vectorized"
        assert ran["backend"] == spec.backend
        assert ran["sampler"] == spec.sampler
        assert ran["seed"] == 3 and ran["nnz"] > 0
        assert set(ran["threads"].values()) == {"1"}
        assert Path(ran["repro"]) == ROOT / "src" / "repro"


def test_span_tree_is_well_formed(quick):
    _, run = quick
    for workload, passes in run["workloads"].items():
        spans = passes["traced"]["spans"]
        assert tree_errors(spans) == [], workload
        kinds = {span[KIND] for span in spans}
        assert {"job", "stage", "task", "shuffle.write"} <= kinds


@pytest.mark.parametrize("workload", SERIAL)
def test_layer_seconds_account_for_the_iteration(quick, workload):
    _, run = quick
    traced = run["workloads"][workload]["traced"]
    layers = sum(traced["metrics"][name] for name in (
        "core.driver_s", "engine.scheduler.overhead_s",
        "engine.shuffle.write_s", "engine.shuffle.read_s",
        "engine.rdd.cogroup_s", "engine.rdd.task_self_s"))
    assert layers == pytest.approx(traced["traced_iter_s"], rel=0.10)
