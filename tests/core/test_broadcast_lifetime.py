"""Broadcast lifetime belongs to the engine.

A broadcast handed to an RDD node is destroyed by
``Context.drop_shuffle_outputs`` once no persisted RDD's lineage reads
it.  A spy counts what is live at every iteration boundary: one
MTTKRP's broadcasts per live factor (N(N-1) exact, 2N(N-1) sampled, the
same at every iteration), none on the join dataflows — which never walk
a lineage — and none on Tucker.  A Tucker run that loses a node
mid-iteration repeats the clean run's bits, and a source guard keeps
``destroy()`` out of the drivers and kernels.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core import DistributedTucker
from repro.engine import Context, FaultPlan, NodeKillEvent
from repro.engine.rdd import RDD

from .. import conformance as cf

ITERATIONS = 5


@pytest.fixture
def boundaries(monkeypatch):
    """Live broadcasts after every ``drop_shuffle_outputs()`` and the
    number of lineage walks, for the runs of one test."""
    seen = {"live": [], "walks": 0}
    real_drop, real_walk = Context.drop_shuffle_outputs, RDD.lineage_rdds

    def drop(ctx):
        real_drop(ctx)
        seen["live"].append(len(ctx.live_broadcasts()))

    def walk(rdd):
        seen["walks"] += 1
        return real_walk(rdd)
    monkeypatch.setattr(Context, "drop_shuffle_outputs", drop)
    monkeypatch.setattr(RDD, "lineage_rdds", walk)
    return seen


@pytest.mark.parametrize("case", ["order3", "order4"])
@pytest.mark.parametrize("driver,sampler,per_mode", [
    ("coo-broadcast", "exact", 1), ("coo-join", "lev", 2),
    ("qcoo", "lev", 2)])
def test_one_mttkrps_broadcasts_per_live_factor(boundaries, case, driver,
                                                sampler, per_mode):
    cf.run(case, driver, sampler=sampler, iterations=ITERATIONS)
    n = cf.tensor(case).order
    assert boundaries["live"] == [per_mode * n * (n - 1)] * ITERATIONS


@pytest.mark.parametrize("driver", ["coo-join", "qcoo"])
def test_join_dataflows_hold_none_and_never_walk(boundaries, driver):
    cf.run(driver=driver, sampler="exact", iterations=ITERATIONS)
    assert boundaries["live"] == [0] * ITERATIONS
    assert boundaries["walks"] == 0


def tucker(plan: FaultPlan | None = None):
    with Context(num_nodes=4, default_parallelism=8,
                 fault_plan=plan) as ctx:
        res = DistributedTucker(ctx).decompose(
            cf.tensor("order3"), (2, 2, 2), max_iterations=ITERATIONS,
            tol=0.0)
        assert ctx.live_broadcasts() == []
    return res, ctx.metrics


def test_tucker_survives_a_node_lost_mid_iteration(boundaries):
    clean, _ = tucker()
    killed, metrics = tucker(FaultPlan(node_kills=(
        NodeKillEvent(node_id=2, after_tasks=80),)))
    assert metrics.faults.nodes_killed == 1
    assert metrics.faults.records_recomputed > 0
    assert killed.core.tobytes() == clean.core.tobytes()
    for a, b in zip(killed.factors, clean.factors):
        assert a.tobytes() == b.tobytes()
    assert killed.fit_history == clean.fit_history
    assert boundaries["live"] == [0] * (2 * ITERATIONS)


def test_no_driver_or_kernel_destroys_a_broadcast():
    """The lifetime rule lives in the engine: no module under
    ``repro/core`` or ``repro/kernels`` calls ``.destroy()``."""
    root = pathlib.Path(repro.__file__).parent

    def destroys(path: pathlib.Path) -> list[str]:
        return [f"{path.relative_to(root).as_posix()}:{node.lineno}"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "destroy"]
    assert destroys(root / "engine" / "context.py"), \
        "the guard no longer sees the context's destroy"
    assert [call for sub in ("core", "kernels")
            for path in sorted((root / sub).rglob("*.py"))
            for call in destroys(path)] == []
