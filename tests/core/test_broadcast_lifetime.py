"""Broadcast lifetime belongs to the engine.

A broadcast handed to an RDD node is destroyed by
``Context.drop_shuffle_outputs`` once no persisted RDD's lineage reads
it.  A spy counts what is live at every iteration boundary: one
MTTKRP's broadcasts per live factor (N(N-1) exact, 2N(N-1) sampled, the
same at every iteration) and none on the join dataflows, which never
walk a lineage.  A source guard keeps ``destroy()`` out of the drivers
and kernels.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.engine import Context
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
