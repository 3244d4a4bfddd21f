"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# hypothesis effort profiles: the default keeps the suite fast; set
# REPRO_HYPOTHESIS_PROFILE=thorough for a deeper property-testing pass
settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "thorough", deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))

from repro.engine import Context, EngineConf
from repro.lint import audit_context
from repro.tensor import COOTensor, uniform_sparse


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "lint_leaks_ok: this test intentionally leaves broadcasts or "
        "persisted RDDs live at teardown (it is *about* holding "
        "handles); the shared ctx fixtures skip their lifecycle audit")


def _audit_or_fail(request, c: Context) -> None:
    """The lifecycle-auditor teardown invariant: any broadcast or
    persisted-RDD handle still live when a test finishes is a leak the
    test must either release or explicitly claim with the
    ``lint_leaks_ok`` marker.  Must run before ``stop()`` — stopping
    clears the evidence."""
    if request.node.get_closest_marker("lint_leaks_ok") is not None:
        return
    findings = audit_context(c)
    if findings:
        c.stop()
        pytest.fail(
            "test leaked engine handles (release them or mark the test "
            "lint_leaks_ok):\n" + findings.render_text(), pytrace=False)


def _default_conf() -> EngineConf | None:
    """The CI memory-pressure job sets REPRO_CACHE_CAPACITY_BYTES to run
    the whole suite with a constrained default cache; unset, contexts
    get the stock unbounded configuration."""
    cap = os.environ.get("REPRO_CACHE_CAPACITY_BYTES")
    if cap is None:
        return None
    return EngineConf(cache_capacity_bytes=int(cap))


@pytest.fixture
def ctx(request):
    """A small 4-node spark-mode context (lifecycle-audited)."""
    c = Context(num_nodes=4, default_parallelism=8, conf=_default_conf())
    yield c
    _audit_or_fail(request, c)
    c.stop()


@pytest.fixture
def hadoop_ctx(request):
    """A small 4-node hadoop-mode context (lifecycle-audited)."""
    c = Context(num_nodes=4, default_parallelism=8,
                execution_mode="hadoop")
    yield c
    _audit_or_fail(request, c)
    c.stop()


@pytest.fixture
def share_everything(monkeypatch):
    """Process-backend requests share *every* operand array through
    shared memory: at test sizes a partition's columns are far below
    ``procpool._SHARE_MIN_BYTES`` and would otherwise all ride in the
    request frame, leaving publish / attach / evict unexercised.  (The
    threshold is read on the driver only, so patching it here is
    enough.)"""
    from repro.engine import procpool
    monkeypatch.setattr(procpool, "_SHARE_MIN_BYTES", 1)


@pytest.fixture
def small_tensor() -> COOTensor:
    """A 3rd-order sparse tensor small enough to densify."""
    return uniform_sparse((12, 15, 9), 180, rng=42)


@pytest.fixture
def tensor4d() -> COOTensor:
    """A 4th-order sparse tensor."""
    return uniform_sparse((8, 10, 6, 7), 150, rng=43)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
