"""Dynamic self-hosting: the reproduction's own drivers lint clean.

These are the findings-as-fixtures regression tests the subsystem
exists for — PR 4 fixed the ``_mttkrp_broadcast`` broadcast leak and
the ``CPALSDriver.decompose`` cache leak by hand; running the drivers
under a *strict* lint session turns those fixes into enforced
invariants.  Any reintroduced leak, captured handle, or unseeded RNG
in driver closures fails here before it ships.
"""

from __future__ import annotations

import pytest

from repro.analysis import MeasurementConfig
from repro.analysis.experiments import make_context, make_driver
from repro.datasets import make_dataset
from repro.engine import EngineConf
from repro.lint import LintSession


def decompose_under_lint(algorithm: str, *,
                         conf: EngineConf | None = None) -> LintSession:
    session = LintSession(strict=True)
    with session:  # strict: raises LintError on any leak or capture bug
        tensor = make_dataset("nell1", 1500, 0)
        config = MeasurementConfig(rank=2, measure_nodes=4,
                                   partitions=8, seed=0)
        ctx = make_context(algorithm, config, conf=conf)
        driver = make_driver(algorithm, ctx, config)
        result = driver.decompose(tensor, 2, max_iterations=2, seed=0)
        assert result.final_fit == pytest.approx(result.final_fit)
        ctx.stop()
    return session


@pytest.mark.parametrize("algorithm", ["cstf-coo", "cstf-qcoo"])
def test_driver_lints_clean_serial(algorithm):
    session = decompose_under_lint(algorithm)
    assert not session.report, session.report.render_text()


@pytest.mark.parametrize("algorithm", ["cstf-coo", "cstf-qcoo"])
def test_driver_lints_clean_process(algorithm):
    """Sampled MTTKRPs offload, so the strict session also audits a
    run whose map stages go to the process backend's pool, where the
    lifecycle rules include ``leaked-shm-segment``."""
    conf = EngineConf(backend="process", backend_workers=2,
                      kernel="vectorized", sampler="lev")
    session = decompose_under_lint(algorithm, conf=conf)
    assert not session.report, session.report.render_text()
