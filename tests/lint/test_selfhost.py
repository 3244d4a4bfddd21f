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


def decompose_under_lint(algorithm: str, *, lockset: bool = False,
                         conf: EngineConf | None = None) -> LintSession:
    session = LintSession(strict=True, lockset=lockset)
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
def test_driver_lints_clean_process_with_racecheck(algorithm):
    """Sampled MTTKRPs offload, so their map stages run on the process
    backend's orchestration threads under the lockset monitor."""
    conf = EngineConf(backend="process", backend_workers=2,
                      kernel="vectorized", sampler="lev")
    session = decompose_under_lint(algorithm, lockset=True, conf=conf)
    assert not session.report, session.report.render_text()
    assert session.monitor is not None
    assert session.monitor.races() == []
    assert session.monitor.pooled_runs > 0
