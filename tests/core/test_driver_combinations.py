"""Cross-cutting driver option combinations.

Each option is tested in isolation elsewhere; these tests exercise the
combinations a real user stacks together (nvecs + ridge + nonnegative +
partitioning + variant), asserting distributed == local at every
combination.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import local_cp_als
from repro.tensor import initial_factors, uniform_sparse

from .. import conformance as cf


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((14, 12, 10), 220, rng=31)


COMBOS = [
    dict(regularization=0.2, nonnegative=True),
    dict(regularization=0.05),
    dict(nonnegative=True),
]

#: a small 2-node cluster, the geometry these stacks were written for
SMALL = {"nodes": 2, "partitions": 4, "iterations": 2}


class TestOptionStacks:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    @pytest.mark.parametrize("combo", COMBOS,
                             ids=["ridge+nn", "ridge", "nn"])
    def test_every_variant_matches_local(self, tensor, cls, combo):
        init = initial_factors(tensor, 2, "nvecs")
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init, **combo)
        res = cf.run(driver=cf.DRIVER_OF[cls], data=tensor, init=init,
                     driver_kwargs=combo, **SMALL)
        cf.assert_close(res, ref)

    def test_broadcast_strategy_with_ridge(self, tensor):
        init = initial_factors(tensor, 2, "random", seed=4)
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init, regularization=0.3)
        res = cf.run(driver="coo-broadcast", data=tensor, init=init,
                     driver_kwargs={"regularization": 0.3}, **SMALL)
        assert np.allclose(res.result.lambdas, ref.lambdas)

    def test_range_partitioning_with_qcoo(self, tensor):
        init = initial_factors(tensor, 2, "random", seed=5)
        base, ranged = (
            cf.run(driver="qcoo", data=tensor, init=init, **SMALL,
                   driver_kwargs={"tensor_partitioning": part}).result
            for part in ("hash", "range:1"))
        assert np.allclose(base.lambdas, ranged.lambdas)

    def test_nvecs_with_qcoo(self, tensor):
        res = cf.run(driver="qcoo", data=tensor, init="nvecs", rank=2,
                     **{**SMALL, "iterations": 3}).result
        assert res.fit_history[-1] >= res.fit_history[0] - 1e-9

    def test_gram_recompute_with_qcoo_and_ridge(self, tensor):
        init = initial_factors(tensor, 2, "random", seed=6)
        fast, slow = (
            cf.run(driver="qcoo", data=tensor, init=init, **SMALL,
                   driver_kwargs={"regularization": 0.1,
                                  "recompute_grams_per_mttkrp": again})
            for again in (False, True))
        cf.assert_bit_identical(fast, slow)


class TestHarnessVariants:
    def test_runtime_series_coo_and_qcoo(self):
        from repro.analysis import MeasurementConfig, runtime_series
        cfg = MeasurementConfig(target_nnz=1200, measure_nodes=4,
                                partitions=8)
        series = runtime_series("synt3d",
                                ("cstf-coo", "cstf-qcoo"), cfg,
                                node_counts=(4, 16))
        assert set(series.seconds) == {"cstf-coo", "cstf-qcoo"}
        for secs in series.seconds.values():
            assert all(s > 0 for s in secs)

    def test_breakdown_components_exposed(self):
        from repro.engine import CostModel, RunStats
        t = CostModel().estimate(
            RunStats(records_processed=1000, shuffle_total_bytes=1000,
                     shuffle_rounds=3), 8)
        assert t.components["rounds"] == 3.0
        assert t.components["remote_bytes"] == pytest.approx(875.0)
