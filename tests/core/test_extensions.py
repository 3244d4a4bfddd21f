"""ALS extensions: broadcast strategy, regularization, nonnegativity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import local_cp_als
from repro.core import CstfCOO
from repro.tensor import random_factors, uniform_sparse

from .. import conformance as cf


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((14, 11, 17), 250, rng=8)


@pytest.fixture(scope="module")
def init(tensor):
    return random_factors(tensor.shape, 2, 21)


class TestBroadcastStrategy:
    def test_matches_join_strategy(self, tensor, init):
        join, broadcast = (cf.run(driver=d, data=tensor, init=init)
                           for d in ("coo-join", "coo-broadcast"))
        cf.assert_close(join, broadcast)

    def test_one_round_per_mttkrp(self, tensor, init):
        metrics = cf.run(driver="coo-broadcast", data=tensor, init=init,
                         iterations=2, compute_fit=False).metrics
        # 2 iterations x 3 modes x 1 reduce round
        assert metrics.total_shuffle_rounds() == 6
        # 2 broadcasts per MTTKRP (the two fixed factors)
        assert metrics.broadcast_count == 12
        assert metrics.broadcast_bytes > 0

    def test_less_shuffle_more_broadcast_than_join(self, tensor, init):
        join, broadcast = (
            (m.total_shuffle_read().total_bytes, m.broadcast_bytes)
            for m in (cf.run(driver=d, data=tensor, init=init, iterations=2,
                             compute_fit=False).metrics
                      for d in ("coo-join", "coo-broadcast")))
        assert broadcast[0] < join[0]
        assert broadcast[1] > join[1] == 0

    def test_invalid_strategy(self, ctx):
        with pytest.raises(ValueError, match="factor_strategy"):
            CstfCOO(ctx, factor_strategy="carrier-pigeon")

    def test_shuffles_per_mttkrp_reflects_strategy(self, ctx):
        assert CstfCOO(ctx).shuffles_per_mttkrp(3) == 3
        assert CstfCOO(ctx, factor_strategy="broadcast")\
            .shuffles_per_mttkrp(3) == 1


class TestRegularization:
    def test_matches_local_reference(self, tensor, init):
        ref = local_cp_als(tensor, 2, max_iterations=3, tol=0.0,
                           initial_factors=init, regularization=0.5)
        cf.assert_close(cf.run(driver="qcoo", data=tensor, init=init,
                               driver_kwargs={"regularization": 0.5}), ref)

    def test_changes_solution(self, tensor, init):
        plain, ridge = (
            cf.run(data=tensor, init=init, iterations=2, nodes=2,
                   partitions=4, driver_kwargs={"regularization": r}).result
            for r in (0.0, 1.0))
        assert not np.allclose(plain.lambdas, ridge.lambdas)

    def test_stabilises_singular_grams(self):
        """With rank > effective tensor rank, plain ALS hits singular V;
        ridge keeps it well-posed and finite."""
        t = uniform_sparse((6, 6, 6), 20, rng=0)
        res = cf.run(data=t, init=None, rank=8, nodes=2, partitions=4,
                     driver_kwargs={"regularization": 0.1}).result
        for f in res.factors:
            assert np.all(np.isfinite(f))

    def test_validation(self, ctx):
        with pytest.raises(ValueError, match="regularization"):
            CstfCOO(ctx, regularization=-1.0)
        with pytest.raises(ValueError, match="regularization"):
            local_cp_als(uniform_sparse((3, 3, 3), 5, rng=0), 1,
                         regularization=-0.1)


class TestNonnegative:
    def test_factors_nonnegative(self, tensor, init):
        res = cf.run(driver="qcoo", data=tensor, init=init, nodes=2,
                     partitions=4, driver_kwargs={"nonnegative": True})
        for f in res.result.factors:
            assert (f >= 0).all()

    def test_matches_local_reference(self, tensor, init):
        ref = local_cp_als(tensor, 2, max_iterations=3, tol=0.0,
                           initial_factors=init, nonnegative=True)
        cf.assert_close(cf.run(data=tensor, init=init, nodes=2, partitions=4,
                               driver_kwargs={"nonnegative": True}), ref)

    def test_fit_reasonable_on_nonnegative_data(self):
        """Uniform(0,1)-valued tensors are nonnegative; projected ALS
        should fit them comparably to plain ALS."""
        t = uniform_sparse((10, 10, 10), 150, rng=4)
        plain = local_cp_als(t, 3, max_iterations=8, tol=0.0, seed=1)
        nn = local_cp_als(t, 3, max_iterations=8, tol=0.0, seed=1,
                          nonnegative=True)
        assert nn.fit_history[-1] > plain.fit_history[-1] - 0.1
