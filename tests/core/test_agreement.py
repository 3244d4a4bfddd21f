"""Cross-implementation agreement: all CP-ALS implementations compute
identical decompositions from identical starting points — the central
integration property of the reproduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import local_cp_als
from repro.tensor import congruence, random_factors, uniform_sparse

from .. import conformance as cf
from ..strategies import examples


class TestThirdOrderAgreement:
    @pytest.fixture(scope="class")
    def setup(self):
        tensor = uniform_sparse((14, 11, 17), 250, rng=8)
        init = random_factors(tensor.shape, 2, 21)
        ref = local_cp_als(tensor, 2, max_iterations=3, tol=0.0,
                           initial_factors=init)
        return tensor, init, ref

    def test_coo_matches_local(self, setup):
        tensor, init, ref = setup
        cf.assert_close(cf.run(driver="coo-join", data=tensor, init=init),
                        ref)

    def test_qcoo_matches_local(self, setup):
        tensor, init, ref = setup
        cf.assert_close(cf.run(driver="qcoo", data=tensor, init=init), ref)

    def test_bigtensor_matches_local(self, setup):
        tensor, init, ref = setup
        cf.assert_close(cf.run(driver="bigtensor", data=tensor, init=init),
                        ref)


class TestFourthOrderAgreement:
    def test_coo_and_qcoo_match_local(self, tensor4d):
        init = random_factors(tensor4d.shape, 3, 5)
        ref = local_cp_als(tensor4d, 3, max_iterations=3, tol=0.0,
                           initial_factors=init)
        for driver in ("coo-join", "qcoo"):
            cf.assert_close(cf.run(driver=driver, data=tensor4d, init=init),
                            ref)


class TestFifthOrderAgreement:
    def test_qcoo_matches_local(self):
        tensor = uniform_sparse((6, 5, 7, 4, 5), 150, rng=9)
        init = random_factors(tensor.shape, 2, 13)
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
        cf.assert_close(cf.run(driver="qcoo", data=tensor, init=init,
                               iterations=2), ref)


class TestRecovery:
    def test_all_algorithms_recover_planted_factors(self):
        """On a dense-sampled low-rank tensor, every implementation
        recovers the planted factors (congruence near 1)."""
        rng = np.random.default_rng(3)
        from repro.tensor import COOTensor, cp_reconstruct
        planted = random_factors((12, 13, 14), 2, rng)
        lam = np.ones(2)
        tensor = COOTensor.from_dense(cp_reconstruct(lam, planted))
        init = random_factors(tensor.shape, 2, 77)
        for driver in ("coo-join", "qcoo", "bigtensor"):
            res = cf.run(driver=driver, data=tensor, init=init,
                         iterations=25).result
            score = congruence(res.factors, res.lambdas, planted, lam)
            assert score > 0.99, (driver, score)
            assert res.fit_history[-1] > 0.99

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=examples(8), deadline=None)
    def test_agreement_property_random_tensors(self, seed):
        tensor = uniform_sparse((9, 8, 7), 120, rng=seed)
        init = random_factors(tensor.shape, 2, seed + 1)
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
        for driver in ("coo-join", "qcoo"):
            cf.assert_close(cf.run(driver=driver, data=tensor, init=init,
                                   iterations=2), ref)


class TestNodeCountInvariance:
    @pytest.mark.parametrize("nodes", [1, 2, 8])
    def test_cluster_size_does_not_change_math(self, small_tensor, nodes):
        init = random_factors(small_tensor.shape, 2, 0)
        ref = local_cp_als(small_tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
        res = cf.run(driver="qcoo", data=small_tensor, init=init,
                     iterations=2, nodes=nodes, partitions=2 * nodes)
        assert np.allclose(res.result.lambdas, ref.lambdas)
