"""CSTF-COO: distributed MTTKRP dataflow and full CP-ALS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CstfCOO
from repro.engine import Context
from repro.engine.blocks import iter_records
from repro.tensor import mttkrp, random_factors, uniform_sparse
from repro.analysis.complexity import measured_mttkrp_rounds

from .. import conformance as cf


def run_single_mttkrp(ctx, tensor, factors, mode, rank=None):
    """Drive one distributed MTTKRP and return the dense result."""
    rank = rank or factors[0].shape[1]
    driver = CstfCOO(ctx)
    tensor_rdd = driver._distribute_tensor(tensor)
    factor_rdds = [driver._distribute_factor(f) for f in factors]
    m_rdd = driver._mttkrp(mode, tensor_rdd, factor_rdds, rank)
    out = np.zeros((tensor.shape[mode], rank))
    for i, row in iter_records(m_rdd.collect()):
        out[i] = row
    tensor_rdd.unpersist()
    for f_rdd in factor_rdds:
        f_rdd.unpersist()
    return out


class TestDistributedMTTKRP:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_local_3d(self, ctx, small_tensor, mode, rng):
        factors = random_factors(small_tensor.shape, 2, rng)
        out = run_single_mttkrp(ctx, small_tensor, factors, mode)
        assert np.allclose(out, mttkrp(small_tensor, factors, mode))

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_local_4d(self, ctx, tensor4d, mode, rng):
        factors = random_factors(tensor4d.shape, 3, rng)
        out = run_single_mttkrp(ctx, tensor4d, factors, mode)
        assert np.allclose(out, mttkrp(tensor4d, factors, mode))

    def test_fifth_order(self, ctx, rng):
        t = uniform_sparse((4, 5, 6, 3, 4), 80, rng=11)
        factors = random_factors(t.shape, 2, rng)
        out = run_single_mttkrp(ctx, t, factors, 2)
        assert np.allclose(out, mttkrp(t, factors, 2))

    def test_shuffle_rounds_equal_order(self, small_tensor, rng):
        """Table 4: a mode-n MTTKRP is N shuffle rounds for an N-order
        tensor (N-1 joins + 1 reduce)."""
        factors = random_factors(small_tensor.shape, 2, rng)
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            run_single_mttkrp(ctx, small_tensor, factors, 0)
            assert ctx.metrics.total_shuffle_rounds() == 3

    def test_shuffle_rounds_4d(self, tensor4d, rng):
        factors = random_factors(tensor4d.shape, 2, rng)
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            run_single_mttkrp(ctx, tensor4d, factors, 1)
            assert ctx.metrics.total_shuffle_rounds() == 4

    def test_join_order_highest_mode_first(self):
        driver = CstfCOO.__new__(CstfCOO)
        assert driver.join_order(3, 0) == [2, 1]
        assert driver.join_order(3, 1) == [2, 0]
        assert driver.join_order(3, 2) == [1, 0]
        assert driver.join_order(4, 0) == [3, 2, 1]

    def test_factor_sides_do_not_shuffle(self, small_tensor, rng):
        """Co-partitioned factor matrices must not move during the
        joins: only tensor-sized record streams shuffle."""
        factors = random_factors(small_tensor.shape, 2, rng)
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            run_single_mttkrp(ctx, small_tensor, factors, 0)
            written = ctx.metrics.total_shuffle_write().records_written
            # 2 joins shuffle nnz each; reduce shuffles <= nnz (combine)
            assert written <= 3 * small_tensor.nnz
            assert written >= 2 * small_tensor.nnz


class TestFullDecomposition:
    def test_shuffle_rounds_per_iteration(self, small_tensor):
        metrics = cf.run(data=small_tensor, init=None, rank=2, iterations=2,
                         compute_fit=False).metrics
        per_mode = measured_mttkrp_rounds(metrics, 3, iterations=2)
        assert per_mode == {1: 3.0, 2: 3.0, 3: 3.0}

    def test_fit_improves(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 3, max_iterations=4,
                                     tol=0.0, seed=1)
        assert len(res.fit_history) == 4
        assert res.fit_history[-1] >= res.fit_history[0] - 1e-9

    def test_flops_analytic(self, small_tensor):
        driver = CstfCOO.__new__(CstfCOO)
        assert driver.flops_per_iteration(small_tensor, 2) == \
            9 * small_tensor.nnz * 2

    def test_shuffles_per_mttkrp_accessor(self):
        driver = CstfCOO.__new__(CstfCOO)
        assert driver.shuffles_per_mttkrp(3) == 3
        assert driver.shuffles_per_mttkrp(5) == 5
