"""Shared CP-ALS driver behaviour (validation, convergence, stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.tensor import COOTensor, random_factors

from .. import conformance as cf


class TestValidation:
    def test_rejects_rank_zero(self, ctx, small_tensor):
        with pytest.raises(ValueError, match="rank"):
            CstfCOO(ctx).decompose(small_tensor, 0)

    def test_rejects_zero_iterations(self, ctx, small_tensor):
        with pytest.raises(ValueError, match="max_iterations"):
            CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=0)

    def test_rejects_duplicates(self, ctx):
        t = COOTensor(np.array([[0, 0, 0], [0, 0, 0]]),
                      np.array([1.0, 2.0]), (2, 2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            CstfCOO(ctx).decompose(t, 2)

    def test_rejects_wrong_initial_factor_count(self, ctx, small_tensor):
        init = random_factors(small_tensor.shape, 2, 0)[:2]
        with pytest.raises(ValueError, match="initial factors"):
            CstfCOO(ctx).decompose(small_tensor, 2, initial_factors=init)

    def test_rejects_wrong_initial_factor_shape(self, ctx, small_tensor):
        init = random_factors(small_tensor.shape, 2, 0)
        init[1] = np.ones((3, 2))
        with pytest.raises(ValueError, match="shape"):
            CstfCOO(ctx).decompose(small_tensor, 2, initial_factors=init)


class TestZeroTensor:
    def test_fit_is_one_and_skips_the_distributed_fit(self, ctx, rng):
        """norm(X) == 0 means fit == 1.0 by definition; the guard must
        short-circuit BEFORE the fit join + tree_aggregate, so the fit
        phase runs no jobs at all."""
        idx = np.column_stack([rng.integers(0, 6, 40)
                               for _ in range(3)])
        t = COOTensor(idx, np.zeros(40), (6, 6, 6)).deduplicate()
        res = CstfCOO(ctx).decompose(t, 2, max_iterations=2, tol=0.0,
                                     seed=0)
        assert res.fit_history == [1.0, 1.0]
        assert ctx.metrics.jobs_in_phase("fit") == []


class TestConvergence:
    def test_converges_on_exact_low_rank(self, ctx):
        from repro.tensor import COOTensor, cp_reconstruct
        planted = random_factors((10, 11, 12), 2, 5)
        t = COOTensor.from_dense(cp_reconstruct(np.ones(2), planted))
        res = CstfCOO(ctx).decompose(t, 2, max_iterations=30, tol=1e-3,
                                     seed=2)
        assert res.converged
        assert len(res.fit_history) < 30
        assert res.fit_history[-1] > 0.98

    def test_runs_all_iterations_with_zero_tol(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=3,
                                     tol=0.0)
        assert not res.converged
        assert len(res.iterations) == 3

    def test_no_fit_computed_when_disabled(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=2,
                                     tol=0.0, compute_fit=False)
        assert res.fit_history == []
        assert res.final_fit is None
        assert res.iterations[0].fit is None

    def test_distributed_fit_matches_driver_side_fit(self, ctx,
                                                     small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=2,
                                     tol=0.0, seed=4)
        assert res.fit_history[-1] == pytest.approx(
            res.fit(small_tensor), abs=1e-8)


class TestResult:
    def test_result_metadata(self, ctx, small_tensor):
        res = CstfQCOO(ctx).decompose(small_tensor, 2, max_iterations=2,
                                      tol=0.0)
        assert res.algorithm == "cstf-qcoo"
        assert res.rank == 2
        assert res.order == 3
        assert res.shape == small_tensor.shape
        assert "cstf-qcoo" in repr(res)

    def test_factor_columns_unit_norm(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=2,
                                     tol=0.0)
        for f in res.factors:
            norms = np.linalg.norm(f, axis=0)
            assert np.allclose(norms[norms > 1e-9], 1.0)

    def test_lambdas_positive(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=2,
                                     tol=0.0)
        assert (res.lambdas > 0).all()

    def test_iteration_stats_recorded(self, ctx, small_tensor):
        res = CstfCOO(ctx).decompose(small_tensor, 2, max_iterations=3,
                                     tol=0.0)
        assert [s.iteration for s in res.iterations] == [0, 1, 2]
        assert all(s.seconds > 0 for s in res.iterations)
        assert res.iterations[1].shuffle_rounds > \
            res.iterations[0].shuffle_rounds // 2

    def test_empty_slice_rows_are_zero(self, ctx):
        """Mode indices with no nonzeros produce zero factor rows."""
        idx = np.array([[0, 0, 0], [2, 1, 1]])  # row 1 of mode 0 is empty
        t = COOTensor(idx, np.array([1.0, 2.0]), (3, 2, 2))
        res = CstfCOO(ctx).decompose(t, 2, max_iterations=1, tol=0.0)
        assert np.allclose(res.factors[0][1], 0.0)


class TestGramAblationFlag:
    def test_recompute_grams_same_result(self, small_tensor):
        init = random_factors(small_tensor.shape, 2, 0)
        cf.assert_bit_identical(*(
            cf.run(data=small_tensor, init=init, iterations=2, nodes=2,
                   partitions=4,
                   driver_kwargs={"recompute_grams_per_mttkrp": again})
            for again in (False, True)))

    def test_recompute_grams_costs_more_jobs(self, small_tensor):
        recomputed, kept = (
            len(cf.run(data=small_tensor, init=None, rank=2, iterations=2,
                       nodes=2, partitions=4, compute_fit=False,
                       driver_kwargs={"recompute_grams_per_mttkrp": again}
                       ).metrics.jobs) for again in (True, False))
        assert recomputed > kept


class TestPartitionCounts:
    @pytest.mark.parametrize("partitions", [1, 3, 16])
    def test_any_partition_count_correct(self, small_tensor, partitions):
        init = random_factors(small_tensor.shape, 2, 0)
        got, ref = (cf.run(data=small_tensor, init=init, iterations=2,
                           nodes=2, partitions=p).result
                    for p in (partitions, 8))
        assert np.allclose(got.lambdas, ref.lambdas)
