"""CSTF-QCOO: queue dataflow semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.engine.blocks import iter_records
from repro.tensor import random_factors
from repro.analysis.complexity import measured_mttkrp_rounds

from .. import conformance as cf


class TestQueueSemantics:
    def test_initial_queue_keyed_by_last_mode(self, ctx, small_tensor, rng):
        driver = CstfQCOO(ctx)
        factors = random_factors(small_tensor.shape, 2, rng)
        with ctx.release_scope():
            tensor_rdd = driver._distribute_tensor(small_tensor)
            factor_rdds = [driver._distribute_factor(f) for f in factors]
            driver._setup(tensor_rdd, small_tensor, factor_rdds, 2)
            records = list(iter_records(driver._queue_rdd.collect()))
        assert len(records) == small_tensor.nnz
        for key, ((idx, val), queue) in records:
            assert key == idx[2]                  # keyed by mode N-1
            assert len(queue) == 2                # N-1 rows
            assert np.allclose(queue[0], factors[0][idx[0]])
            assert np.allclose(queue[1], factors[1][idx[1]])

    def test_queue_rotation_after_first_mttkrp(self, ctx, small_tensor, rng):
        driver = CstfQCOO(ctx)
        factors = random_factors(small_tensor.shape, 2, rng)
        with ctx.release_scope():
            tensor_rdd = driver._distribute_tensor(small_tensor)
            factor_rdds = [driver._distribute_factor(f) for f in factors]
            driver._setup(tensor_rdd, small_tensor, factor_rdds, 2)
            driver._mttkrp(0, tensor_rdd, factor_rdds, 2).collect()
            records = list(iter_records(driver._queue_rdd.collect()))
        for key, ((idx, val), queue) in records:
            assert key == idx[0]                  # re-keyed by update mode
            assert np.allclose(queue[0], factors[1][idx[1]])  # B kept
            assert np.allclose(queue[1], factors[2][idx[2]])  # C enqueued

    def test_out_of_order_mttkrp_rejected(self, ctx, small_tensor, rng):
        driver = CstfQCOO(ctx)
        factors = random_factors(small_tensor.shape, 2, rng)
        with ctx.release_scope():
            tensor_rdd = driver._distribute_tensor(small_tensor)
            factor_rdds = [driver._distribute_factor(f) for f in factors]
            driver._setup(tensor_rdd, small_tensor, factor_rdds, 2)
            with pytest.raises(RuntimeError, match="cyclic mode order"):
                driver._mttkrp(1, tensor_rdd, factor_rdds, 2)

    def test_mttkrp_without_setup_fails(self, ctx, small_tensor, rng):
        driver = CstfQCOO(ctx)
        with pytest.raises(AssertionError):
            driver._mttkrp(0, None, [None] * 3, 2)


class TestShuffleStructure:
    def test_two_rounds_per_mttkrp_steady_state(self, small_tensor):
        """Table 4: QCOO needs 2 shuffle rounds per MTTKRP regardless of
        order; mode-1 additionally pays the one-time queue build."""
        metrics = cf.run(driver="qcoo", data=small_tensor, init=None, rank=2,
                         compute_fit=False).metrics
        per_mode = measured_mttkrp_rounds(metrics, 3, iterations=3)
        # modes 2..N: exactly 2 per iteration
        assert per_mode[2] == 2.0
        assert per_mode[3] == 2.0
        # mode 1 carries the N-1 init joins in iteration 1
        assert per_mode[1] == pytest.approx(2.0 + 2 / 3)

    def test_constant_rounds_for_4th_order(self, tensor4d):
        metrics = cf.run(driver="qcoo", data=tensor4d, init=None, rank=2,
                         iterations=2, compute_fit=False).metrics
        per_mode = measured_mttkrp_rounds(metrics, 4, iterations=2)
        for mode in (2, 3, 4):
            assert per_mode[mode] == 2.0

    def test_fewer_rounds_than_coo(self, small_tensor):
        qcoo, coo = (cf.run(driver=driver, data=small_tensor, init=None,
                            rank=2, compute_fit=False)
                     .metrics.total_shuffle_rounds()
                     for driver in ("qcoo", "coo-join"))
        assert qcoo < coo

    def test_flops_match_coo(self, small_tensor):
        q = CstfQCOO.__new__(CstfQCOO)
        c = CstfCOO.__new__(CstfCOO)
        assert q.flops_per_iteration(small_tensor, 2) == \
            c.flops_per_iteration(small_tensor, 2)

    def test_shuffles_per_mttkrp_accessor(self):
        driver = CstfQCOO.__new__(CstfQCOO)
        assert driver.shuffles_per_mttkrp(3) == 2
        assert driver.shuffles_per_mttkrp(7) == 2


class TestTeardown:
    def test_teardown_clears_state(self, ctx, small_tensor):
        driver = CstfQCOO(ctx)
        driver.decompose(small_tensor, 2, max_iterations=1, tol=0.0,
                         compute_fit=False)
        assert driver._queue_rdd is None
        assert driver._expected_key_mode is None

    def test_reusable_after_decompose(self, ctx, small_tensor):
        driver = CstfQCOO(ctx)
        r1 = driver.decompose(small_tensor, 2, max_iterations=1, tol=0.0,
                              seed=3)
        r2 = driver.decompose(small_tensor, 2, max_iterations=1, tol=0.0,
                              seed=3)
        assert np.allclose(r1.lambdas, r2.lambdas)
