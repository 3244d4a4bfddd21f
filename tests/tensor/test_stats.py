"""Tensor structure statistics and the algorithm advisor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import uniform_sparse, zipf_sparse
from repro.tensor.coo import COOTensor
from repro.tensor.stats import (Recommendation, fiber_collapse,
                                profile_tensor, recommend_algorithm,
                                slice_gini)


class TestSliceGini:
    def test_uniform_low(self):
        t = uniform_sparse((50, 50, 50), 5000, rng=0)
        assert slice_gini(t, 0) < 0.4

    def test_skewed_high(self):
        t = zipf_sparse((500, 50, 50), 5000, (1.5, 0.0, 0.0), rng=0)
        assert slice_gini(t, 0) > 0.6
        assert slice_gini(t, 0) > slice_gini(t, 1)

    def test_single_slice_concentration(self):
        idx = np.zeros((10, 2), dtype=np.int64)
        idx[:, 1] = np.arange(10)
        t = COOTensor(idx, np.ones(10), (5, 10))
        # all nonzeros in slice 0 of mode 0 (5 slices, 4 empty)
        assert slice_gini(t, 0) == pytest.approx(0.8)
        assert slice_gini(t, 1) == pytest.approx(0.0)

    def test_empty_tensor(self):
        t = COOTensor(np.empty((0, 2), dtype=np.int64), np.empty(0),
                      (3, 3))
        assert slice_gini(t, 0) == 0.0


class TestFiberCollapse:
    def test_no_collapse_when_pairs_unique(self):
        idx = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        t = COOTensor(idx, np.ones(3), (3, 3, 3))
        assert fiber_collapse(t, 2) == 0.0

    def test_full_collapse_shape(self):
        # all nonzeros share (i, j) = (0, 0), differing in k
        idx = np.array([[0, 0, k] for k in range(10)])
        t = COOTensor(idx, np.ones(10), (1, 1, 10))
        assert fiber_collapse(t, 2) == pytest.approx(0.9)

    def test_zero_for_empty(self):
        t = COOTensor(np.empty((0, 3), dtype=np.int64), np.empty(0),
                      (2, 2, 2))
        assert fiber_collapse(t, 0) == 0.0


class TestProfile:
    def test_profile_fields(self, small_tensor):
        prof = profile_tensor(small_tensor)
        assert prof.shape == small_tensor.shape
        assert prof.nnz == small_tensor.nnz
        assert len(prof.skew) == 3
        assert len(prof.collapse) == 3
        assert 0 <= prof.max_skew <= 1
        assert all(0 <= c <= 1 for c in prof.collapse)


class TestAdvisor:
    def test_collapsing_tensor_gets_coo(self):
        t = zipf_sparse((10, 10, 5000), 4000, (0.0, 0.0, 1.5), rng=0)
        rec = recommend_algorithm(t)
        assert rec.algorithm == "cstf-coo"
        assert any("3rd-order" in r for r in rec.reasons)

    def test_fourth_order_gets_qcoo(self):
        t = uniform_sparse((200, 200, 200, 50), 3000, rng=1)
        rec = recommend_algorithm(t, cluster_nodes=8)
        assert rec.algorithm == "cstf-qcoo"
        assert any("order 4" in r for r in rec.reasons)

    def test_large_cluster_gets_qcoo(self):
        t = uniform_sparse((300, 300, 300), 3000, rng=2)
        rec = recommend_algorithm(t, cluster_nodes=32)
        assert rec.algorithm == "cstf-qcoo"

    def test_small_cluster_third_order_gets_coo(self):
        t = uniform_sparse((300, 300, 300), 3000, rng=3)
        rec = recommend_algorithm(t, cluster_nodes=4)
        assert rec.algorithm == "cstf-coo"
        assert rec.reasons

    def test_recommendation_is_frozen(self):
        rec = Recommendation("cstf-coo", ("because",))
        with pytest.raises(AttributeError):
            rec.algorithm = "other"
