"""Tensor algebra: products, MTTKRP equivalences, CP model arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (COOTensor, cp_fit, cp_inner_product, cp_model_norm,
                          cp_reconstruct, hadamard, khatri_rao, kronecker,
                          mttkrp, mttkrp_via_unfolding, random_factors,
                          uniform_sparse)

from ..strategies import examples

shapes3 = st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6))


def naive_mttkrp(tensor: COOTensor, factors, mode: int) -> np.ndarray:
    rank = factors[0].shape[1]
    out = np.zeros((tensor.shape[mode], rank))
    for idx, val in tensor.records():
        row = np.full(rank, val)
        for m, f in enumerate(factors):
            if m != mode:
                row = row * f[idx[m]]
        out[idx[mode]] += row
    return out


class TestHadamard:
    def test_two(self):
        a, b = np.array([[1.0, 2]]), np.array([[3.0, 4]])
        assert np.allclose(hadamard(a, b), [[3, 8]])

    def test_many(self):
        a = np.ones((2, 2)) * 2
        assert np.allclose(hadamard(a, a, a), 8)

    def test_does_not_mutate(self):
        a = np.ones((2, 2))
        hadamard(a, np.full((2, 2), 5.0))
        assert np.allclose(a, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hadamard(np.ones((2, 2)), np.ones((3, 2)))

    def test_empty_args(self):
        with pytest.raises(ValueError):
            hadamard()


class TestKhatriRao:
    def test_shape(self):
        out = khatri_rao([np.ones((3, 2)), np.ones((4, 2))])
        assert out.shape == (12, 2)

    def test_row_ordering_b_fastest(self, rng):
        a, b = rng.random((3, 2)), rng.random((4, 2))
        kr = khatri_rao([a, b])
        for i in range(3):
            for j in range(4):
                assert np.allclose(kr[i * 4 + j], a[i] * b[j])

    def test_three_matrices_associative(self, rng):
        a, b, c = (rng.random((2, 3)) for _ in range(3))
        assert np.allclose(khatri_rao([a, b, c]),
                           khatri_rao([khatri_rao([a, b]), c]))

    def test_columns_are_kronecker(self, rng):
        a, b = rng.random((3, 2)), rng.random((4, 2))
        kr = khatri_rao([a, b])
        for r in range(2):
            assert np.allclose(kr[:, r], np.kron(a[:, r], b[:, r]))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="column"):
            khatri_rao([np.ones((2, 2)), np.ones((2, 3))])

    def test_empty(self):
        with pytest.raises(ValueError):
            khatri_rao([])


class TestKronecker:
    def test_matches_numpy(self, rng):
        a, b = rng.random((2, 3)), rng.random((3, 2))
        assert np.allclose(kronecker(a, b), np.kron(a, b))


class TestMTTKRP:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_naive(self, small_tensor, mode, rng):
        factors = random_factors(small_tensor.shape, 3, rng)
        assert np.allclose(mttkrp(small_tensor, factors, mode),
                           naive_mttkrp(small_tensor, factors, mode))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_unfolding_formulation(self, small_tensor, mode, rng):
        factors = random_factors(small_tensor.shape, 2, rng)
        assert np.allclose(
            mttkrp(small_tensor, factors, mode),
            mttkrp_via_unfolding(small_tensor, factors, mode))

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_fourth_order(self, tensor4d, mode, rng):
        factors = random_factors(tensor4d.shape, 2, rng)
        assert np.allclose(mttkrp(tensor4d, factors, mode),
                           naive_mttkrp(tensor4d, factors, mode))

    def test_validations(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, 2, rng)
        with pytest.raises(ValueError, match="mode"):
            mttkrp(small_tensor, factors, 5)
        with pytest.raises(ValueError, match="factors"):
            mttkrp(small_tensor, factors[:2], 0)
        bad = [np.ones((99, 2))] + [f for f in factors[1:]]
        with pytest.raises(ValueError, match="rows"):
            mttkrp(small_tensor, bad, 1)

    def test_rank_one(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, 1, rng)
        out = mttkrp(small_tensor, factors, 0)
        assert out.shape == (small_tensor.shape[0], 1)

    @given(shapes3, st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=examples(25), deadline=None)
    def test_property_vs_dense(self, shape, rank, mode):
        rng = np.random.default_rng(0)
        t = uniform_sparse(shape, 10, rng=1)
        factors = random_factors(t.shape, rank, rng)
        # dense reference: X(n) @ KR
        from repro.tensor import unfold
        others = [factors[m] for m in range(2, -1, -1) if m != mode]
        ref = unfold(t, mode).toarray() @ khatri_rao(others)
        assert np.allclose(mttkrp(t, factors, mode), ref)


class TestCPModel:
    def test_reconstruct_rank1(self):
        lam = np.array([2.0])
        factors = [np.array([[1.0], [0.0]]), np.array([[3.0]]),
                   np.array([[1.0], [1.0]])]
        dense = cp_reconstruct(lam, factors)
        assert dense.shape == (2, 1, 2)
        assert dense[0, 0, 0] == pytest.approx(6.0)
        assert dense[1, 0, 0] == pytest.approx(0.0)

    def test_model_norm_matches_dense(self, rng):
        factors = random_factors((4, 5, 6), 3, rng)
        lam = rng.random(3)
        dense = cp_reconstruct(lam, factors)
        assert cp_model_norm(lam, factors) == \
            pytest.approx(np.linalg.norm(dense))

    def test_inner_product_matches_dense(self, small_tensor, rng):
        factors = random_factors(small_tensor.shape, 2, rng)
        lam = rng.random(2)
        dense_x = small_tensor.to_dense()
        dense_m = cp_reconstruct(lam, factors)
        assert cp_inner_product(small_tensor, lam, factors) == \
            pytest.approx(float((dense_x * dense_m).sum()))

    def test_fit_of_exact_model_is_one(self, rng):
        factors = random_factors((5, 6, 7), 2, rng)
        lam = np.array([2.0, 0.7])
        t = COOTensor.from_dense(cp_reconstruct(lam, factors))
        assert cp_fit(t, lam, factors) == pytest.approx(1.0, abs=1e-6)

    def test_fit_matches_dense_residual(self, rng):
        factors = random_factors((5, 6, 7), 2, rng)
        lam = np.ones(2)
        dense = cp_reconstruct(lam, factors)
        t = COOTensor.from_dense(dense)
        perturbed = [f + 0.1 for f in factors]
        ref = 1 - np.linalg.norm(
            dense - cp_reconstruct(lam, perturbed)) / np.linalg.norm(dense)
        assert cp_fit(t, lam, perturbed) == pytest.approx(ref, abs=1e-6)

    def test_fit_of_zero_tensor(self):
        t = COOTensor(np.empty((0, 3), dtype=np.int64), np.empty(0),
                      (2, 2, 2))
        lam = np.zeros(1)
        factors = [np.zeros((2, 1))] * 3
        assert cp_fit(t, lam, factors) == 1.0
