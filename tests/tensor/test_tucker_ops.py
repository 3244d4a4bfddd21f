"""The sparse Tucker core contraction CORCONDIA measures a CP model
against."""

from __future__ import annotations

import string

import numpy as np
import pytest

from repro.tensor import sparse_tucker_core


def dense_core(dense: np.ndarray, factors) -> np.ndarray:
    """``X x_1 U_1^T ... x_N U_N^T`` as one dense ``einsum``."""
    modes = string.ascii_lowercase[:dense.ndim]
    ranks = string.ascii_uppercase[:dense.ndim]
    spec = ",".join([modes] + [m + r for m, r in zip(modes, ranks)])
    return np.einsum(f"{spec}->{ranks}", dense, *factors)


class TestSparseTuckerCore:
    def test_matches_dense_ttm_chain(self, small_tensor, rng):
        factors = [rng.random((s, 2)) for s in small_tensor.shape]
        core = sparse_tucker_core(small_tensor, factors)
        assert core.shape == (2, 2, 2)
        assert np.allclose(core, dense_core(small_tensor.to_dense(),
                                            factors))

    def test_fourth_order(self, tensor4d, rng):
        factors = [rng.random((s, 2)) for s in tensor4d.shape]
        core = sparse_tucker_core(tensor4d, factors)
        assert np.allclose(core, dense_core(tensor4d.to_dense(), factors))

    def test_chunking_equivalent(self, small_tensor, rng):
        factors = [rng.random((s, 3)) for s in small_tensor.shape]
        whole = sparse_tucker_core(small_tensor, factors)
        chunked = sparse_tucker_core(small_tensor, factors, chunk=7)
        assert np.allclose(whole, chunked)

    def test_factor_count_checked(self, small_tensor, rng):
        with pytest.raises(ValueError, match="factors"):
            sparse_tucker_core(small_tensor, [np.ones((3, 2))])
