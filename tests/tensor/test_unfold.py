"""Matricization: strides, linearization, unfold/fold, bin()."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (COOTensor, bin_values, column_strides,
                          delinearize_column, fold, linearize_columns,
                          unfold, uniform_sparse)

from ..strategies import examples


class TestStrides:
    def test_mode0_of_3d(self):
        # non-0 modes are (1, 2); mode 1 varies fastest
        assert column_strides((3, 4, 5), 0).tolist() == [0, 1, 4]

    def test_mode1_of_3d(self):
        assert column_strides((3, 4, 5), 1).tolist() == [1, 0, 3]

    def test_mode2_of_3d(self):
        assert column_strides((3, 4, 5), 2).tolist() == [1, 3, 0]

    def test_4d(self):
        assert column_strides((2, 3, 4, 5), 1).tolist() == [1, 0, 2, 8]


class TestLinearize:
    def test_hand_example(self):
        # (i,j,k) = (2,1,3) in shape (3,4,5), mode 0: col = j + k*4
        t = COOTensor(np.array([[2, 1, 3]]), np.array([1.0]), (3, 4, 5))
        assert linearize_columns(t, 0).tolist() == [1 + 3 * 4]

    def test_delinearize_inverse(self):
        shape = (3, 4, 5)
        col = 1 + 3 * 4
        out = delinearize_column(col, shape, 0)
        assert out == (0, 1, 3)

    @given(st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
           st.integers(0, 2), st.data())
    @settings(max_examples=examples(40))
    def test_roundtrip_property(self, shape, mode, data):
        idx = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        t = COOTensor(np.array([idx]), np.array([1.0]), shape)
        col = int(linearize_columns(t, mode)[0])
        recovered = delinearize_column(col, shape, mode)
        for m in range(3):
            if m != mode:
                assert recovered[m] == idx[m]

    def test_columns_unique_per_fiber(self):
        """Distinct (j,k) pairs map to distinct mode-0 columns."""
        t = uniform_sparse((4, 5, 6), 60, rng=0)
        cols = linearize_columns(t, 0)
        pairs = {(j, k) for _i, j, k in map(tuple, t.indices)}
        assert len(set(
            cols[z] for z in range(t.nnz))) == len(
                {(t.indices[z, 1], t.indices[z, 2]) for z in range(t.nnz)})
        assert len(pairs) <= t.nnz


class TestUnfoldFold:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_dense_unfolding(self, small_tensor, mode):
        """Sparse unfold agrees with the Kolda dense unfolding
        (moveaxis + reshape in Fortran order)."""
        dense = small_tensor.to_dense()
        ref = np.reshape(np.moveaxis(dense, mode, 0),
                         (dense.shape[mode], -1), order="F")
        assert np.allclose(unfold(small_tensor, mode).toarray(), ref)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_fold_roundtrip(self, small_tensor, mode):
        m = unfold(small_tensor, mode)
        back = fold(m, small_tensor.shape, mode)
        assert np.allclose(back.to_dense(), small_tensor.to_dense())

    def test_unfold_shape(self, small_tensor):
        m = unfold(small_tensor, 1)
        i, j, k = small_tensor.shape
        assert m.shape == (j, i * k)

    def test_unfold_4d(self, tensor4d):
        dense = tensor4d.to_dense()
        ref = np.reshape(np.moveaxis(dense, 2, 0),
                         (dense.shape[2], -1), order="F")
        assert np.allclose(unfold(tensor4d, 2).toarray(), ref)

    def test_mode_out_of_range(self, small_tensor):
        with pytest.raises(ValueError):
            unfold(small_tensor, 3)


class TestBin:
    def test_values_become_one(self, small_tensor):
        b = bin_values(small_tensor)
        assert np.all(b.values == 1.0)
        assert b.nnz == small_tensor.nnz
        assert np.array_equal(b.indices, small_tensor.indices)

    def test_original_untouched(self, small_tensor):
        vals = small_tensor.values.copy()
        bin_values(small_tensor)
        assert np.array_equal(small_tensor.values, vals)
