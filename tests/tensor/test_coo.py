"""COOTensor container semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import COOTensor, uniform_sparse

from ..strategies import examples


def simple_tensor() -> COOTensor:
    idx = np.array([[0, 0, 0], [1, 2, 3], [1, 2, 3], [2, 1, 0]])
    vals = np.array([1.0, 2.0, 3.0, -1.0])
    return COOTensor(idx, vals, (3, 3, 4))


class TestConstruction:
    def test_basic_properties(self):
        t = simple_tensor()
        assert t.order == 3
        assert t.nnz == 4
        assert t.shape == (3, 3, 4)
        assert t.max_mode_size == 4

    def test_shape_inferred(self):
        t = COOTensor(np.array([[2, 5]]), np.array([1.0]))
        assert t.shape == (3, 6)

    def test_density(self):
        t = simple_tensor()
        assert t.density == pytest.approx(4 / 36)

    def test_norm(self):
        t = simple_tensor()
        assert t.norm() == pytest.approx(np.sqrt(1 + 4 + 9 + 1))

    def test_rejects_1d_indices(self):
        with pytest.raises(ValueError, match="2-D"):
            COOTensor(np.array([1, 2]), np.array([1.0, 2.0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="values"):
            COOTensor(np.array([[1, 2]]), np.array([1.0, 2.0]))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="negative"):
            COOTensor(np.array([[-1, 0]]), np.array([1.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            COOTensor(np.array([[5, 0]]), np.array([1.0]), (3, 3))

    def test_rejects_wrong_shape_arity(self):
        with pytest.raises(ValueError, match="modes"):
            COOTensor(np.array([[0, 0]]), np.array([1.0]), (3, 3, 3))

    def test_rejects_empty_without_shape(self):
        with pytest.raises(ValueError, match="empty"):
            COOTensor(np.empty((0, 3)), np.empty(0))

    def test_empty_with_shape_ok(self):
        t = COOTensor(np.empty((0, 3), dtype=np.int64), np.empty(0), (2, 2, 2))
        assert t.nnz == 0
        assert t.density == 0.0
        assert not t.has_duplicates()

    def test_dtype_coercion(self):
        t = COOTensor(np.array([[0, 0]], dtype=np.int32),
                      np.array([1], dtype=np.int64))
        assert t.indices.dtype == np.int64
        assert t.values.dtype == np.float64


class TestDeduplicate:
    def test_sums_duplicates(self):
        t = simple_tensor().deduplicate()
        assert t.nnz == 3
        dense = t.to_dense()
        assert dense[1, 2, 3] == 5.0

    def test_idempotent(self):
        t = simple_tensor().deduplicate()
        t2 = t.deduplicate()
        assert t2.nnz == t.nnz

    def test_has_duplicates(self):
        assert simple_tensor().has_duplicates()
        assert not simple_tensor().deduplicate().has_duplicates()

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [12, 2**32], ids=["int64", "fallback"])
    def test_has_duplicates_by_linear_index_or_fallback(self, order, dim):
        """The answer of the row-wise ``np.unique`` it replaces; mode
        sizes of 2**32 put ``prod(shape)`` past int64 at every order,
        which forces that expression itself."""
        rng = np.random.default_rng(order)
        shape = (dim,) * order
        idx = np.unique(rng.integers(0, 6, (60, order)), axis=0)
        rng.shuffle(idx)
        clean = COOTensor(idx, np.ones(len(idx)), shape)
        assert not clean.has_duplicates()
        # a repeat that differs from its neighbour in the last mode
        # only is not one; an exact repeat, far from its twin, is
        near = idx[:1] + (np.arange(order) == order - 1) * (dim - 6)
        for extra, expected in ((near, False), (idx[:1], True)):
            both = np.concatenate([idx, extra])
            tensor = COOTensor(both, np.ones(len(both)), shape)
            assert tensor.has_duplicates() is expected

    @pytest.mark.parametrize("nnz", [0, 1])
    def test_has_duplicates_on_degenerate_tensors(self, nnz):
        t = COOTensor(np.zeros((nnz, 3), dtype=np.int64), np.ones(nnz),
                      (4, 5, 6))
        assert t.has_duplicates() is False

    def test_preserves_shape(self):
        assert simple_tensor().deduplicate().shape == (3, 3, 4)


class TestDropZeros:
    def test_drops_exact_zeros(self):
        t = COOTensor(np.array([[0, 0], [1, 1]]),
                      np.array([0.0, 2.0]), (2, 2))
        assert t.drop_zeros().nnz == 1

    def test_tolerance(self):
        t = COOTensor(np.array([[0, 0], [1, 1]]),
                      np.array([1e-9, 2.0]), (2, 2))
        assert t.drop_zeros(1e-6).nnz == 1


class TestRecords:
    def test_records_roundtrip(self):
        t = simple_tensor()
        t2 = COOTensor.from_records(t.records(), t.shape)
        assert np.array_equal(t2.indices, t.indices)
        assert np.array_equal(t2.values, t.values)

    def test_record_format(self):
        records = list(simple_tensor().records())
        idx, val = records[0]
        assert idx == (0, 0, 0)
        assert isinstance(idx, tuple)
        assert isinstance(val, float)

    def test_from_records_empty_raises(self):
        with pytest.raises(ValueError, match="no records"):
            COOTensor.from_records([])


class TestDense:
    def test_roundtrip(self, rng):
        dense = rng.random((3, 4, 5))
        dense[dense < 0.5] = 0
        t = COOTensor.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-9, 1.0]])
        assert COOTensor.from_dense(dense, tol=1e-6).nnz == 1

    def test_to_dense_refuses_huge(self):
        t = COOTensor(np.array([[0, 0, 0]]), np.array([1.0]),
                      (10**3, 10**3, 10**3))
        with pytest.raises(MemoryError):
            t.to_dense()


class TestDiagnostics:
    def test_mode_slice_counts(self):
        t = simple_tensor()
        counts = t.mode_slice_counts(0)
        assert counts.tolist() == [1, 2, 1]

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="mode"):
            simple_tensor().mode_slice_counts(3)

    def test_permuted_same_content(self, rng):
        t = uniform_sparse((5, 6, 7), 40, rng=0)
        p = t.permuted(rng)
        assert p.nnz == t.nnz
        assert np.allclose(p.to_dense(), t.to_dense())

    def test_repr(self):
        assert "COOTensor" in repr(simple_tensor())

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=examples(25))
    def test_uniform_generator_density_invariant(self, nnz):
        t = uniform_sparse((10, 10, 10), nnz, rng=0)
        assert t.nnz <= nnz
        assert t.density == pytest.approx(t.nnz / 1000)
