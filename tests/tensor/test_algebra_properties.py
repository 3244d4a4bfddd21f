"""Algebraic property tests over random tensors (shared strategies)."""

from __future__ import annotations

import sys
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
from strategies import (  # noqa: E402
    coo_tensors, examples, tensors_with_factors)

from repro.tensor import COOTensor, mttkrp, unfold


class TestMTTKRPProperties:
    @given(tensors_with_factors())
    @settings(max_examples=examples(30), deadline=None)
    def test_linear_in_values(self, tf):
        """MTTKRP is linear in the tensor values."""
        tensor, factors = tf
        assume(tensor.nnz > 0)
        doubled = tensor.scale(2.0)
        for mode in range(tensor.order):
            assert np.allclose(mttkrp(doubled, factors, mode),
                               2.0 * mttkrp(tensor, factors, mode))

    @given(tensors_with_factors())
    @settings(max_examples=examples(25), deadline=None)
    def test_additive_in_tensor(self, tf):
        """MTTKRP(X + Y) = MTTKRP(X) + MTTKRP(Y)."""
        tensor, factors = tf
        assume(tensor.nnz > 1)
        half = tensor.nnz // 2
        a = COOTensor(tensor.indices[:half], tensor.values[:half],
                      tensor.shape)
        b = COOTensor(tensor.indices[half:], tensor.values[half:],
                      tensor.shape)
        for mode in range(tensor.order):
            assert np.allclose(
                mttkrp(tensor, factors, mode),
                mttkrp(a, factors, mode) + mttkrp(b, factors, mode))

    @given(tensors_with_factors())
    @settings(max_examples=examples(25), deadline=None)
    def test_factor_scaling_passes_through(self, tf):
        """Scaling one fixed factor scales the result; scaling the
        update-mode factor changes nothing."""
        tensor, factors = tf
        assume(tensor.nnz > 0)
        mode = 0
        other = 1
        scaled = [f.copy() for f in factors]
        scaled[other] = scaled[other] * 3.0
        assert np.allclose(mttkrp(tensor, scaled, mode),
                           3.0 * mttkrp(tensor, factors, mode))
        scaled_self = [f.copy() for f in factors]
        scaled_self[mode] = scaled_self[mode] * 3.0
        assert np.allclose(mttkrp(tensor, scaled_self, mode),
                           mttkrp(tensor, factors, mode))


class TestTensorAlgebraProperties:
    @given(coo_tensors())
    @settings(max_examples=examples(30), deadline=None)
    def test_dedup_idempotent(self, tensor):
        once = tensor.deduplicate()
        twice = once.deduplicate()
        assert np.array_equal(once.indices, twice.indices)
        assert np.allclose(once.values, twice.values)

    @given(coo_tensors())
    @settings(max_examples=examples(30), deadline=None)
    def test_transpose_preserves_norm_and_nnz(self, tensor):
        assume(tensor.order >= 2)
        order = tuple(reversed(range(tensor.order)))
        t = tensor.transpose(order)
        assert t.nnz == tensor.nnz
        assert t.norm() == pytest.approx(tensor.norm())

    @given(coo_tensors())
    @settings(max_examples=examples(25), deadline=None)
    def test_add_commutative(self, tensor):
        assume(tensor.nnz > 1)
        half = tensor.nnz // 2
        a = COOTensor(tensor.indices[:half], tensor.values[:half],
                      tensor.shape)
        b = COOTensor(tensor.indices[half:], tensor.values[half:],
                      tensor.shape)
        ab, ba = a.add(b), b.add(a)
        assert np.array_equal(ab.indices, ba.indices)
        assert np.allclose(ab.values, ba.values)

    @given(coo_tensors())
    @settings(max_examples=examples(25), deadline=None)
    def test_scale_distributes_over_norm(self, tensor):
        assume(tensor.nnz > 0)
        assert tensor.scale(-2.0).norm() == pytest.approx(
            2.0 * tensor.norm())

    @given(coo_tensors(min_order=2, max_order=3))
    @settings(max_examples=examples(25), deadline=None)
    def test_unfold_preserves_frobenius_norm(self, tensor):
        assume(tensor.nnz > 0)
        for mode in range(tensor.order):
            m = unfold(tensor, mode)
            assert np.sqrt((m.multiply(m)).sum()) == pytest.approx(
                tensor.norm())

    @given(coo_tensors())
    @settings(max_examples=examples(25), deadline=None)
    def test_records_roundtrip(self, tensor):
        assume(tensor.nnz > 0)
        back = COOTensor.from_records(tensor.records(), tensor.shape)
        assert np.array_equal(back.indices, tensor.indices)
        assert np.allclose(back.values, tensor.values)

    @given(coo_tensors())
    @settings(max_examples=examples(20), deadline=None)
    def test_slice_counts_sum_to_nnz(self, tensor):
        for mode in range(tensor.order):
            assert tensor.mode_slice_counts(mode).sum() == tensor.nnz
