"""Persistence of decomposition results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import local_cp_als
from repro.core import CPDecomposition


class TestCPSaveLoad:
    def test_roundtrip(self, tmp_path, small_tensor):
        model = local_cp_als(small_tensor, 2, max_iterations=3, tol=0.0)
        path = tmp_path / "cp.npz"
        model.save(path)
        loaded = CPDecomposition.load(path)
        assert np.allclose(loaded.lambdas, model.lambdas)
        for a, b in zip(loaded.factors, model.factors):
            assert np.allclose(a, b)
        assert loaded.fit_history == pytest.approx(model.fit_history)
        assert loaded.algorithm == "local-als"
        assert loaded.converged == model.converged

    def test_loaded_model_evaluates_fit(self, tmp_path, small_tensor):
        model = local_cp_als(small_tensor, 2, max_iterations=2, tol=0.0)
        path = tmp_path / "cp.npz"
        model.save(path)
        loaded = CPDecomposition.load(path)
        assert loaded.fit(small_tensor) == pytest.approx(
            model.fit(small_tensor))

    def test_empty_fit_history(self, tmp_path, small_tensor):
        model = local_cp_als(small_tensor, 2, max_iterations=1, tol=0.0,
                             compute_fit=False)
        path = tmp_path / "cp.npz"
        model.save(path)
        assert CPDecomposition.load(path).fit_history == []

