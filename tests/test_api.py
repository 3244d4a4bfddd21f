"""High-level one-call API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.api import decompose
from repro.tensor import COOTensor, recommend_algorithm, zipf_sparse

from . import conformance as cf


class TestDecompose:
    def test_auto_runs(self, small_tensor):
        res = decompose(small_tensor, rank=2, max_iterations=3,
                        num_nodes=2)
        assert res.rank == 2
        assert res.algorithm in ("cstf-coo", "cstf-qcoo")

    def test_explicit_algorithm(self, small_tensor):
        res = decompose(small_tensor, rank=2, algorithm="cstf-qcoo",
                        max_iterations=2, num_nodes=2, tol=0.0)
        assert res.algorithm == "cstf-qcoo"

    def test_auto_picks_coo_for_collapsing(self):
        t = zipf_sparse((10, 10, 5000), 3000, (0.0, 0.0, 1.5), rng=0)
        res = decompose(t, rank=2, max_iterations=1, num_nodes=2,
                        tol=0.0, compute_fit=False)
        assert res.algorithm == "cstf-coo"

    def test_auto_only_picks_grid_drivers(self):
        """Whatever ``auto`` runs is a driver the conformance grid
        checks, on every harness case and on a tensor whose fibers
        collapse (few (i, j) pairs, many k per pair)."""
        grid = {cls for name, (_, cls, _) in cf.DRIVERS.items()
                if name in cf.GRID_DRIVERS}
        collapsing = zipf_sparse((30, 30, 3000), 4000, (0.0, 0.0, 1.2),
                                 rng=1)
        tensors = [cf.tensor(case) for case in cf.CASES] + [collapsing]
        for t in tensors:
            assert api._DRIVERS[recommend_algorithm(t).algorithm] in grid

    def test_duplicates_handled(self):
        idx = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1]])
        t = COOTensor(idx, np.ones(3), (2, 2, 2))
        res = decompose(t, rank=1, max_iterations=1, num_nodes=2,
                        tol=0.0)
        assert res.rank == 1

    def test_unknown_algorithm(self, small_tensor):
        with pytest.raises(ValueError, match="unknown algorithm"):
            decompose(small_tensor, rank=2, algorithm="splatt")

    def test_kwargs_passthrough(self, small_tensor):
        res = decompose(small_tensor, rank=2, algorithm="cstf-coo",
                        max_iterations=2, num_nodes=2, tol=0.0,
                        compute_fit=False)
        assert res.fit_history == []
