"""CSTF-DT: dimension-tree MTTKRP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import local_cp_als
from repro.core import CstfDimTree
from repro.core.cstf_dimtree import build_tree
from repro.tensor import random_factors, uniform_sparse, zipf_sparse
from repro.analysis.complexity import measured_mttkrp_rounds

from .. import conformance as cf


class TestTreeStructure:
    def test_third_order_tree(self):
        root = build_tree(3)
        assert root.modes == (0, 1, 2)
        assert root.left.modes == (0, 1)
        assert root.right.modes == (2,)
        assert root.left.left.modes == (0,)
        assert root.left.right.modes == (1,)
        assert root.right.left is None

    def test_fourth_order_tree(self):
        root = build_tree(4)
        assert root.left.modes == (0, 1)
        assert root.right.modes == (2, 3)

    def test_fifth_order_tree(self):
        root = build_tree(5)
        assert root.left.modes == (0, 1, 2)
        assert root.right.modes == (3, 4)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_tree(1)


class TestAgreement:
    @pytest.mark.parametrize("order,shape,nnz", [
        (3, (12, 15, 9), 200),
        (4, (8, 10, 6, 7), 150),
        (5, (6, 5, 7, 4, 5), 120),
    ])
    def test_matches_local(self, order, shape, nnz):
        tensor = uniform_sparse(shape, nnz, rng=order)
        init = random_factors(tensor.shape, 2, order + 10)
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
        cf.assert_close(cf.run(driver="dimtree", data=tensor, init=init,
                               iterations=2), ref)

    def test_matches_coo(self, small_tensor):
        init = random_factors(small_tensor.shape, 2, 0)
        coo, dimtree = (cf.run(driver=d, data=small_tensor, init=init,
                               nodes=2, partitions=4).result
                        for d in ("coo-join", "dimtree"))
        assert np.allclose(coo.lambdas, dimtree.lambdas)


class TestReuse:
    def test_mode2_reuses_left_node(self, small_tensor):
        """The {0,1} node built for mode-1 serves mode-2 with a single
        join+reduce (2 rounds vs COO's 3)."""
        metrics = cf.run(driver="dimtree", data=small_tensor, init=None,
                         rank=2, iterations=2, compute_fit=False).metrics
        per_mode = measured_mttkrp_rounds(metrics, 3, iterations=2)
        assert per_mode[1] == 4.0  # build {0,1} (2) + {0} (2)
        assert per_mode[2] == 2.0  # reuse {0,1}: only {1}
        assert per_mode[3] == 3.0  # {2} from root: 2 joins + reduce

    def test_fiber_collapse_shrinks_records(self):
        """On a tensor with many nonzeros per (i, j) fiber, the {0,1}
        node is much smaller than nnz — DT moves fewer records than
        plain COO."""
        tensor = zipf_sparse((20, 20, 2000), 4000, (0.0, 0.0, 1.2),
                             rng=0)
        dimtree, coo = (cf.run(driver=driver, data=tensor, init=None, rank=2,
                               iterations=2, compute_fit=False)
                        .metrics.total_shuffle_write().records_written
                        for driver in ("dimtree", "coo-join"))
        assert dimtree < coo

    def test_nodes_invalidated_across_iterations(self, small_tensor):
        """The {0,1} node must be rebuilt every iteration (its excluded
        factor C changes at mode-3) — fits would diverge from the oracle
        otherwise, and rounds stay constant per iteration."""
        metrics = cf.run(driver="dimtree", data=small_tensor, init=None,
                         rank=2, compute_fit=False).metrics
        per_mode = measured_mttkrp_rounds(metrics, 3, iterations=3)
        assert per_mode[1] == 4.0  # rebuilt each iteration


class TestDriverIntegration:
    def test_registered_in_harness(self):
        from repro.analysis import DRIVERS
        assert DRIVERS["cstf-dimtree"] is CstfDimTree

    def test_teardown_clears_tree(self, ctx, small_tensor):
        driver = CstfDimTree(ctx)
        driver.decompose(small_tensor, 2, max_iterations=1, tol=0.0,
                         compute_fit=False)
        assert driver._root is None
        assert driver._leaves == {}

    def test_fit_computation_works(self, ctx, small_tensor):
        res = CstfDimTree(ctx).decompose(small_tensor, 2,
                                         max_iterations=2, tol=0.0)
        assert res.fit_history[-1] == pytest.approx(
            res.fit(small_tensor), abs=1e-8)
