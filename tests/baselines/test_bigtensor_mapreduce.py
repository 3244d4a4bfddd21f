"""BIGtensor as MapReduce jobs: the job structure, HDFS traffic and
numerics of :class:`BigtensorCP` on a hadoop-mode context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BigtensorCP, local_cp_als
from repro.core import CstfCOO
from repro.engine import Context
from repro.tensor import COOTensor, random_factors, uniform_sparse


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((12, 15, 9), 220, rng=3)


@pytest.fixture(scope="module")
def init(tensor):
    return random_factors(tensor.shape, 2, 7)


def hadoop_context() -> Context:
    return Context(num_nodes=4, default_parallelism=8,
                   execution_mode="hadoop")


def run_bigtensor(tensor, init, **kw):
    """Decompose on a fresh hadoop-mode context; returns the result and
    the context's metrics."""
    kw = {"max_iterations": 2, "tol": 0.0, **kw}
    with hadoop_context() as ctx:
        res = BigtensorCP(ctx).decompose(tensor, 2, initial_factors=init,
                                         **kw)
        return res, ctx.metrics


class TestCorrectness:
    def test_matches_local_reference(self, tensor, init):
        ref = local_cp_als(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
        res, _ = run_bigtensor(tensor, init)
        assert len(res.fit_history) == len(ref.fit_history) == 2
        assert np.allclose(res.fit_history, ref.fit_history,
                           rtol=0, atol=1e-12)

    def test_matches_rdd_formulation(self, tensor, init):
        """The matricized workflow and CSTF-COO's coordinate dataflow
        compute the same CP-ALS."""
        res, _ = run_bigtensor(tensor, init)
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            coo = CstfCOO(ctx).decompose(tensor, 2, max_iterations=2,
                                         tol=0.0, initial_factors=init)
        assert np.allclose(res.lambdas, coo.lambdas, atol=1e-10)
        for a, b in zip(res.factors, coo.factors):
            assert np.allclose(a, b, atol=1e-10)
        assert np.allclose(res.fit_history, coo.fit_history, atol=1e-12)

    def test_third_order_only(self):
        # order 2 is refused as well as order 4, naming the order
        t2 = uniform_sparse((6, 7), 20, rng=0)
        with hadoop_context() as ctx:
            with pytest.raises(ValueError, match="order 2"):
                BigtensorCP(ctx).decompose(t2, 2, max_iterations=1)

    def test_duplicates_rejected(self):
        t = COOTensor(np.array([[0, 0, 0], [0, 0, 0]]),
                      np.array([1.0, 1.0]), (2, 2, 2))
        with hadoop_context() as ctx:
            with pytest.raises(ValueError, match="duplicate"):
                BigtensorCP(ctx).decompose(t, 1, max_iterations=1)


class TestJobStructure:
    def test_four_jobs_per_mttkrp(self, tensor, init):
        _, metrics = run_bigtensor(tensor, init, compute_fit=False)
        # 2 iterations x 3 modes x 4 jobs (Table 4's 4 shuffles)
        assert metrics.hadoop.jobs_launched == 24

    def test_hdfs_traffic_grows_per_iteration(self, tensor, init):
        _, one = run_bigtensor(tensor, init, max_iterations=1,
                               compute_fit=False)
        _, two = run_bigtensor(tensor, init, compute_fit=False)
        assert two.hadoop.hdfs_bytes_written > \
            1.5 * one.hadoop.hdfs_bytes_written

    def test_combine_job_shuffles_double_nnz(self, tensor, init):
        """Section 4.3: at the N1-N2 combine, double the nonzeros move —
        N1 and N2 each ship every nonzero, in each MTTKRP's 4 jobs."""
        _, metrics = run_bigtensor(tensor, init, max_iterations=1,
                                   compute_fit=False)
        mttkrps = [job for job in metrics.jobs if job.shuffle_rounds]
        assert [job.shuffle_rounds for job in mttkrps] == [4, 4, 4]
        for job in mttkrps:
            combine = [st.shuffle_write.records_written
                       for st in job.stages
                       if st.name.endswith(("bigtensor-N1",
                                            "bigtensor-N2"))]
            assert combine == [tensor.nnz, tensor.nnz]

    def test_convergence_flag(self, tensor, init):
        res, _ = run_bigtensor(tensor, init, max_iterations=25, tol=1e-3)
        assert res.converged
        assert len(res.fit_history) < 25
        assert abs(res.fit_history[-1] - res.fit_history[-2]) < 1e-3
