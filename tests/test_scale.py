"""Moderate-scale integration: all algorithms on a 20k-nonzero tensor.

Larger than the unit fixtures by two orders of magnitude — enough to
surface quadratic blowups, lineage leaks or per-record pathologies in
the engine, while staying a few seconds of wall clock.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.baselines import BigtensorCP
from repro.engine import Context
from repro.tensor import random_factors, uniform_sparse

NNZ = 20_000


@pytest.fixture(scope="module")
def big_tensor():
    return uniform_sparse((2000, 1500, 1000), NNZ, rng=99)


@pytest.fixture(scope="module")
def big_init(big_tensor):
    return random_factors(big_tensor.shape, 2, 5)


@pytest.fixture(scope="module")
def reference(big_tensor, big_init):
    from repro.baselines import local_cp_als
    return local_cp_als(big_tensor, 2, max_iterations=1, tol=0.0,
                        initial_factors=big_init, compute_fit=False)


@pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO, BigtensorCP])
def test_algorithm_at_scale(cls, big_tensor, big_init, reference):
    mode = "hadoop" if cls is BigtensorCP else "spark"
    t0 = time.perf_counter()
    with Context(num_nodes=8, default_parallelism=32,
                 execution_mode=mode) as ctx:
        res = cls(ctx).decompose(big_tensor, 2, max_iterations=1,
                                 tol=0.0, initial_factors=big_init,
                                 compute_fit=False)
    elapsed = time.perf_counter() - t0
    assert np.allclose(res.lambdas, reference.lambdas)
    for a, b in zip(res.factors, reference.factors):
        assert np.allclose(a, b, atol=1e-7)
    # pure-Python engine budget: linear behaviour keeps this well
    # under a minute even on slow machines; quadratic blowups would not
    assert elapsed < 60, f"{cls.__name__} took {elapsed:.1f}s"


def test_memory_stays_bounded_over_iterations(big_tensor, big_init):
    """Shuffle GC + cache unpersist: engine state must not grow with
    the iteration count."""
    with Context(num_nodes=4, default_parallelism=16) as ctx:
        CstfQCOO(ctx).decompose(big_tensor, 2, max_iterations=3,
                                tol=0.0, initial_factors=big_init,
                                compute_fit=False)
        # all shuffle outputs, and the stores that hold their rows,
        # dropped at iteration boundaries
        live_shuffles = sum(
            1 for outputs in ctx._shuffle_manager._shuffles.values()
            if outputs)
        assert live_shuffles == 0
        assert not ctx._shuffle_manager._stores
        # cache holds only the tensor and the live factor/queue RDDs:
        # far less than one tensor copy per iteration
        cached_entries = len(ctx._cache._entries)
        assert cached_entries <= 16 * 6
