"""Driver-level tensor partitioning strategies."""

from __future__ import annotations

import pytest

from repro.core import CstfCOO
from repro.engine import Context
from repro.engine.blocks import record_count
from repro.tensor import random_factors, uniform_sparse, zipf_sparse

from .. import conformance as cf


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((14, 11, 17), 250, rng=8)


@pytest.fixture(scope="module")
def init(tensor):
    return random_factors(tensor.shape, 2, 21)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["input", "hash", "range:0"])
    def test_all_strategies_same_result(self, tensor, init, strategy):
        res, ref = (cf.run(data=tensor, init=init, iterations=2,
                           driver_kwargs={"tensor_partitioning": part})
                    for part in (strategy, "hash"))
        cf.assert_close(res, ref, atol=1e-10)

    def test_invalid_strategy_rejected(self, ctx):
        with pytest.raises(ValueError, match="tensor_partitioning"):
            CstfCOO(ctx, tensor_partitioning="gossip")

    def test_range_mode_validated(self, ctx, tensor):
        driver = CstfCOO(ctx, tensor_partitioning="range:9")
        with pytest.raises(ValueError, match="mode"):
            driver.decompose(tensor, 2, max_iterations=1)

    def test_hash_balances_skewed_tensor(self):
        """On a Zipf-skewed tensor, hash placement spreads nonzeros
        while range placement on the skewed mode concentrates them."""
        skewed = zipf_sparse((2000, 50, 50), 4000, (1.3, 0.0, 0.0),
                             rng=0)

        def placement(strategy):
            with Context(num_nodes=4, default_parallelism=8) as ctx:
                driver = CstfCOO(ctx, tensor_partitioning=strategy)
                rdd = driver._distribute_tensor(skewed)
                # partitions may hold columnar blocks; count nonzeros,
                # not partition items
                counts = ctx._scheduler.run_job(
                    rdd, lambda _p, it: record_count(list(it)), "count")
            mean = sum(counts) / len(counts)
            return max(counts) / mean if mean else 1.0

        assert placement("hash") < 1.4
        assert placement("range:0") > 1.8
