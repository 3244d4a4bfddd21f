"""RDD actions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Context, EngineError

from ..strategies import examples


class TestCollectCount:
    def test_collect_order(self, ctx):
        data = list(range(37))
        assert ctx.parallelize(data, 5).collect() == data

    def test_count(self, ctx):
        assert ctx.parallelize(range(37), 5).count() == 37

    def test_count_empty(self, ctx):
        assert ctx.parallelize([], 3).count() == 0

    def test_collect_as_map(self, ctx):
        assert ctx.parallelize([(1, "a"), (2, "b")], 2).collect_as_map() == \
            {1: "a", 2: "b"}


class TestTakeFirst:
    def test_take(self, ctx):
        assert ctx.parallelize(range(10), 3).take(4) == [0, 1, 2, 3]

    def test_take_more_than_size(self, ctx):
        assert ctx.parallelize([1, 2], 2).take(10) == [1, 2]

    def test_take_zero(self, ctx):
        assert ctx.parallelize([1], 1).take(0) == []


class TestReduceFold:
    def test_reduce_sum(self, ctx):
        assert ctx.parallelize(range(100), 7).reduce(lambda a, b: a + b) == \
            sum(range(100))

    def test_reduce_with_empty_partitions(self, ctx):
        assert ctx.parallelize([5], 8).reduce(lambda a, b: a + b) == 5

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(EngineError, match="empty"):
            ctx.parallelize([], 2).reduce(lambda a, b: a + b)

    def test_sum(self, ctx):
        assert ctx.parallelize(range(10), 3).sum() == 45

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    @settings(max_examples=examples(30), deadline=None)
    def test_reduce_max_property(self, xs):
        with Context(num_nodes=2, default_parallelism=3) as ctx:
            assert ctx.parallelize(xs).reduce(max) == max(xs)


class TestAggregate:
    def test_aggregate_two_ops(self, ctx):
        # (sum, count) with distinct seq/comb operators
        out = ctx.parallelize(range(10), 4).tree_aggregate(
            (0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]))
        assert out == (45, 10)

    def test_aggregate_mutable_zero_not_shared(self, ctx):
        """numpy zero accumulators must be deep-copied per partition."""
        out = ctx.parallelize([np.ones(2)] * 6, 3).tree_aggregate(
            np.zeros(2), lambda acc, v: acc + v, lambda a, b: a + b)
        assert np.allclose(out, 6)
        out2 = ctx.parallelize([np.ones(2)] * 6, 3).tree_aggregate(
            np.zeros(2), lambda acc, v: acc.__iadd__(v),
            lambda a, b: a + b)
        assert np.allclose(out2, 6)


class TestAccumulator:
    def test_accumulates_from_tasks(self, ctx):
        acc = ctx.accumulator(0, "records")
        ctx.parallelize(range(10), 4).map(lambda _x: acc.add(1)).count()
        assert acc.value == 10

    def test_reset(self, ctx):
        acc = ctx.accumulator(5)
        acc.add(3)
        acc.reset()
        assert acc.value == 5

    def test_float_accumulator(self, ctx):
        acc = ctx.accumulator(0.0)
        acc.add(1.5)
        assert acc.value == 1.5

    def test_repr(self, ctx):
        assert "flops" in repr(ctx.accumulator(0, "flops"))
