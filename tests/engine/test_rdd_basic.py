"""Narrow RDD transformations against Python-native equivalents."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Context, HashPartitioner

from ..strategies import examples

int_lists = st.lists(st.integers(min_value=-1000, max_value=1000),
                     max_size=60)


@pytest.fixture
def data():
    return list(range(50))


def hashed_pairs(ctx, pairs):
    """``pairs`` placed by key under a hash partitioner."""
    n = ctx.default_parallelism
    return ctx.parallelize(pairs, n, HashPartitioner(n))


class TestMap:
    def test_map(self, ctx, data):
        assert ctx.parallelize(data).map(lambda x: x * 2).collect() == \
            [x * 2 for x in data]

    def test_map_loses_partitioner(self, ctx):
        rdd = hashed_pairs(ctx, [(i, i) for i in range(10)])
        assert rdd.partitioner is not None
        assert rdd.map(lambda kv: kv).partitioner is None

    def test_map_preserves_partitioning_flag(self, ctx):
        rdd = hashed_pairs(ctx, [(i, i) for i in range(10)])
        assert rdd.map(lambda kv: kv,
                       preserves_partitioning=True).partitioner is not None

    @given(int_lists)
    @settings(max_examples=examples(30), deadline=None)
    def test_map_property(self, xs):
        with Context(num_nodes=2, default_parallelism=3) as ctx:
            assert ctx.parallelize(xs).map(lambda x: x + 1).collect() == \
                [x + 1 for x in xs]


class TestMapValues:
    def test_map_values(self, ctx):
        rdd = ctx.parallelize([(1, 2), (3, 4)], 2)
        assert sorted(rdd.map_values(lambda v: v * 10).collect()) == \
            [(1, 20), (3, 40)]

    def test_preserves_partitioner(self, ctx):
        rdd = hashed_pairs(ctx, [(i, i) for i in range(10)])
        assert rdd.map_values(lambda v: v).partitioner == rdd.partitioner

    def test_flat_map_values(self, ctx):
        rdd = ctx.parallelize([(1, 2), (2, 0)], 2)
        out = sorted(rdd.flat_map_values(lambda v: range(v)).collect())
        assert out == [(1, 0), (1, 1)]


class TestMapPartitions:
    def test_whole_partition(self, ctx):
        rdd = ctx.parallelize(range(20), 4)
        out = rdd.map_partitions(lambda it: [sum(it)]).collect()
        assert len(out) == 4
        assert sum(out) == sum(range(20))


class TestPartitioning:
    def test_partition_count_default(self, ctx):
        assert ctx.parallelize(range(5)).num_partitions == \
            ctx.default_parallelism

    def test_explicit_partition_count(self, ctx):
        assert ctx.parallelize(range(5), 3).num_partitions == 3

    def test_empty_partitions_ok(self, ctx):
        assert ctx.parallelize([1], 8).collect() == [1]

    def test_parallelize_preserves_order(self, ctx):
        data = list(range(100))
        assert ctx.parallelize(data, 7).collect() == data

    def test_parallelize_pairs_partitioned_by_key(self, ctx):
        rdd = hashed_pairs(ctx, [(i, i) for i in range(20)])
        assert rdd.partitioner is not None
        # records must live in the partition their key hashes to
        part = rdd.partitioner
        by_partition = ctx._scheduler.run_job(
            rdd, lambda p, it: [(p, k) for k, _ in it], "inspect")
        for plist in by_partition:
            for p, k in plist:
                assert part.get_partition(k) == p

    def test_chained_narrow_ops(self, ctx, data):
        out = (ctx.parallelize(data)
               .map(lambda x: x + 1)
               .map_partitions(lambda it: (y for y in it if y % 2 == 0))
               .map_partitions(lambda it: (z for y in it for z in (y, -y)))
               .collect())
        expected = []
        for x in data:
            y = x + 1
            if y % 2 == 0:
                expected += [y, -y]
        assert out == expected
