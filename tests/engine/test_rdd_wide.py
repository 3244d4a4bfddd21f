"""Wide transformations: shuffles, joins, co-partitioning semantics."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Context, HashPartitioner

from ..strategies import examples

kv_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20),
              st.integers(min_value=-100, max_value=100)),
    max_size=50)


class TestReduceByKey:
    def test_sums(self, ctx):
        rdd = ctx.parallelize([(i % 5, i) for i in range(100)])
        out = rdd.reduce_by_key(lambda a, b: a + b).collect_as_map()
        expected = defaultdict(int)
        for i in range(100):
            expected[i % 5] += i
        assert out == dict(expected)

    def test_single_key(self, ctx):
        rdd = ctx.parallelize([(0, 1)] * 50)
        assert rdd.reduce_by_key(lambda a, b: a + b).collect() == [(0, 50)]

    def test_output_partitioner_set(self, ctx):
        out = ctx.parallelize([(1, 1)]).reduce_by_key(lambda a, b: a + b, 4)
        assert out.partitioner == HashPartitioner(4)

    def test_already_partitioned_no_shuffle(self, ctx):
        n = ctx.default_parallelism
        rdd = ctx.parallelize([(i, 1) for i in range(20)], n,
                              HashPartitioner(n))
        out = rdd.reduce_by_key(lambda a, b: a + b, n)
        out.collect()
        assert ctx.metrics.total_shuffle_rounds() == 0

    def test_map_side_combine_reduces_shuffled_records(self):
        data = [(i % 3, 1) for i in range(300)]
        with Context(num_nodes=2, default_parallelism=4) as on:
            on.parallelize(data).reduce_by_key(
                lambda a, b: a + b, map_side_combine=True).collect()
            combined = on.metrics.total_shuffle_write().records_written
        with Context(num_nodes=2, default_parallelism=4) as off:
            off.parallelize(data).reduce_by_key(
                lambda a, b: a + b, map_side_combine=False).collect()
            raw = off.metrics.total_shuffle_write().records_written
        assert combined <= 3 * 4 < 300 == raw

    def test_combine_off_same_result(self, ctx):
        rdd = ctx.parallelize([(i % 5, i) for i in range(60)])
        on = rdd.reduce_by_key(lambda a, b: a + b,
                               map_side_combine=True).collect_as_map()
        off = rdd.reduce_by_key(lambda a, b: a + b,
                                map_side_combine=False).collect_as_map()
        assert on == off

    @given(kv_lists)
    @settings(max_examples=examples(30), deadline=None)
    def test_matches_counter(self, pairs):
        with Context(num_nodes=2, default_parallelism=3) as ctx:
            out = ctx.parallelize(pairs).reduce_by_key(
                lambda a, b: a + b).collect_as_map()
        expected = defaultdict(int)
        for k, v in pairs:
            expected[k] += v
        assert out == dict(expected)


class TestGroupByKey:
    def test_no_map_side_combine(self, ctx):
        """Grouping values into lists gains nothing from pre-merging:
        without a map-side combine every record crosses the shuffle."""
        rdd = ctx.parallelize([(0, i) for i in range(40)], 4)
        rdd.combine_by_key(lambda v: [v], lambda acc, v: acc + [v],
                           lambda a, b: a + b,
                           map_side_combine=False).collect()
        assert ctx.metrics.total_shuffle_write().records_written == 40


class TestPartitionBy:
    def test_records_in_hashed_partition(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(i, i) for i in range(40)]).partition_by(part)
        placed = ctx._scheduler.run_job(
            rdd, lambda p, it: [(p, k) for k, _ in it], "inspect")
        for plist in placed:
            for p, k in plist:
                assert part.get_partition(k) == p

    def test_noop_when_already_partitioned(self, ctx):
        part = HashPartitioner(8)
        rdd = ctx.parallelize([(i, i) for i in range(10)], 8, part)
        assert rdd.partition_by(part) is rdd


class TestJoin:
    def test_inner_join(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        right = ctx.parallelize([(2, "x"), (3, "y"), (4, "z")], 3)
        out = sorted(left.join(right).collect())
        assert out == [(2, ("b", "x")), (3, ("c", "y"))]

    def test_join_duplicate_keys_cartesian(self, ctx):
        left = ctx.parallelize([(1, "a"), (1, "b")], 2)
        right = ctx.parallelize([(1, "x"), (1, "y")], 2)
        out = sorted(left.join(right).collect())
        assert len(out) == 4

    def test_left_outer_join(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b")], 2)
        right = ctx.parallelize([(2, "x")], 2)
        out = dict(left.left_outer_join(right).collect())
        assert out == {1: ("a", None), 2: ("b", "x")}

    def test_cogroup(self, ctx):
        left = ctx.parallelize([(1, "a")], 2)
        right = ctx.parallelize([(1, "x"), (1, "y"), (2, "z")], 2)
        out = dict(ctx.parallelize([(1, "a")], 2)
                   .cogroup(right).collect())
        assert out[1] == (["a"], ["x", "y"])
        assert out[2] == ([], ["z"])

    def test_copartitioned_side_does_not_shuffle(self, ctx):
        n = ctx.default_parallelism
        part = HashPartitioner(n)
        factor = ctx.parallelize([(i, i * 10) for i in range(20)], n, part)
        tensor = ctx.parallelize([(i % 20, i) for i in range(50)])
        tensor.join(factor, n).collect()
        # only the tensor side's 50 records moved
        assert ctx.metrics.total_shuffle_write().records_written == 50
        assert ctx.metrics.total_shuffle_rounds() == 1

    def test_uncopartitioned_join_shuffles_both(self, ctx):
        n = ctx.default_parallelism
        left = ctx.parallelize([(i, i) for i in range(20)])
        right = ctx.parallelize([(i, -i) for i in range(30)])
        left.join(right, n).collect()
        assert ctx.metrics.total_shuffle_write().records_written == 50
        assert ctx.metrics.total_shuffle_rounds() == 1  # one cogroup round

    def test_both_copartitioned_join_is_free(self, ctx):
        n = ctx.default_parallelism
        part = HashPartitioner(n)
        a = ctx.parallelize([(i, i) for i in range(10)], n, part)
        b = ctx.parallelize([(i, -i) for i in range(10)], n, part)
        out = a.join(b, n).collect()
        assert len(out) == 10
        assert ctx.metrics.total_shuffle_rounds() == 0

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)),
                    max_size=30),
           st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)),
                    max_size=30))
    @settings(max_examples=examples(25), deadline=None)
    def test_join_matches_python(self, left, right):
        with Context(num_nodes=2, default_parallelism=3) as ctx:
            out = sorted(ctx.parallelize(left, 2)
                         .join(ctx.parallelize(right, 2)).collect())
        expected = sorted(
            (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2)
        assert out == expected
