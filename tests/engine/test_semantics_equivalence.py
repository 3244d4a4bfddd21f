"""Semantic-equivalence properties: different RDD formulations of the
same computation must agree (the strongest kind of engine invariant)."""

from __future__ import annotations


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Context

from ..strategies import examples

kv_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(-50, 50)), max_size=50)


def fresh_ctx():
    return Context(num_nodes=3, default_parallelism=4)


class TestReduceEquivalences:
    @given(kv_lists)
    @settings(max_examples=examples(25), deadline=None)
    def test_reduce_by_key_equals_group_then_sum(self, pairs):
        with fresh_ctx() as ctx:
            rdd = ctx.parallelize(pairs, 3)
            reduced = rdd.reduce_by_key(lambda a, b: a + b)\
                .collect_as_map()
            grouped = rdd.combine_by_key(
                lambda v: [v], lambda acc, v: acc + [v],
                lambda a, b: a + b, map_side_combine=False)\
                .map_values(sum).collect_as_map()
        assert reduced == grouped

    @given(kv_lists)
    @settings(max_examples=examples(20), deadline=None)
    def test_combine_on_off_agree(self, pairs):
        with fresh_ctx() as ctx:
            rdd = ctx.parallelize(pairs, 3)
            on = rdd.reduce_by_key(lambda a, b: a + b,
                                   map_side_combine=True).collect_as_map()
            off = rdd.reduce_by_key(lambda a, b: a + b,
                                    map_side_combine=False).collect_as_map()
        assert on == off


class TestJoinEquivalences:
    @given(kv_lists, kv_lists)
    @settings(max_examples=examples(20), deadline=None)
    def test_join_equals_cogroup_product(self, left, right):
        with fresh_ctx() as ctx:
            l_rdd = ctx.parallelize(left, 2)
            r_rdd = ctx.parallelize(right, 3)
            joined = sorted(l_rdd.join(r_rdd, 4).collect())
            via_cogroup = sorted(
                (k, (lv, rv))
                for k, (ls, rs) in l_rdd.cogroup(r_rdd, 4).collect()
                for lv in ls for rv in rs)
        assert joined == via_cogroup

    @given(kv_lists, kv_lists)
    @settings(max_examples=examples(15), deadline=None)
    def test_outer_joins_partition_the_key_space(self, left, right):
        with fresh_ctx() as ctx:
            l_rdd = ctx.parallelize(left, 2)
            r_rdd = ctx.parallelize(right, 2)
            outer = l_rdd.left_outer_join(r_rdd, 4).collect()
        right_keys = {k for k, _ in right}
        unmatched = sorted(k for k, (_lv, rv) in outer if rv is None)
        assert unmatched == sorted(k for k, _ in left if k not in right_keys)
        assert {k for k, _ in outer} == {k for k, _ in left}


class TestAggregateEquivalence:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=examples(20), deadline=None)
    def test_tree_aggregate_equals_python_sum(self, xs):
        with fresh_ctx() as ctx:
            total = ctx.parallelize(xs, 4).tree_aggregate(
                0, lambda a, x: a + x, lambda a, b: a + b)
        assert total == sum(xs)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.integers(2, 6))
    @settings(max_examples=examples(20), deadline=None)
    def test_partitioning_never_changes_results(self, xs, parts):
        with fresh_ctx() as ctx:
            a = ctx.parallelize(xs, parts).map(lambda x: (x % 3, x))\
                .reduce_by_key(max).collect_as_map()
        with fresh_ctx() as ctx:
            b = ctx.parallelize(xs, 1).map(lambda x: (x % 3, x))\
                .reduce_by_key(max).collect_as_map()
        assert a == b
