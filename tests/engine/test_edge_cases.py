"""Engine edge cases: deep pipelines, odd shapes."""

from __future__ import annotations


from repro.engine import Context


class TestDeepPipelines:
    def test_fifty_chained_narrow_ops(self, ctx):
        rdd = ctx.parallelize(range(20), 4)
        for _ in range(50):
            rdd = rdd.map(lambda x: x + 1)
        assert rdd.collect() == [x + 50 for x in range(20)]
        # all fifty maps pipelined into ONE stage
        assert len(ctx.metrics.jobs[-1].stages) == 1

    def test_ten_chained_shuffles(self, ctx):
        rdd = ctx.parallelize([(i, 1) for i in range(40)], 4)
        for k in range(10):
            rdd = (rdd.map(lambda kv, _k=k: ((kv[0] + _k) % 7, kv[1]))
                   .reduce_by_key(lambda a, b: a + b, 4))
        total = sum(v for _k, v in rdd.collect())
        assert total == 40
        assert ctx.metrics.jobs[-1].shuffle_rounds == 10

    def test_wide_narrow_wide_sandwich(self, ctx):
        out = (ctx.parallelize([(i % 5, i) for i in range(50)], 4)
               .reduce_by_key(lambda a, b: a + b, 4)
               .map(lambda kv: (kv[0] % 2, kv[1]))
               .reduce_by_key(lambda a, b: a + b, 2)
               .collect_as_map())
        assert out[0] + out[1] == sum(range(50))


class TestOddShapes:
    def test_more_partitions_than_records(self, ctx):
        assert ctx.parallelize([42], 16).collect() == [42]

    def test_single_partition_everything(self):
        with Context(num_nodes=1, default_parallelism=1) as ctx:
            out = (ctx.parallelize([(i % 3, i) for i in range(30)], 1)
                   .reduce_by_key(lambda a, b: a + b, 1)
                   .collect())
            assert sorted(out) == [(0, 135), (1, 145), (2, 155)]

    def test_many_nodes_few_partitions(self):
        with Context(num_nodes=32, default_parallelism=2) as ctx:
            assert ctx.parallelize(range(10), 2).sum() == 45

    def test_key_none(self, ctx):
        out = ctx.parallelize([(None, 1), (None, 2)], 2)\
            .reduce_by_key(lambda a, b: a + b).collect()
        assert out == [(None, 3)]

    def test_tuple_keys_shuffle(self, ctx):
        data = [((i % 3, i % 2), 1) for i in range(60)]
        out = ctx.parallelize(data, 4).reduce_by_key(
            lambda a, b: a + b).collect_as_map()
        assert sum(out.values()) == 60
        assert len(out) == 6


class TestRecomputationConsistency:
    def test_shuffle_drop_mid_pipeline(self, ctx):
        base = ctx.parallelize([(i % 4, 1) for i in range(40)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4)
        first = base.collect_as_map()
        ctx.drop_shuffle_outputs()
        derived = base.map_values(lambda v: v * 2).collect_as_map()
        assert derived == {k: v * 2 for k, v in first.items()}

    def test_cache_cleared_then_recomputed(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x * 3).cache()
        assert rdd.sum() == 135
        ctx.clear_cache()
        assert rdd.sum() == 135
        rdd.unpersist()

    def test_unpersist_during_lineage_chain(self, ctx):
        base = ctx.parallelize(range(20), 4).cache()
        derived = base.map(lambda x: x + 1)
        base.count()
        base.unpersist()
        assert derived.sum() == sum(range(1, 21))
