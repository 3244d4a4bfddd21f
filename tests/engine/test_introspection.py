"""Engine introspection: lineage rendering and the metrics digest."""

from __future__ import annotations




class TestDebugString:
    def test_narrow_chain_single_indent(self, ctx):
        rdd = ctx.parallelize(range(5)).map(lambda x: x).map_partitions(
            lambda it: it)
        out = rdd.to_debug_string()
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("(") for line in lines)
        assert "parallelize" in lines[-1]

    def test_shuffle_indents(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a + b)
        out = rdd.to_debug_string()
        assert "reduceByKey" in out
        # the parent appears indented one level deeper
        lines = out.splitlines()
        assert lines[-1].startswith("  ")
        assert "parallelize" in lines[-1]

    def test_cached_marker(self, ctx):
        rdd = ctx.parallelize(range(5)).cache()
        rdd.count()
        assert "*" in rdd.to_debug_string().splitlines()[0]
        rdd.unpersist()

    def test_join_shows_both_parents(self, ctx):
        left = ctx.parallelize([(1, "a")], 2).set_name("left")
        right = ctx.parallelize([(1, "b")], 2).set_name("right")
        out = left.join(right, 2).to_debug_string()
        assert "left" in out
        assert "right" in out


class TestMetricsSummary:
    def test_summary_lines(self, ctx):
        with ctx.metrics.phase("MTTKRP-1"):
            ctx.parallelize([(i % 3, i) for i in range(30)], 4)\
                .reduce_by_key(lambda a, b: a + b, 4).collect()
        cached = ctx.parallelize(range(5)).cache()
        cached.count()
        bc = ctx.broadcast([1, 2, 3])
        out = ctx.metrics.summary()
        assert "jobs run" in out
        assert "shuffle rounds      : 1" in out
        assert "remote" in out
        assert "cache stored" in out
        assert "broadcasts" in out
        assert "MTTKRP-1" in out
        cached.unpersist()
        bc.destroy()

    def test_hadoop_summary(self, hadoop_ctx):
        hadoop_ctx.parallelize([(1, 1)], 2).reduce_by_key(
            lambda a, b: a + b, 2).collect()
        assert "hadoop jobs" in hadoop_ctx.metrics.summary()

    def test_empty_summary(self, ctx):
        out = ctx.metrics.summary()
        assert "jobs run            : 0" in out
