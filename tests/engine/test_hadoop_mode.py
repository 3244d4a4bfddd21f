"""Hadoop execution mode: HDFS accounting, job counting, checkpoints."""

from __future__ import annotations

from repro.engine import COMET, CostModel, RunStats


class TestHadoopAccounting:
    def test_jobs_launched_per_round(self, hadoop_ctx):
        hadoop_ctx.parallelize([(i % 3, 1) for i in range(30)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4).collect()
        assert hadoop_ctx.metrics.hadoop.jobs_launched == 1

    def test_join_is_one_job(self, hadoop_ctx):
        left = hadoop_ctx.parallelize([(1, "a")], 2)
        right = hadoop_ctx.parallelize([(1, "b")], 2)
        left.join(right, 4).collect()
        assert hadoop_ctx.metrics.hadoop.jobs_launched == 1

    def test_hdfs_bytes_charged(self, hadoop_ctx):
        hadoop_ctx.parallelize([(i, i) for i in range(100)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4).collect()
        h = hadoop_ctx.metrics.hadoop
        assert h.hdfs_bytes_written > 0
        assert h.hdfs_bytes_read > 0

    def test_spark_mode_no_hadoop_metrics(self, ctx):
        ctx.parallelize([(i, i) for i in range(10)], 2)\
            .reduce_by_key(lambda a, b: a + b, 2).collect()
        assert ctx.metrics.hadoop.jobs_launched == 0
        assert ctx.metrics.hadoop.hdfs_bytes_written == 0

    def test_traffic_helper_applies_replication(self, hadoop_ctx):
        # replication is applied once, in the cost model, to the
        # unreplicated bytes the run recorded
        hadoop_ctx.parallelize([(i, i) for i in range(100)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4).collect()
        stats = RunStats.from_metrics(hadoop_ctx.metrics)
        assert stats.hadoop_jobs == 1
        assert stats.hdfs_write_bytes > 0 and stats.spill_bytes == 0
        for n in (4, 8, 16, 32):
            disk_s = CostModel().estimate(stats, n, "hadoop").disk_s
            assert disk_s == (
                (stats.hdfs_write_bytes * COMET.hdfs_replication
                 + stats.hdfs_read_bytes)
                / (n * COMET.disk_bw_bytes_per_s))

    def test_caching_flags(self, hadoop_ctx, ctx):
        assert hadoop_ctx.hadoop_mode
        assert not hadoop_ctx.caching_enabled
        assert not ctx.hadoop_mode
        assert ctx.caching_enabled


class TestHadoopCheckpoint:
    def test_checkpoint_charges_hdfs(self, hadoop_ctx):
        rdd = hadoop_ctx.parallelize([(i, i) for i in range(50)], 4)
        before = hadoop_ctx.metrics.hadoop.hdfs_bytes_written
        cp = hadoop_ctx.checkpoint(rdd)
        assert hadoop_ctx.metrics.hadoop.hdfs_bytes_written > before
        assert sorted(cp.collect()) == sorted(rdd.collect())

    def test_spark_checkpoint_free_of_hdfs(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2)
        ctx.checkpoint(rdd)
        assert ctx.metrics.hadoop.hdfs_bytes_written == 0

    def test_checkpoint_result_is_lineage_free(self, hadoop_ctx):
        rdd = hadoop_ctx.parallelize([(i % 2, 1) for i in range(20)], 2)\
            .reduce_by_key(lambda a, b: a + b, 2)
        cp = hadoop_ctx.checkpoint(rdd)
        hadoop_ctx.drop_shuffle_outputs()
        jobs_before = hadoop_ctx.metrics.hadoop.jobs_launched
        assert sorted(cp.collect()) == [(0, 10), (1, 10)]
        assert hadoop_ctx.metrics.hadoop.jobs_launched == jobs_before
