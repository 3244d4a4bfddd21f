"""MapReduce semantics on the hadoop-mode engine: HDFS charging, jobs
as shuffle rounds, combiners, counters and the reducer's key order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import COMET, Context, CostModel, RunStats


def wordcount(rdd, num_partitions=4, **kw):
    """Classic word count over ``(key, word)`` records."""
    return rdd.map(lambda kv: (kv[1], 1)).reduce_by_key(
        lambda a, b: a + b, num_partitions, **kw)


class TestHDFS:
    def test_write_stripes_blocks(self, hadoop_ctx):
        # the HDFS round trip of a checkpoint loses the partitioning:
        # records land striped over the requested splits, unkeyed
        rdd = hadoop_ctx.parallelize([(i, i) for i in range(50)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4)
        assert rdd.partitioner is not None
        cp = hadoop_ctx.checkpoint(rdd)
        assert cp.partitioner is None
        assert cp.num_partitions == 4
        assert cp.map_partitions(lambda it: [len(list(it))]).collect() \
            == [13, 13, 12, 12]

    def test_write_charges_replication(self, hadoop_ctx):
        # bytes are recorded once, unreplicated: the replication factor
        # lives in the hardware profile and is applied by the cost model
        wordcount(hadoop_ctx.parallelize(
            [(i, i % 5) for i in range(60)], 4)).collect()
        h = hadoop_ctx.metrics.hadoop
        write = hadoop_ctx.metrics.total_shuffle_write()
        assert h.hdfs_bytes_written == write.bytes_written > 0
        assert h.hdfs_records_written == write.records_written
        assert COMET.hdfs_replication == 3

    def test_read_charges(self, hadoop_ctx):
        # every map output is read back once, and a checkpoint charges
        # its write and its read-back alike
        wordcount(hadoop_ctx.parallelize(
            [(i, i % 5) for i in range(60)], 4)).collect()
        h = hadoop_ctx.metrics.hadoop
        assert h.hdfs_bytes_read == h.hdfs_bytes_written > 0
        before = h.hdfs_bytes_read
        hadoop_ctx.checkpoint(hadoop_ctx.parallelize(
            [(i, i) for i in range(20)], 2))
        assert h.hdfs_bytes_read - before == \
            h.hdfs_bytes_written - before > 0

    def test_invalid_blocks(self):
        with pytest.raises(ValueError, match="execution_mode"):
            Context(num_nodes=4, execution_mode="mapreduce")
        with pytest.raises(ValueError, match="mode"):
            CostModel().estimate(RunStats(), 4, "mapreduce")


class TestJobExecution:
    def test_wordcount(self, hadoop_ctx):
        data = hadoop_ctx.parallelize(
            [(i, ["a", "b", "a", "c"][i % 4]) for i in range(40)], 4)
        assert dict(wordcount(data).collect()) == {"a": 20, "b": 10,
                                                   "c": 10}
        assert hadoop_ctx.metrics.hadoop.jobs_launched == 1

    def test_reducer_sees_sorted_keys(self, hadoop_ctx):
        # the MTTKRP's reduceByKey leaves every partition in key order
        rdd = hadoop_ctx.parallelize(
            [((i * 7) % 29, np.full(2, float(i))) for i in range(90)], 4)
        out = hadoop_ctx.kernel.sum_rows_by_key(rdd, 3).collect()
        assert out
        for block in out:
            assert np.all(np.diff(block.keys) > 0)
        assert sorted(int(k) for b in out for k in b.keys) == \
            list(range(29))

    def test_combiner_shrinks_shuffle(self, hadoop_ctx):
        data = hadoop_ctx.parallelize([(i, "x") for i in range(64)], 4)
        plain = wordcount(data, map_side_combine=False)
        assert dict(plain.collect()) == {"x": 64}
        plain_records = \
            hadoop_ctx.metrics.total_shuffle_write().records_written
        combined = wordcount(data, map_side_combine=True)
        assert dict(combined.collect()) == {"x": 64}
        combined_records = hadoop_ctx.metrics.total_shuffle_write()\
            .records_written - plain_records
        assert plain_records == 64
        assert combined_records == 4  # one per map task

    def test_counters(self, hadoop_ctx):
        # accumulators are the engine's job counters
        mapped = hadoop_ctx.accumulator(0, "mapped")
        reduced = hadoop_ctx.accumulator(0, "reduced")

        def mapper(kv):
            mapped.add(1)
            return (kv[1], 1)

        def reducer(kv):
            reduced.add(2)
            return kv

        hadoop_ctx.parallelize([(i, i % 3) for i in range(12)], 4)\
            .map(mapper).reduce_by_key(lambda a, b: a + b, 4)\
            .map(reducer).collect()
        assert mapped.value == 12
        assert reduced.value == 6  # 3 keys x 2

    def test_local_remote_split(self, hadoop_ctx):
        # keys decorrelated from the input splits, else every record's
        # source and destination node coincide by construction
        data = hadoop_ctx.parallelize(
            [(i, (i * 7 + 3) % 13) for i in range(160)], 4)
        wordcount(data, num_partitions=8).collect()
        read = hadoop_ctx.metrics.total_shuffle_read()
        assert read.remote_records > 0
        assert read.local_records > 0
        frac = read.remote_records / read.total_records
        assert 0.5 < frac < 0.95  # ~3/4 on 4 nodes

    def test_jobs_counted(self, hadoop_ctx):
        data = hadoop_ctx.parallelize([(0, "a")], 1)
        wordcount(data).collect()
        wordcount(data).collect()
        assert hadoop_ctx.metrics.hadoop.jobs_launched == 2

    def test_job_chaining(self, hadoop_ctx):
        # two shuffles are two jobs, and the second re-reads HDFS
        counts = wordcount(hadoop_ctx.parallelize(
            [(i, i % 5) for i in range(50)], 4))
        inverted = counts.map(lambda kv: (kv[1], [kv[0]]))\
            .reduce_by_key(lambda a, b: a + b, 2).map_values(sorted)
        assert dict(inverted.collect()) == {10: [0, 1, 2, 3, 4]}
        h = hadoop_ctx.metrics.hadoop
        assert h.jobs_launched == 2
        writes = [st.shuffle_write.bytes_written
                  for st in hadoop_ctx.metrics.jobs[-1].stages
                  if st.is_shuffle_map]
        assert len(writes) == 2 and all(writes)
        assert h.hdfs_bytes_read == sum(writes)

    def test_validations(self, hadoop_ctx):
        with pytest.raises(ValueError, match="num_partitions"):
            hadoop_ctx.parallelize([(1, 1)], 2)\
                .reduce_by_key(lambda a, b: a + b, 0)
        with pytest.raises(ValueError, match="num_partitions"):
            hadoop_ctx.parallelize([(1, 1)], 0)

    def test_numpy_values_flow(self, hadoop_ctx):
        data = hadoop_ctx.parallelize(
            [(i % 2, np.ones(3) * i) for i in range(6)], 3)
        out = data.reduce_by_key(lambda a, b: a + b, 2).collect_as_map()
        assert np.allclose(out[0], [6, 6, 6])
        assert np.allclose(out[1], [9, 9, 9])
        assert hadoop_ctx.metrics.hadoop.hdfs_bytes_written > 0
