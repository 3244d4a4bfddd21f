"""Metrics: local/remote classification, phases, round counting."""

from __future__ import annotations


from repro.engine import Context, HashPartitioner
from repro.engine.metrics import ShuffleReadMetrics, ShuffleWriteMetrics
from repro.engine.serialization import estimate_record_size


class TestLocalRemoteSplit:
    def test_single_node_all_local(self):
        with Context(num_nodes=1, default_parallelism=4) as ctx:
            ctx.parallelize([(i, i) for i in range(40)]).reduce_by_key(
                lambda a, b: a + b, 4, map_side_combine=False).collect()
            read = ctx.metrics.total_shuffle_read()
            assert read.remote_bytes == 0
            assert read.local_bytes > 0
            assert read.local_records == 40

    def test_remote_fraction_matches_placement(self):
        """With uniform keys on n nodes, ~(n-1)/n of shuffle data is
        remote."""
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            ctx.parallelize([(i, i) for i in range(4000)]).reduce_by_key(
                lambda a, b: a + b, 8, map_side_combine=False).collect()
            read = ctx.metrics.total_shuffle_read()
            frac = read.remote_records / read.total_records
            assert 0.65 < frac < 0.85  # expect 0.75

    def test_exact_split_hand_computed(self):
        """2 nodes, 2 partitions: records from map partition p to reduce
        partition q are local iff p % 2 == q % 2."""
        with Context(num_nodes=2, default_parallelism=2) as ctx:
            # put all data in map partition 0, keys hashing to both buckets
            data = [(0, "a"), (1, "b")]  # key k -> bucket k % 2
            rdd = ctx.parallelize(data, 1)  # map partition 0 on node 0
            rdd.partition_by(HashPartitioner(2)).collect()
            read = ctx.metrics.total_shuffle_read()
            # bucket 0 read by partition 0 (node 0): local
            # bucket 1 read by partition 1 (node 1): remote
            assert read.local_records == 1
            assert read.remote_records == 1

    def test_write_bytes_match_estimator(self, ctx):
        data = [(i, i) for i in range(10)]
        ctx.parallelize(data, 2).partition_by(
            HashPartitioner(4)).collect()
        write = ctx.metrics.total_shuffle_write()
        assert write.bytes_written == sum(
            estimate_record_size(r) for r in data)
        assert write.records_written == 10

    def test_read_bytes_equal_write_bytes(self, ctx):
        ctx.parallelize([(i, i) for i in range(100)], 4).partition_by(
            HashPartitioner(8)).collect()
        assert ctx.metrics.total_shuffle_read().total_bytes == \
            ctx.metrics.total_shuffle_write().bytes_written


class TestPhases:
    def test_default_phase_other(self, ctx):
        ctx.parallelize([1]).count()
        assert ctx.metrics.jobs[-1].phase == "Other"

    def test_phase_attribution(self, ctx):
        with ctx.metrics.phase("MTTKRP-1"):
            ctx.parallelize([(1, 1)]).reduce_by_key(
                lambda a, b: a + b).collect()
        ctx.parallelize([1]).count()
        by_phase = ctx.metrics.shuffle_read_by_phase()
        assert by_phase["MTTKRP-1"].total_records > 0
        assert ctx.metrics.jobs[-1].phase == "Other"

    def test_nested_phases(self, ctx):
        with ctx.metrics.phase("outer"):
            with ctx.metrics.phase("inner"):
                ctx.parallelize([1]).count()
            ctx.parallelize([2]).count()
        jobs = ctx.metrics.jobs
        assert jobs[0].phase == "inner"
        assert jobs[1].phase == "outer"

    def test_phases_listing(self, ctx):
        with ctx.metrics.phase("a"):
            ctx.parallelize([1]).count()
        with ctx.metrics.phase("b"):
            ctx.parallelize([1]).count()
        assert ctx.metrics.phases() == ["a", "b"]

    def test_jobs_in_phase(self, ctx):
        with ctx.metrics.phase("a"):
            ctx.parallelize([1]).count()
            ctx.parallelize([2]).count()
        assert len(ctx.metrics.jobs_in_phase("a")) == 2

    def test_phase_seconds_accumulate(self, ctx):
        import time
        with ctx.metrics.phase("timed"):
            time.sleep(0.01)
        with ctx.metrics.phase("timed"):
            time.sleep(0.01)
        assert ctx.metrics.phase_seconds["timed"] >= 0.02

    def test_seconds_in_phases_prefix_sum(self, ctx):
        with ctx.metrics.phase("MTTKRP-1"):
            ctx.parallelize([1]).count()
        with ctx.metrics.phase("MTTKRP-2"):
            ctx.parallelize([1]).count()
        with ctx.metrics.phase("fit"):
            ctx.parallelize([1]).count()
        total = ctx.metrics.seconds_in_phases("MTTKRP-")
        assert total > 0.0
        assert total == (ctx.metrics.phase_seconds["MTTKRP-1"]
                         + ctx.metrics.phase_seconds["MTTKRP-2"])


class TestStageMetrics:
    def test_records_per_node_distribution(self, ctx):
        ctx.parallelize([(i, i) for i in range(80)]).reduce_by_key(
            lambda a, b: a + b, 8, map_side_combine=False).collect()
        per_node = ctx.metrics.records_per_node()
        assert sum(per_node.values()) > 0
        assert set(per_node) <= {0, 1, 2, 3}

    def test_cache_hit_miss_counters(self, ctx):
        rdd = ctx.parallelize(range(10), 2).cache()
        rdd.count()
        misses = sum(st.cache_miss_partitions
                     for j in ctx.metrics.jobs for st in j.stages)
        rdd.count()
        hits = sum(st.cache_hit_partitions
                   for j in ctx.metrics.jobs for st in j.stages)
        assert misses == 2
        assert hits == 2
        rdd.unpersist()

    def test_merge_shuffle_read(self):
        a = ShuffleReadMetrics(remote_bytes=10, local_bytes=5,
                               remote_records=1, local_records=2)
        b = ShuffleReadMetrics(remote_bytes=1, local_bytes=1,
                               remote_records=1, local_records=1)
        a.merge(b)
        assert (a.remote_bytes, a.local_bytes) == (11, 6)
        assert a.total_bytes == 17
        assert a.total_records == 5

    def test_merge_shuffle_write(self):
        a = ShuffleWriteMetrics(bytes_written=10, records_written=2)
        a.merge(ShuffleWriteMetrics(bytes_written=5, records_written=1))
        assert a.bytes_written == 15
        assert a.records_written == 3
