"""Broadcast variables and their accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Context, RunStats, StorageLevel
from repro.engine.rdd import MapPartitionsRDD


# broadcast handle mechanics are this class's very subject; the shared
# fixture's lifecycle audit is waived
@pytest.mark.lint_leaks_ok
class TestBroadcast:
    def test_value_accessible_in_tasks(self, ctx):
        table = ctx.broadcast({1: "one", 2: "two"})
        out = ctx.parallelize([1, 2, 1], 2).map(
            lambda x: table.value[x]).collect()
        assert out == ["one", "two", "one"]

    def test_size_estimated(self, ctx):
        b = ctx.broadcast(np.zeros(100))
        assert b.size_bytes >= 800

    def test_metrics_record_payload(self, ctx):
        before = ctx.metrics.broadcast_bytes
        b = ctx.broadcast(np.zeros(100))
        assert ctx.metrics.broadcast_bytes - before == b.size_bytes
        assert ctx.metrics.broadcast_count == 1

    def test_destroy(self, ctx):
        b = ctx.broadcast([1, 2])
        b.destroy()
        with pytest.raises(RuntimeError, match="destroyed"):
            b.value

    def test_ids_increment(self, ctx):
        assert ctx.broadcast(1).broadcast_id == 0
        assert ctx.broadcast(2).broadcast_id == 1

    def test_stopped_context_rejects(self):
        ctx = Context(num_nodes=2)
        ctx.stop()
        from repro.engine import ContextStoppedError
        with pytest.raises(ContextStoppedError):
            ctx.broadcast(1)

    def test_repr(self, ctx):
        b = ctx.broadcast([1])
        assert "Broadcast" in repr(b)
        b.destroy()
        assert "destroyed" in repr(b)


class TestHandedLifetime:
    """A broadcast named by an RDD node dies at the first
    ``drop_shuffle_outputs`` after no persisted lineage reads it."""

    def test_lives_while_a_persisted_lineage_reads_it(self, ctx):
        bc = ctx.broadcast(np.arange(4.0))
        reads = MapPartitionsRDD(
            ctx.parallelize(list(range(8)), 2),
            lambda _split, it: (bc.value[x % 4] for x in it),
            broadcasts=[bc])
        doubled = reads.map(lambda x: 2 * x).cache()
        want = doubled.collect()
        ctx.drop_shuffle_outputs()
        ctx.clear_cache()          # a lost partition recomputes through bc
        assert not bc.destroyed and doubled.collect() == want
        doubled.unpersist()
        ctx.drop_shuffle_outputs()
        assert bc.destroyed and ctx.live_broadcasts() == []

    def test_one_never_handed_over_stays_the_creators(self, ctx):
        bc = ctx.broadcast(1)
        ctx.drop_shuffle_outputs()
        assert ctx.live_broadcasts() == [bc]
        bc.destroy()


class TestBroadcastCostModel:
    def test_runstats_capture(self, ctx):
        bc = ctx.broadcast(np.zeros(1000))
        stats = RunStats.from_metrics(ctx.metrics)
        assert stats.broadcast_bytes > 8000
        bc.destroy()

    def test_network_term_grows_with_broadcast(self):
        from repro.engine import CostModel
        m = CostModel()
        base = RunStats(shuffle_total_bytes=10**6)
        with_bc = RunStats(shuffle_total_bytes=10**6,
                           broadcast_bytes=10**9)
        assert m.estimate(with_bc, 8).network_s > \
            m.estimate(base, 8).network_s

    def test_broadcast_arithmetic(self):
        a = RunStats(broadcast_bytes=10)
        b = RunStats(broadcast_bytes=3)
        assert (a + b).broadcast_bytes == 13
        assert (a - b).broadcast_bytes == 7
        assert (a * 2).broadcast_bytes == 20
        assert a.scaled(10).broadcast_bytes == 100


# persisted-storage-level mechanics; lifecycle audit waived as above
@pytest.mark.lint_leaks_ok
class TestDiskStorageLevel:
    def test_disk_reads_accounted(self, ctx):
        rdd = ctx.parallelize(list(range(200)), 2).persist(
            StorageLevel.DISK)
        rdd.count()
        assert ctx.metrics.cache_disk_read_bytes == 0
        rdd.count()
        assert ctx.metrics.cache_disk_read_bytes > 0

    def test_disk_roundtrip_correct(self, ctx):
        rdd = ctx.parallelize([np.arange(4.0)], 1).persist(
            StorageLevel.DISK)
        rdd.count()
        out = rdd.collect()
        assert np.array_equal(out[0], np.arange(4.0))

    def test_memory_ser_not_counted_as_disk(self, ctx):
        rdd = ctx.parallelize(list(range(50)), 2).persist(
            StorageLevel.MEMORY_SER)
        rdd.count()
        rdd.count()
        assert ctx.metrics.cache_disk_read_bytes == 0
