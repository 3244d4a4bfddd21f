"""ShuffleManager unit behaviour (exercised directly, not via RDDs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (Cluster, ColumnarBlock, FetchFailedError,
                          HashPartitioner, KeyedRowBlock)
from repro.engine.metrics import ShuffleReadMetrics, ShuffleWriteMetrics
from repro.engine.shuffle import Aggregator, ShuffleManager


@pytest.fixture
def mgr():
    return ShuffleManager(Cluster(num_nodes=2))


def write(mgr, sid, map_partition, records, parts=4, aggregator=None):
    wm = ShuffleWriteMetrics()
    mgr.write(sid, map_partition, records, HashPartitioner(parts), wm,
              aggregator)
    return wm


class TestWriteRead:
    def test_roundtrip_all_buckets(self, mgr):
        sid = mgr.new_shuffle_id()
        records = [(k, k * 10) for k in range(12)]
        write(mgr, sid, 0, records)
        rm = ShuffleReadMetrics()
        fetched = []
        for q in range(4):
            fetched.extend(mgr.read(sid, q, rm))
        assert sorted(fetched) == sorted(records)
        assert rm.total_records == 12

    def test_bucket_assignment_by_key_hash(self, mgr):
        sid = mgr.new_shuffle_id()
        part = HashPartitioner(4)
        write(mgr, sid, 0, [(7, "x")])
        rm = ShuffleReadMetrics()
        bucket = part.get_partition(7)
        assert mgr.read(sid, bucket, rm) == [(7, "x")]
        for q in range(4):
            if q != bucket:
                assert mgr.read(sid, q, ShuffleReadMetrics()) == []

    def test_local_remote_classification(self, mgr):
        """2-node cluster: map partition 0 (node 0); reduce partition 0
        is node-local, reduce partition 1 is remote."""
        sid = mgr.new_shuffle_id()
        part = HashPartitioner(2)
        write(mgr, sid, 0, [(0, "a"), (1, "b")], parts=2)
        local = ShuffleReadMetrics()
        mgr.read(sid, 0, local)
        assert local.local_records == 1
        assert local.remote_records == 0
        remote = ShuffleReadMetrics()
        mgr.read(sid, 1, remote)
        assert remote.remote_records == 1

    def test_write_metrics_accumulate(self, mgr):
        sid = mgr.new_shuffle_id()
        wm = write(mgr, sid, 0, [(1, "a"), (2, "b")])
        assert wm.records_written == 2
        assert wm.bytes_written > 0

    def test_multiple_map_partitions_merge(self, mgr):
        sid = mgr.new_shuffle_id()
        part = HashPartitioner(1)
        write(mgr, sid, 0, [(1, "a")], parts=1)
        write(mgr, sid, 1, [(1, "b")], parts=1)
        rm = ShuffleReadMetrics()
        assert sorted(mgr.read(sid, 0, rm)) == [(1, "a"), (1, "b")]

    def test_unknown_shuffle_raises(self, mgr):
        with pytest.raises(KeyError):
            mgr.read(999, 0, ShuffleReadMetrics())


class TestKeyedBlocks:
    """Keyed blocks are bucketed whole and metered as their records."""

    def blocks(self):
        rng = np.random.default_rng(4)
        cols = [rng.integers(0, 9, 30) for _ in range(3)]
        rows = rng.standard_normal((30, 2))
        queue = rng.standard_normal((30, 2, 2))
        return [ColumnarBlock(cols, rng.standard_normal(30), None, 1),
                ColumnarBlock(cols, rng.standard_normal(30), rows, 2),
                KeyedRowBlock(cols[0], rows),
                ColumnarBlock(cols, rng.standard_normal(30), queue, 0),
                ColumnarBlock(cols, rng.standard_normal(30),
                              queue[:, :0], 1)]

    def test_same_buckets_bytes_and_order_as_the_records(self, mgr):
        for block in self.blocks():
            as_block, as_records = mgr.new_shuffle_id(), mgr.new_shuffle_id()
            wm_block = write(mgr, as_block, 0, [block])
            wm_records = write(mgr, as_records, 0, block.to_records())
            assert (wm_block.bytes_written, wm_block.records_written) == \
                (wm_records.bytes_written, wm_records.records_written)
            for q in range(4):
                rm_block, rm_records = (ShuffleReadMetrics(),
                                        ShuffleReadMetrics())
                fetched = mgr.read(as_block, q, rm_block)
                expected = mgr.read(as_records, q, rm_records)
                assert all(type(b) is type(block) for b in fetched)
                got = [r for b in fetched for r in b.to_records()]
                assert [r[0] for r in got] == [r[0] for r in expected]
                assert rm_block.total_bytes == rm_records.total_bytes
                assert rm_block.total_records == rm_records.total_records

    def test_empty_block_writes_nothing(self, mgr):
        sid = mgr.new_shuffle_id()
        wm = write(mgr, sid, 0, [KeyedRowBlock.from_records([], rank=2)])
        assert (wm.bytes_written, wm.records_written) == (0, 0)
        assert all(mgr.read(sid, q, ShuffleReadMetrics()) == []
                   for q in range(4))


class TestAggregator:
    def test_map_side_combine(self, mgr):
        sid = mgr.new_shuffle_id()
        agg = Aggregator(lambda v: v, lambda a, b: a + b,
                         lambda a, b: a + b)
        wm = write(mgr, sid, 0, [(1, 10), (1, 5), (2, 1)], parts=1,
                   aggregator=agg)
        assert wm.records_written == 2  # combined per key
        rm = ShuffleReadMetrics()
        assert sorted(mgr.read(sid, 0, rm)) == [(1, 15), (2, 1)]


class TestLifecycle:
    def test_is_written_tracks_map_tasks(self, mgr):
        sid = mgr.new_shuffle_id()
        assert not mgr.is_written(sid, 2)
        write(mgr, sid, 0, [(1, "a")])
        assert not mgr.is_written(sid, 2)
        write(mgr, sid, 1, [(2, "b")])
        assert mgr.is_written(sid, 2)

    def test_remove_shuffle(self, mgr):
        sid = mgr.new_shuffle_id()
        write(mgr, sid, 0, [(1, "a")])
        mgr.remove_shuffle(sid)
        # a registered-then-dropped shuffle is recoverable: the read
        # signals FetchFailedError so the scheduler can resubmit the
        # map stage from lineage (an id never registered is a bug and
        # stays a KeyError)
        with pytest.raises(FetchFailedError):
            mgr.read(sid, 0, ShuffleReadMetrics())

    def test_clear_then_rewrite(self, mgr):
        sid = mgr.new_shuffle_id()
        write(mgr, sid, 0, [(1, "a")])
        mgr.clear()
        assert not mgr.is_written(sid, 1)
        write(mgr, sid, 0, [(1, "a")])  # lazily re-registered
        assert mgr.is_written(sid, 1)

    def test_ids_unique(self, mgr):
        assert mgr.new_shuffle_id() != mgr.new_shuffle_id()
