"""ShuffleManager unit behaviour (exercised directly, not via RDDs)."""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (Cluster, ColumnarBlock, CorruptedBlockError,
                          FaultPlan, FetchFailedError, HashPartitioner,
                          IntegrityManager, KeyedRowBlock)
from repro.engine.blocks import iter_records
from repro.engine.integrity import flip_byte
from repro.engine.metrics import ShuffleReadMetrics, ShuffleWriteMetrics
from repro.engine.serialization import wire_bytes_per_row
from repro.engine.shuffle import Aggregator, ShuffleManager

from ..strategies import examples, integer_keys


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
        sid = mgr.new_shuffle_id(1)
        records = [(k, k * 10) for k in range(12)]
        write(mgr, sid, 0, records)
        rm = ShuffleReadMetrics()
        fetched = []
        for q in range(4):
            fetched.extend(mgr.read(sid, q, rm))
        assert sorted(fetched) == sorted(records)
        assert rm.total_records == 12

    def test_bucket_assignment_by_key_hash(self, mgr):
        sid = mgr.new_shuffle_id(1)
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
        sid = mgr.new_shuffle_id(1)
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
        sid = mgr.new_shuffle_id(1)
        wm = write(mgr, sid, 0, [(1, "a"), (2, "b")])
        assert wm.records_written == 2
        assert wm.bytes_written > 0

    def test_multiple_map_partitions_merge(self, mgr):
        sid = mgr.new_shuffle_id(2)
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
            as_block, as_records = (mgr.new_shuffle_id(1),
                                    mgr.new_shuffle_id(1))
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
        sid = mgr.new_shuffle_id(1)
        wm = write(mgr, sid, 0, [KeyedRowBlock.from_records([], rank=2)])
        assert (wm.bytes_written, wm.records_written) == (0, 0)
        assert all(mgr.read(sid, q, ShuffleReadMetrics()) == []
                   for q in range(4))


class TestAggregator:
    def test_map_side_combine(self, mgr):
        sid = mgr.new_shuffle_id(1)
        agg = Aggregator(lambda v: v, lambda a, b: a + b,
                         lambda a, b: a + b)
        wm = write(mgr, sid, 0, [(1, 10), (1, 5), (2, 1)], parts=1,
                   aggregator=agg)
        assert wm.records_written == 2  # combined per key
        rm = ShuffleReadMetrics()
        assert sorted(mgr.read(sid, 0, rm)) == [(1, 15), (2, 1)]


class TestLifecycle:
    def test_is_written_tracks_map_tasks(self, mgr):
        sid = mgr.new_shuffle_id(2)
        assert not mgr.is_written(sid, 2)
        write(mgr, sid, 0, [(1, "a")])
        assert not mgr.is_written(sid, 2)
        write(mgr, sid, 1, [(2, "b")])
        assert mgr.is_written(sid, 2)

    def test_remove_shuffle(self, mgr):
        sid = mgr.new_shuffle_id(1)
        write(mgr, sid, 0, [(1, "a")])
        mgr.remove_shuffle(sid)
        # a registered-then-dropped shuffle is recoverable: the read
        # signals FetchFailedError so the scheduler can resubmit the
        # map stage from lineage (an id never registered is a bug and
        # stays a KeyError)
        with pytest.raises(FetchFailedError):
            mgr.read(sid, 0, ShuffleReadMetrics())

    def test_clear_then_rewrite(self, mgr):
        sid = mgr.new_shuffle_id(1)
        write(mgr, sid, 0, [(1, "a")])
        mgr.clear()
        assert not mgr.is_written(sid, 1)
        write(mgr, sid, 0, [(1, "a")])  # lazily re-registered
        assert mgr.is_written(sid, 1)

    def test_ids_unique(self, mgr):
        assert mgr.new_shuffle_id(1) != mgr.new_shuffle_id(1)


# ----------------------------------------------------------------------
# the run layout: one stored block per keyed block, offsets per bucket
# ----------------------------------------------------------------------
@st.composite
def map_stage(draw):
    """``(num_partitions, [[block, ...] per map task])`` of one block
    kind: keyed rows, or a keyed ``ColumnarBlock`` carrying a value, an
    accumulator or a queue.  Keys come from ``integer_keys`` (empty,
    constant — all rows to one bucket — repeated, skewed, beyond 2**32,
    negative); a map task writes zero, one or two blocks."""
    num_partitions = draw(st.sampled_from([1, 4, 7]))
    kind = draw(st.sampled_from(["rows", "value", "accumulator", "queue"]))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def block():
        keys = draw(integer_keys(max_len=1100))
        n = keys.shape[0]
        if kind == "rows":
            return KeyedRowBlock(keys, rng.standard_normal((n, rank)))
        cols = [rng.integers(0, 9, n), keys, rng.integers(0, 9, n)]
        rows = {"value": None,
                "accumulator": rng.standard_normal((n, rank)),
                "queue": rng.standard_normal((n, 2, rank))}[kind]
        return ColumnarBlock(cols, rng.standard_normal(n), rows, 1)
    return num_partitions, [[block() for _ in range(draw(st.integers(0, 2)))]
                            for _ in range(draw(st.integers(1, 3)))]


def exact(obj):
    """``obj`` with every ndarray replaced by its bytes."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return [exact(x) for x in obj]
    return obj


class TestRunLayout:
    @settings(max_examples=examples(60), deadline=None)
    @given(map_stage())
    def test_read_is_the_rows_of_the_bucket_in_map_then_arrival_order(
            self, stage):
        num_partitions, tasks = stage
        mgr = ShuffleManager(Cluster(num_nodes=2))
        part = HashPartitioner(num_partitions)
        as_blocks, as_records = (mgr.new_shuffle_id(len(tasks)),
                                 mgr.new_shuffle_id(len(tasks)))
        written = 0
        for map_partition, blocks in enumerate(tasks):
            wm = write(mgr, as_blocks, map_partition, blocks,
                       parts=num_partitions)
            rm = write(mgr, as_records, map_partition,
                       [rec for blk in blocks for rec in blk.to_records()],
                       parts=num_partitions)
            assert (wm.bytes_written, wm.records_written) == \
                (rm.bytes_written, rm.records_written)
            written += wm.bytes_written
            # each keyed block is stored once, whatever it spans
            stored = mgr._shuffles[as_blocks][map_partition].segments
            assert len(stored) == sum(1 for blk in blocks if len(blk))
        read_bytes = 0
        for p in range(num_partitions):
            reference = [rec for blocks in tasks for blk in blocks
                         for rec in blk.to_records()
                         if part.get_partition(rec[0]) == p]
            got, expected = ShuffleReadMetrics(), ShuffleReadMetrics()
            fetched = mgr.read(as_blocks, p, got)
            assert len(fetched) == (1 if reference else 0)
            assert exact([rec for blk in fetched
                          for rec in blk.to_records()]) == exact(reference)
            assert exact(mgr.read(as_records, p, expected)) == \
                exact(reference)
            # a bucket's bytes are its rows times the closed form, and
            # the local/remote split is the record shuffle's
            if reference:
                assert got.total_bytes == \
                    len(reference) * wire_bytes_per_row(fetched[0])
            assert (got.local_bytes, got.remote_bytes, got.local_records,
                    got.remote_records) == (
                expected.local_bytes, expected.remote_bytes,
                expected.local_records, expected.remote_records)
            read_bytes += got.total_bytes
        assert read_bytes == written

    def test_loose_records_between_blocks_keep_their_place(self, mgr):
        """A map output is read in arrival order: a block's rows, the
        records written after it, the next block's rows."""
        sid = mgr.new_shuffle_id(1)
        rows = np.arange(12, dtype=float).reshape(6, 2)
        first = KeyedRowBlock(np.arange(3), rows[:3])
        last = KeyedRowBlock(np.arange(3), rows[3:])
        loose = [(k, rows[k] * 10) for k in range(3)]
        write(mgr, sid, 0, [first, *loose, last], parts=1)
        fetched = mgr.read(sid, 0, ShuffleReadMetrics())
        assert [type(item) for item in fetched] == [
            KeyedRowBlock, tuple, tuple, tuple, KeyedRowBlock]
        assert exact(list(iter_records(fetched))) == exact(
            [*first.to_records(), *loose, *last.to_records()])

    def test_node_loss_reports_the_rows_a_run_held(self):
        mgr = ShuffleManager(Cluster(num_nodes=2))
        sid = mgr.new_shuffle_id(2)
        block = KeyedRowBlock(np.arange(10), np.ones((10, 2)))
        held = {0: 11, 1: 10}
        write(mgr, sid, 0, [block, (3, np.ones(2))])
        write(mgr, sid, 1, [block])
        node = mgr.cluster.node_of_partition(0)
        on_node = [m for m in held
                   if mgr.cluster.node_of_partition(m) == node]
        assert mgr.invalidate_node(node) == (
            len(on_node), sum(held[m] for m in on_node))


class TestRunIntegrity:
    """With integrity on, a seal and a corruption site stay per (map,
    reduce): each sealed over that range cut out of the one buffer."""

    def sealed(self):
        from repro.engine.metrics import IntegrityMetrics
        integrity = IntegrityManager(True, FaultPlan(), IntegrityMetrics())
        mgr = ShuffleManager(Cluster(num_nodes=2), integrity=integrity)
        sid = mgr.new_shuffle_id(2)
        rng = np.random.default_rng(5)
        blocks = [KeyedRowBlock(rng.integers(0, 40, 60),
                                rng.standard_normal((60, 3)))
                  for _ in range(2)]
        for map_partition, block in enumerate(blocks):
            write(mgr, sid, map_partition, [block])
        return mgr, sid, blocks

    def test_flipped_byte_in_one_range_drops_that_map_output(self):
        mgr, sid, blocks = self.sealed()
        clean = [mgr.read(sid, q, ShuffleReadMetrics()) for q in range(4)]
        output = mgr._shuffles[sid][1]
        assert sorted(output.bucket_blobs) == sorted(
            q for q in range(4) if output.rows[q])
        blob = output.bucket_blobs[2]
        output.bucket_blobs[2] = flip_byte(blob, len(blob) // 2)
        with pytest.raises(CorruptedBlockError) as err:
            mgr.read(sid, 2, ShuffleReadMetrics())
        assert err.value.missing_map_partitions == (1,)
        # the whole map output is one unit of recovery; map 0 stays
        assert sorted(mgr._shuffles[sid]) == [0]
        assert not mgr.is_written(sid, 2)
        write(mgr, sid, 1, [blocks[1]])          # lineage rewrites it
        again = [mgr.read(sid, q, ShuffleReadMetrics()) for q in range(4)]
        assert exact([b.to_records() for part in again for b in part]) == \
            exact([b.to_records() for part in clean for b in part])

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_corrupted_ranges_heal_through_lineage(self, backend):
        from repro.engine import Context, EngineConf
        rng = np.random.default_rng(9)
        blocks = [ColumnarBlock(
            [rng.integers(0, 30, 80) for _ in range(3)],
            rng.standard_normal(80), rng.standard_normal((80, 2)), 1)
            for _ in range(6)]

        def shuffled(plan):
            conf = EngineConf(integrity=True, backend=backend,
                              backend_workers=2)
            with Context(num_nodes=3, default_parallelism=6,
                         fault_plan=plan, conf=conf) as ctx:
                out = ctx.parallelize_blocks(blocks).partition_by(
                    HashPartitioner(6)).map_partitions(
                        lambda it: [list(it)]).collect()
                return out, ctx.metrics.integrity
        clean, _ = shuffled(FaultPlan())
        healed, seen = shuffled(FaultPlan(seed=3, corrupt_block_prob=0.4))
        assert seen.corrupted_blocks > 0
        assert seen.corruptions_injected == seen.corrupted_blocks
        assert seen.recompute_recoveries > 0
        assert exact([[b.to_records() for b in part] for part in healed]) \
            == exact([[b.to_records() for b in part] for part in clean])


# ----------------------------------------------------------------------
# the store: one placement per shuffle, rebuilt after recovery
# ----------------------------------------------------------------------
def read_all(mgr, sid, num_partitions):
    """Every reduce partition's rows (as exact bytes) and metrics."""
    reads = []
    for p in range(num_partitions):
        rm = ShuffleReadMetrics()
        fetched = mgr.read(sid, p, rm)
        reads.append((exact(list(iter_records(fetched))),
                      dataclasses.asdict(rm)))
    return reads


class TestStoreRecovery:
    @settings(max_examples=examples(60), deadline=None)
    @given(map_stage(), st.sampled_from(["node", "corrupt", "dropped",
                                         "rewritten"]), st.data())
    def test_a_recovered_store_reads_as_a_never_read_twin(
            self, stage, event, data):
        """Read part of a shuffle (its store is built), then lose or
        rewrite map outputs the way recovery does: a lost node, the drop
        a failed CRC makes, a dropped shuffle, a resubmitted stage's
        overwrite.  Once lineage rewrote what was lost, every partition
        reads what a twin that was never read holds, byte for byte and
        booked alike."""
        num_partitions, tasks = stage
        mgr, twin = (ShuffleManager(Cluster(num_nodes=2)),
                     ShuffleManager(Cluster(num_nodes=2)))
        sid, twin_sid = (mgr.new_shuffle_id(len(tasks)),
                         twin.new_shuffle_id(len(tasks)))
        for map_partition, blocks in enumerate(tasks):
            write(mgr, sid, map_partition, blocks, parts=num_partitions)
            write(twin, twin_sid, map_partition, blocks,
                  parts=num_partitions)
        for p in data.draw(st.sets(st.integers(0, num_partitions - 1),
                                   min_size=1)):
            mgr.read(sid, p, ShuffleReadMetrics())
        built = mgr._stores.get(sid)
        if event == "node":
            mgr.invalidate_node(data.draw(st.sampled_from([0, 1])))
        elif event == "corrupt":     # what a failed CRC check drops
            mgr._shuffles[sid].pop(
                data.draw(st.integers(0, len(tasks) - 1)))
        elif event == "dropped":
            mgr.remove_shuffle(sid)
        lost = [m for m in range(len(tasks))
                if m not in mgr._shuffles.get(sid, {})]
        if lost:
            with pytest.raises(FetchFailedError) as err:
                mgr.read(sid, 0, ShuffleReadMetrics())
            assert err.value.missing_map_partitions == tuple(lost)
        rewritten = lost or data.draw(st.sets(
            st.integers(0, len(tasks) - 1), min_size=1))
        for m in sorted(rewritten):
            write(mgr, sid, m, tasks[m], parts=num_partitions)
        assert sid not in mgr._stores
        retired = None if built is None else weakref.ref(built)
        del built
        assert read_all(mgr, sid, num_partitions) == \
            read_all(twin, twin_sid, num_partitions)
        # the rebuilt store holds every output (unless the shuffle has
        # no rows to place); the retired one is gone
        store = mgr._stores[sid]
        assert store.block is None or all(
            out.store is store and not out.segments
            for out in mgr._shuffles[sid].values())
        assert retired is None or retired() is None


class TestStoreFetchFaults:
    """A store fires the fetch-fault draws of the bucket walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_store_and_loose_records_draw_and_fail_alike(self, seed):
        from repro.engine.faults import FaultInjector
        rng = np.random.default_rng(seed)
        blocks = [[KeyedRowBlock(rng.integers(0, 50, 40),
                                 rng.standard_normal((40, 2)))]
                  for _ in range(5)]

        def fetches(as_records):
            plan = FaultPlan(seed=seed, fetch_failure_prob=0.15)
            faults = FaultInjector(plan, None)
            mgr = ShuffleManager(Cluster(num_nodes=2), faults=faults)
            sid = mgr.new_shuffle_id(len(blocks))
            for m, written in enumerate(blocks):
                write(mgr, sid, m, [rec for blk in written
                                    for rec in blk.to_records()]
                      if as_records else written, parts=6)
            seen = []
            for _ in range(3):
                for p in range(6):
                    rm = ShuffleReadMetrics()
                    try:
                        mgr.read(sid, p, rm)
                        raised = None
                    except FetchFailedError as exc:
                        raised = (str(exc), exc.missing_map_partitions)
                    seen.append((p, raised, dataclasses.asdict(rm)))
            assert (mgr._stores[sid].block is None) == as_records
            return seen, faults._fetch_reads
        store, store_draws = fetches(False)
        loose, loose_draws = fetches(True)
        assert store == loose
        assert store_draws == loose_draws
        assert any(raised for _, raised, _ in store)
        # each read drew the pairs holding rows, in map order, up to the
        # one that failed, and booked the rows of those before it
        pids = [HashPartitioner(6).partition_int_keys(written[0].keys)
                for written in blocks]
        draws: dict = {}
        for p, raised, booked in store:
            held = [m for m in range(len(blocks)) if (pids[m] == p).any()]
            last = raised[1][0] if raised else len(blocks)
            for m in held:
                if m <= last:
                    draws[(0, m, p)] = draws.get((0, m, p), 0) + 1
            assert booked["local_records"] + booked["remote_records"] == \
                sum(int((pids[m] == p).sum()) for m in held if m < last)
        assert draws == store_draws

    @pytest.mark.parametrize("prob", [0.0, 0.15])
    def test_only_a_plan_that_injects_fetch_failures_is_asked(
            self, monkeypatch, prob):
        """A clean plan's store reads call ``maybe_fail_fetch`` never; a
        fetch-fault plan's call it once per pair holding rows, in map
        order, up to the pair that failed."""
        from repro.engine.faults import FaultInjector
        calls = []
        ask = FaultInjector.maybe_fail_fetch

        def spy(self, *site):
            calls.append(site)
            ask(self, *site)
        monkeypatch.setattr(FaultInjector, "maybe_fail_fetch", spy)
        rng = np.random.default_rng(0)
        keys = [rng.integers(0, 50, 40) for _ in range(5)]
        mgr = ShuffleManager(Cluster(num_nodes=2), faults=FaultInjector(
            FaultPlan(seed=0, fetch_failure_prob=prob), None))
        sid = mgr.new_shuffle_id(len(keys))
        for m, k in enumerate(keys):
            write(mgr, sid, m, [KeyedRowBlock(k, np.ones((40, 2)))],
                  parts=6)
        pids = [HashPartitioner(6).partition_int_keys(k) for k in keys]
        expected = []
        for p in range(6):
            try:
                mgr.read(sid, p, ShuffleReadMetrics())
                last = len(keys) - 1
            except FetchFailedError as exc:
                [last] = exc.missing_map_partitions
            expected += [(sid, m, p) for m in range(last + 1)
                         if (pids[m] == p).any()]
        assert mgr._stores[sid].block is not None
        assert calls == (expected if prob else [])
        assert not prob or len(calls) > 0


class TestStoreLifetime:
    def test_map_blocks_die_once_placed(self, mgr):
        sid = mgr.new_shuffle_id(2)
        refs = []
        for m in range(2):
            block = KeyedRowBlock(np.arange(50) % 7, np.ones((50, 2)))
            refs.append(weakref.ref(block))
            write(mgr, sid, m, [block])
            del block
        assert all(ref() is not None for ref in refs)
        mgr.read(sid, 0, ShuffleReadMetrics())
        assert all(ref() is None for ref in refs)
        assert all(not out.segments
                   for out in mgr._shuffles[sid].values())

    @pytest.mark.parametrize("how", ["remove_shuffle", "clear",
                                     "invalidate_node"])
    def test_no_store_outlives_its_shuffle(self, how):
        mgr = ShuffleManager(Cluster(num_nodes=2))
        sid = mgr.new_shuffle_id(4)
        for m in range(4):
            write(mgr, sid, m, [KeyedRowBlock(np.arange(30) % 5,
                                              np.ones((30, 2)))])
        mgr.read(sid, 1, ShuffleReadMetrics())
        store = weakref.ref(mgr._stores[sid])
        if how == "invalidate_node":
            mgr.invalidate_node(0)      # the survivors still hold it
            assert sid not in mgr._stores and store() is not None
            mgr.invalidate_node(1)
        else:
            getattr(mgr, how)(*([sid] if how == "remove_shuffle" else []))
        assert not mgr._stores and store() is None

    def test_drop_shuffle_outputs_leaves_no_store(self):
        from repro.engine import Context
        rng = np.random.default_rng(2)
        blocks = [KeyedRowBlock(rng.integers(0, 40, 25),
                                rng.standard_normal((25, 2)))
                  for _ in range(4)]
        with Context(num_nodes=2, default_parallelism=4) as ctx:
            rows = ctx.parallelize_blocks(blocks).partition_by(
                HashPartitioner(3)).collect()
            assert sum(len(b) for b in rows) == 100
            stores = [weakref.ref(s)
                      for s in ctx._shuffle_manager._stores.values()]
            assert stores
            ctx.drop_shuffle_outputs()
            assert not ctx._shuffle_manager._stores
            assert all(ref() is None for ref in stores)
