"""Unified memory manager: pools, spillable aggregation, demotion, OOM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (Context, EngineConf, FaultPlan,
                          LEVEL_MEMORY_FACTOR, MemoryManager,
                          SpillableAppendOnlyMap, StorageLevel,
                          demote_level)
from repro.engine.metrics import MetricsCollector
from repro.engine.shuffle import Aggregator
from repro.engine.storage import CacheManager

SUM = Aggregator(create_combiner=lambda v: v,
                 merge_value=lambda c, v: c + v,
                 merge_combiners=lambda a, b: a + b)


class TestMemoryManager:
    def test_storage_charge_release_and_peak(self):
        metrics = MetricsCollector()
        mm = MemoryManager(metrics=metrics)
        mm.charge_storage(100)
        mm.charge_storage(50)
        assert mm.storage_used == 150
        mm.release_storage(120)
        assert mm.storage_used == 30
        assert metrics.memory.storage_peak_bytes == 150

    def test_unbounded_execution_always_granted(self):
        mm = MemoryManager()
        assert mm.try_acquire_execution(10**12)

    def test_execution_budget_denies_over_request(self):
        mm = MemoryManager(total_bytes=1000, memory_fraction=1.0,
                           storage_fraction=0.5)
        assert mm.try_acquire_execution(600)
        assert not mm.try_acquire_execution(600)
        mm.release_execution(600)
        assert mm.try_acquire_execution(600)

    def test_execution_reclaims_storage_down_to_floor(self):
        mm = MemoryManager(total_bytes=1000, memory_fraction=1.0,
                           storage_fraction=0.5)
        mm.charge_storage(900)  # storage grew into free execution memory
        reclaimed = []

        def reclaimer(nbytes):
            reclaimed.append(nbytes)
            mm.release_storage(nbytes)
            return nbytes

        mm.set_storage_reclaimer(reclaimer)
        # needs 400; free = 100; storage may shrink to its 500 floor
        assert mm.try_acquire_execution(400)
        assert reclaimed == [300]
        assert mm.storage_used == 600
        # a further request would push storage below the floor: denied
        assert not mm.try_acquire_execution(300)

    def test_storage_cap_excess(self):
        mm = MemoryManager(storage_cap_bytes=100)
        mm.charge_storage(175)
        assert mm.storage_excess() == 75
        mm.release_storage(100)
        assert mm.storage_excess() == 0

    def test_validates_fractions(self):
        with pytest.raises(ValueError):
            MemoryManager(total_bytes=100, memory_fraction=0.0)
        with pytest.raises(ValueError):
            MemoryManager(total_bytes=100, storage_fraction=1.5)
        with pytest.raises(ValueError):
            MemoryManager(total_bytes=-1)

    def test_demotion_chain(self):
        assert demote_level(StorageLevel.MEMORY_RAW) is \
            StorageLevel.MEMORY_SER
        assert demote_level(StorageLevel.MEMORY_SER) is StorageLevel.DISK
        assert demote_level(StorageLevel.MEMORY_AND_DISK) is \
            StorageLevel.MEMORY_AND_DISK_SER
        assert demote_level(StorageLevel.MEMORY_AND_DISK_SER) is \
            StorageLevel.DISK
        assert demote_level(StorageLevel.DISK) is None

    def test_demotion_strictly_shrinks_footprint(self):
        for level in StorageLevel:
            nxt = demote_level(level)
            if nxt is not None:
                assert LEVEL_MEMORY_FACTOR[nxt] < LEVEL_MEMORY_FACTOR[level]


class TestRowSumAggregator:
    def test_books_once_and_keeps_the_block_whole(self):
        """The row sum's combined block is booked once, charged like
        the records it stands for, and released; a denied booking
        hands back the same block whole, and nothing spills."""
        from repro.engine import KeyedRowBlock
        from repro.kernels.vectorized import RowSumAggregator
        rng = np.random.default_rng(8)
        batch = [KeyedRowBlock(rng.integers(0, 400, 1500),
                               rng.standard_normal((1500, 2)))]

        metrics = MetricsCollector()
        free = MemoryManager(metrics=metrics)
        (held,) = RowSumAggregator().combine(batch, memory=free)
        assert type(held) is KeyedRowBlock
        assert metrics.memory.execution_peak_bytes == \
            len(held) * (24 + 8 * 2)
        assert free.execution_used == 0

        metrics = MetricsCollector()
        tight = MemoryManager(total_bytes=6000, memory_fraction=1.0,
                              storage_fraction=0.1, metrics=metrics)
        (denied,) = RowSumAggregator().combine(batch, memory=tight)
        assert metrics.memory.execution_peak_bytes == 0
        assert metrics.memory.shuffle_spill_count == 0
        assert metrics.memory.shuffle_spill_bytes == 0
        assert tight.execution_used == 0
        assert denied.keys.tobytes() == held.keys.tobytes()
        assert denied.rows.tobytes() == held.rows.tobytes()


class TestSpillableAppendOnlyMap:
    def test_no_spill_preserves_insertion_and_merge_order(self):
        buf = SpillableAppendOnlyMap(MemoryManager(), SUM)
        expected = {}
        for i in [3, 1, 3, 2, 1, 3]:
            buf.insert(i, i * 10)
            expected[i] = expected.get(i, 0) + i * 10
        assert not buf.spilled
        # exact dict order of the old in-memory combine path
        assert buf.merged_items() == list(expected.items())

    def test_forced_spill_same_totals(self):
        metrics = MetricsCollector()
        mm = MemoryManager(total_bytes=2000, memory_fraction=1.0,
                           storage_fraction=0.1, metrics=metrics)
        buf = SpillableAppendOnlyMap(mm, SUM)
        for i in range(2000):
            buf.insert(i % 500, 1)
        assert buf.spilled
        merged = dict(buf.merged_items())
        assert merged == {k: 4 for k in range(500)}
        assert metrics.memory.shuffle_spill_bytes > 0
        assert metrics.memory.shuffle_spill_count > 0
        assert metrics.memory.spill_read_bytes == \
            metrics.memory.shuffle_spill_bytes
        # all execution memory returned
        assert mm.execution_used == 0

    def test_insert_combiner_merges_across_runs(self):
        mm = MemoryManager(total_bytes=2000, memory_fraction=1.0,
                           storage_fraction=0.1)
        buf = SpillableAppendOnlyMap(mm, SUM)
        for i in range(3000):
            buf.insert_combiner(i % 600, 2)
        assert buf.spilled
        assert dict(buf.merged_items()) == {k: 10 for k in range(600)}

    def test_reduce_by_key_spills_and_matches_unbounded(self):
        data = [(i % 500, float(i)) for i in range(1500)]
        conf = EngineConf(memory_total_bytes=8_000, memory_fraction=1.0,
                          storage_fraction=0.1)
        with Context(num_nodes=2, default_parallelism=4) as free:
            want = free.parallelize(data, 4).reduce_by_key(
                lambda a, b: a + b).collect_as_map()
        with Context(num_nodes=2, default_parallelism=4,
                     conf=conf) as tight:
            got = tight.parallelize(data, 4).reduce_by_key(
                lambda a, b: a + b).collect_as_map()
            mem = tight.metrics.memory
            assert mem.shuffle_spill_bytes > 0
            assert mem.execution_peak_bytes > 0
        assert got == want


class TestCacheDemotion:
    def test_and_disk_demotes_instead_of_evicting(self):
        metrics = MetricsCollector()
        cm = CacheManager(capacity_bytes=2000, metrics=metrics)
        for i in range(6):
            cm.put(i, 0, list(range(100)), StorageLevel.MEMORY_AND_DISK)
        assert cm.evictions == 0
        assert cm.used_bytes <= 2000
        assert metrics.memory.demotions > 0
        assert metrics.memory.cache_spill_bytes > 0
        # every partition still readable, served from simulated disk
        for i in range(6):
            assert cm.get(i, 0) == list(range(100))
        assert metrics.cache_disk_read_bytes > 0

    def test_demoted_numpy_roundtrip_is_exact(self):
        cm = CacheManager(capacity_bytes=300)
        arrays = [np.arange(40, dtype=np.float64) * 1.7 for _ in range(4)]
        for i, a in enumerate(arrays):
            cm.put(i, 0, [a], StorageLevel.MEMORY_AND_DISK)
        for i, a in enumerate(arrays):
            (got,) = cm.get(i, 0)
            assert np.array_equal(got, a)

    def test_disk_level_charges_no_memory(self):
        cm = CacheManager(capacity_bytes=100)
        cm.put(1, 0, list(range(1000)), StorageLevel.DISK)
        assert cm.used_bytes == 0
        assert cm.get(1, 0) == list(range(1000))

    def test_stored_bytes_decrement_on_unpersist(self):
        metrics = MetricsCollector()
        cm = CacheManager(metrics=metrics)
        cm.put(1, 0, list(range(100)), StorageLevel.MEMORY_RAW)
        cm.put(1, 1, list(range(100)), StorageLevel.MEMORY_RAW)
        assert metrics.cache_stored_bytes["memory_raw"] > 0
        cm.unpersist(1)
        assert metrics.cache_stored_bytes["memory_raw"] == 0
        # the cumulative counter keeps the history
        assert metrics.cache_bytes_written["memory_raw"] > 0

    def test_stored_bytes_decrement_on_eviction(self):
        metrics = MetricsCollector()
        cm = CacheManager(capacity_bytes=2000, metrics=metrics)
        for i in range(10):
            cm.put(i, 0, list(range(100)), StorageLevel.MEMORY_RAW)
        assert cm.evictions > 0
        assert metrics.cache_stored_bytes["memory_raw"] == cm.used_bytes

    def test_oversized_memory_only_entry_counted(self):
        metrics = MetricsCollector()
        cm = CacheManager(capacity_bytes=100, metrics=metrics)
        cm.put(1, 0, list(range(500)), StorageLevel.MEMORY_RAW)
        # nowhere to put it: stays resident, loudly accounted
        assert cm.get(1, 0) is not None
        assert metrics.memory.oversized_entries >= 1

    def test_oversized_and_disk_entry_demotes_instead(self):
        metrics = MetricsCollector()
        cm = CacheManager(capacity_bytes=100, metrics=metrics)
        cm.put(1, 0, list(range(500)), StorageLevel.MEMORY_AND_DISK)
        assert metrics.memory.oversized_entries == 0
        assert cm.used_bytes == 0  # demoted to disk
        assert cm.get(1, 0) == list(range(500))

    def test_execution_pressure_demotes_cached_data(self):
        """Unified mode: a shuffle that needs memory forces AND_DISK
        cache entries out of the storage pool, not out of existence."""
        conf = EngineConf(memory_total_bytes=20_000, memory_fraction=1.0,
                          storage_fraction=0.1)
        with Context(num_nodes=2, default_parallelism=4,
                     conf=conf) as ctx:
            cached = ctx.parallelize(list(range(1000)), 4).persist(
                StorageLevel.MEMORY_AND_DISK)
            assert cached.count() == 1000
            big = [(i % 40, float(i)) for i in range(2000)]
            totals = ctx.parallelize(big, 4).reduce_by_key(
                lambda a, b: a + b).collect_as_map()
            assert len(totals) == 40
            # the cached RDD is still fully readable afterwards
            assert cached.collect() == list(range(1000))


class TestOOMInjection:
    def test_oom_kill_then_demotion_recovers(self):
        plan = FaultPlan(seed=0, oom_node_budgets={n: 800 for n in range(2)})
        with Context(num_nodes=2, default_parallelism=4,
                     fault_plan=plan) as ctx:
            rdd = ctx.parallelize(list(range(400)), 4).cache()
            assert sum(rdd.collect()) == sum(range(400))
            mem = ctx.metrics.memory
            assert mem.oom_kills >= 1
            assert mem.demotions >= 1
            assert any("oom:" in e for e in mem.demotion_events)
            # the cached RDD landed on a smaller level, not MEMORY_RAW
            assert rdd.storage_level is not StorageLevel.MEMORY_RAW

    def test_oom_spill_mode_when_nothing_demotable(self):
        """An uncached over-budget task cannot demote anything; it
        reruns in spill mode with a streaming footprint."""
        plan = FaultPlan(seed=0, oom_node_budgets={n: 500 for n in range(2)})
        with Context(num_nodes=2, default_parallelism=2,
                     fault_plan=plan) as ctx:
            out = ctx.parallelize(list(range(500)), 2).map(
                lambda x: x * 2).collect()
            assert out == [x * 2 for x in range(500)]
            mem = ctx.metrics.memory
            assert mem.oom_kills >= 1
            assert mem.task_spill_bytes > 0

    def test_oom_budget_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(oom_node_budgets={0: 0})
        assert FaultPlan(oom_node_budgets={0: 100}).is_null is False
        assert FaultPlan().is_null
