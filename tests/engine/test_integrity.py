"""The data-integrity layer: sealing, verification, healing, metrics.

Exercises every checksummed surface — shuffle blocks, broadcast
payloads, serialized cache entries, spilled sort runs — under a seeded
corruption plan, asserting that corruption is always *detected* (never
surfaces as wrong data), that each surface heals through its designated
recovery path, and that with integrity off the data path stays
blob-free.
"""

from __future__ import annotations

import pytest

from repro.engine import (Context, CorruptedBlockError, CorruptedDataError,
                          EngineConf, FaultPlan, FetchFailedError,
                          IntegrityManager, IntegrityMetrics, StorageLevel)
from repro.engine.faults import site_rng
from repro.engine.integrity import flip_byte
from repro.engine.serialization import serialize_partition

INTEGRITY = EngineConf(integrity=True)


def wordcount(ctx, n=60, parts=6, reducers=6):
    """A 2-stage job with one full shuffle."""
    return (ctx.parallelize([(i % 5, 1) for i in range(n)], parts)
            .reduce_by_key(lambda a, b: a + b, reducers))


EXPECTED = {k: 12 for k in range(5)}


def integrity_enabled(conf=None) -> bool:
    with Context(num_nodes=2, conf=conf) as ctx:
        assert ctx.integrity.enabled is ctx.conf.integrity
        return ctx.integrity.enabled


class TestFlagResolution:
    """The switch as the integrity manager sees it (the precedence
    table itself is in ``test_conf.py``)."""

    def test_conf_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_INTEGRITY", raising=False)
        assert integrity_enabled(EngineConf(integrity=True)) is True
        assert integrity_enabled(EngineConf(integrity=False)) is False

    def test_env_fallback(self, monkeypatch):
        for truthy in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_INTEGRITY", truthy)
            assert integrity_enabled() is True
        monkeypatch.setenv("REPRO_INTEGRITY", "0")
        assert integrity_enabled() is False
        monkeypatch.delenv("REPRO_INTEGRITY")
        assert integrity_enabled() is False

    def test_conf_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTEGRITY", "1")
        assert integrity_enabled(EngineConf(integrity=False)) is False


class TestFaultPlanKnobs:
    def test_corruption_probs_validated(self):
        with pytest.raises(ValueError, match="corrupt_block_prob"):
            FaultPlan(corrupt_block_prob=1.5)
        with pytest.raises(ValueError, match="torn_write_prob"):
            FaultPlan(torn_write_prob=-0.1)

    def test_corruption_plan_not_null(self):
        assert not FaultPlan(corrupt_block_prob=0.1).is_null
        assert not FaultPlan(torn_write_prob=0.1).is_null
        assert not FaultPlan(corrupt_checkpoint_prob=0.1).is_null
        assert FaultPlan().is_null


class TestIntegrityManager:
    def test_disabled_manager_is_transparent(self):
        mgr = IntegrityManager(False, FaultPlan(), IntegrityMetrics())
        blob = b"anything"
        assert mgr.checked_read("shuffle", (0, 0, 0), blob, 0) is blob
        assert not mgr.metrics.any_activity

    def test_clean_read_verifies(self):
        metrics = IntegrityMetrics()
        mgr = IntegrityManager(True, FaultPlan(), metrics)
        blob = serialize_partition([(1, 2.0)])
        checksum = mgr.seal(blob)
        assert mgr.checked_read("cache", ("k",), blob, checksum) == blob
        assert metrics.blocks_verified == 1
        assert metrics.corrupted_blocks == 0
        assert metrics.checksum_bytes == 2 * len(blob)

    def test_tampered_blob_returns_none(self):
        metrics = IntegrityMetrics()
        mgr = IntegrityManager(True, FaultPlan(), metrics)
        blob = serialize_partition([(1, 2.0)])
        checksum = mgr.seal(blob)
        bad = flip_byte(blob, 3)
        assert mgr.checked_read("cache", ("k",), bad, checksum) is None
        assert metrics.corrupted_blocks == 1

    def test_injection_hits_first_read_only(self):
        plan = FaultPlan(corrupt_block_prob=1.0)
        metrics = IntegrityMetrics()
        mgr = IntegrityManager(True, plan, metrics)
        blob = serialize_partition([(1, 2.0)])
        checksum = mgr.seal(blob)
        assert mgr.checked_read("spill", (0,), blob, checksum) is None
        assert metrics.corruptions_injected == 1
        # the stored copy is pristine; the retry read is clean
        assert mgr.checked_read("spill", (0,), blob, checksum) == blob
        assert metrics.corruptions_injected == 1
        assert metrics.corrupted_blocks == 1

    def test_site_rng_is_order_independent(self):
        for seed in (0, 1, 2):
            a = site_rng(seed, "corrupt", "shuffle", 1, 2, 3).random()
            b = site_rng(seed, "corrupt", "shuffle", 1, 2, 3).random()
            assert a == b
            assert a != site_rng(seed, "corrupt", "shuffle", 1, 2,
                                 4).random()


class TestErrorHierarchy:
    def test_corrupted_block_is_fetch_failure(self):
        exc = CorruptedBlockError("boom", shuffle_id=3, reduce_partition=1,
                                  missing_map_partitions=(2,), node=7)
        assert isinstance(exc, FetchFailedError)
        assert isinstance(exc, CorruptedDataError)
        assert exc.kind == "shuffle"
        assert exc.site == (3, 1)
        assert exc.missing_map_partitions == (2,)
        assert exc.node == 7


class TestShuffleIntegrity:
    def test_clean_run_verifies_blocks(self):
        with Context(num_nodes=4, default_parallelism=8,
                     conf=INTEGRITY) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            assert ctx.metrics.integrity.blocks_verified > 0
            assert ctx.metrics.integrity.corrupted_blocks == 0
            assert ctx.metrics.integrity.checksum_bytes > 0

    def test_corruption_detected_and_healed(self):
        plan = FaultPlan(corrupt_block_prob=1.0)
        with Context(num_nodes=4, default_parallelism=8, fault_plan=plan,
                     conf=INTEGRITY) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            integrity = ctx.metrics.integrity
            assert integrity.corrupted_blocks > 0
            assert integrity.corruptions_injected == \
                integrity.corrupted_blocks
            assert integrity.recompute_recoveries > 0

    def test_corruption_without_integrity_is_silent(self):
        # the whole point of the layer: without it the plan's corruption
        # knob has no detector to trip (and no bytes are sealed at all)
        plan = FaultPlan(corrupt_block_prob=1.0)
        with Context(num_nodes=4, default_parallelism=8, fault_plan=plan,
                     conf=EngineConf(integrity=False)) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            assert not ctx.metrics.integrity.any_activity


class TestBroadcastIntegrity:
    def test_broadcast_round_trip_verified(self):
        with Context(num_nodes=4, default_parallelism=4,
                     conf=INTEGRITY) as ctx:
            bc = ctx.broadcast({"a": 1, "b": 2})
            total = ctx.parallelize(["a", "b", "a"], 2).map(
                lambda k: bc.value[k]).sum()
            assert total == 4
            assert ctx.metrics.integrity.blocks_verified >= 1

    def test_broadcast_none_payload(self):
        with Context(num_nodes=2, default_parallelism=2,
                     conf=INTEGRITY) as ctx:
            bc = ctx.broadcast(None)
            assert bc.value is None
            assert bc.value is None  # cached path

    def test_broadcast_corruption_heals_via_task_retry(self):
        plan = FaultPlan(corrupt_block_prob=1.0)
        with Context(num_nodes=4, default_parallelism=4, fault_plan=plan,
                     conf=INTEGRITY) as ctx:
            bc = ctx.broadcast([10, 20, 30])
            out = ctx.parallelize(range(3), 3).map(
                lambda i: bc.value[i]).collect()
            assert out == [10, 20, 30]
            integrity = ctx.metrics.integrity
            assert integrity.corrupted_blocks >= 1
            assert integrity.recompute_recoveries >= 1


class TestCacheIntegrity:
    def test_serialized_cache_verified_on_hit(self):
        with Context(num_nodes=2, default_parallelism=2,
                     conf=INTEGRITY) as ctx:
            rdd = ctx.parallelize(range(20), 2).map(
                lambda x: x * 2).persist(StorageLevel.MEMORY_SER)
            assert rdd.sum() == 380
            before = ctx.metrics.integrity.blocks_verified
            assert rdd.sum() == 380  # second action hits the cache
            assert ctx.metrics.integrity.blocks_verified > before

    def test_cache_corruption_becomes_miss_and_recomputes(self):
        plan = FaultPlan(corrupt_block_prob=1.0)
        with Context(num_nodes=2, default_parallelism=2, fault_plan=plan,
                     conf=INTEGRITY) as ctx:
            rdd = ctx.parallelize(range(20), 2).map(
                lambda x: x * 2).persist(StorageLevel.MEMORY_SER)
            assert rdd.sum() == 380
            assert rdd.sum() == 380
            integrity = ctx.metrics.integrity
            assert integrity.corrupted_blocks >= 1
            assert integrity.recompute_recoveries >= 1


class TestSpillIntegrity:
    def test_spilled_runs_verified(self):
        conf = EngineConf(integrity=True, memory_total_bytes=20_000)
        with Context(num_nodes=2, default_parallelism=2,
                     conf=conf) as ctx:
            result = (ctx.parallelize([(i % 50, 1.0) for i in range(3000)],
                                      2)
                      .reduce_by_key(lambda a, b: a + b, 2)
                      .collect_as_map())
            assert result == {k: 60.0 for k in range(50)}
            if ctx.metrics.memory.spill_count:
                assert ctx.metrics.integrity.blocks_verified > 0

    def test_spill_corruption_detected(self):
        plan = FaultPlan(corrupt_block_prob=1.0)
        conf = EngineConf(integrity=True, memory_total_bytes=20_000)
        with Context(num_nodes=2, default_parallelism=2, fault_plan=plan,
                     conf=conf) as ctx:
            result = (ctx.parallelize([(i % 50, 1.0) for i in range(3000)],
                                      2)
                      .reduce_by_key(lambda a, b: a + b, 2)
                      .collect_as_map())
            assert result == {k: 60.0 for k in range(50)}
            integrity = ctx.metrics.integrity
            if ctx.metrics.memory.spill_count:
                assert integrity.corrupted_blocks >= 1


class TestMetricsSummary:
    def test_summary_includes_integrity_line(self):
        with Context(num_nodes=2, default_parallelism=2,
                     conf=INTEGRITY) as ctx:
            wordcount(ctx).collect_as_map()
            assert "integrity" in ctx.metrics.summary()

    def test_summary_silent_when_off(self):
        with Context(num_nodes=2, default_parallelism=2,
                     conf=EngineConf(integrity=False)) as ctx:
            wordcount(ctx).collect_as_map()
            assert "integrity" not in ctx.metrics.summary()
