"""Cost model: stats extraction, arithmetic, scaling laws."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import COMET, CostModel, HardwareProfile, RunStats

from ..strategies import examples


def make_stats(**kw) -> RunStats:
    base = dict(records_processed=1_000_000, shuffle_total_bytes=50_000_000,
                shuffle_records=900_000, shuffle_rounds=9, flops=1e9,
                num_jobs=12, node_skew=1.1)
    base.update(kw)
    return RunStats(**base)


class TestRunStatsFromMetrics:
    def test_extracts_shuffle_volume(self, ctx):
        ctx.parallelize([(i, i) for i in range(100)], 4).reduce_by_key(
            lambda a, b: a + b, 4, map_side_combine=False).collect()
        stats = RunStats.from_metrics(ctx.metrics, flops=123.0)
        assert stats.shuffle_records == 100
        assert stats.shuffle_total_bytes > 0
        assert stats.shuffle_rounds == 1
        assert stats.flops == 123.0
        assert stats.num_jobs == 1
        assert stats.node_skew >= 1.0

    def test_cache_bytes_captured(self, ctx):
        rdd = ctx.parallelize(range(100), 4).cache()
        rdd.count()
        stats = RunStats.from_metrics(ctx.metrics)
        assert stats.cache_bytes > 0
        rdd.unpersist()

    def test_empty_metrics(self, ctx):
        stats = RunStats.from_metrics(ctx.metrics)
        assert stats.records_processed == 0
        assert stats.node_skew == 1.0


class TestRunStatsArithmetic:
    def test_add_then_sub_roundtrip(self):
        a, b = make_stats(), make_stats(shuffle_rounds=3, num_jobs=2)
        c = (a + b) - b
        assert c.records_processed == a.records_processed
        assert c.shuffle_rounds == a.shuffle_rounds
        assert c.num_jobs == a.num_jobs

    def test_sub_clamps_at_zero(self):
        small = make_stats(records_processed=1)
        big = make_stats(records_processed=100)
        assert (small - big).records_processed == 0

    def test_mul_scales_rounds_too(self):
        s = make_stats(shuffle_rounds=2) * 10
        assert s.shuffle_rounds == 20
        assert s.records_processed == 10_000_000

    def test_scaled_keeps_rounds(self):
        s = make_stats(shuffle_rounds=9).scaled(1000.0)
        assert s.shuffle_rounds == 9            # intensive
        assert s.records_processed == 10 ** 9   # extensive
        assert s.flops == pytest.approx(1e12)

    def test_rmul(self):
        assert (2 * make_stats()).records_processed == 2_000_000

    def test_every_field_has_a_rule(self):
        """+, -, * and scaled loop over the fields and apply each one's
        kind; a field added without one must fail here, by name."""
        assert [f.name for f in dataclasses.fields(RunStats)
                if "kind" not in f.metadata] == []
        a, b = make_stats(node_skew=1.5), make_stats(node_skew=2.0)
        assert (a + b).node_skew == (a - b).node_skew == 2.0
        assert (a * 3).node_skew == a.scaled(3.0).node_skew == 1.5


class TestCostModel:
    def test_remote_fraction(self):
        m = CostModel()
        assert m.remote_fraction(1) == 0.0
        assert m.remote_fraction(4) == 0.75
        assert m.remote_fraction(32) == pytest.approx(31 / 32)
        with pytest.raises(ValueError):
            m.remote_fraction(0)

    def test_round_latency_grows_with_nodes(self):
        m = CostModel()
        assert m.round_latency(32) > m.round_latency(4)

    def test_estimate_positive_total(self):
        t = CostModel().estimate(make_stats(), 8)
        assert t.total_s > 0
        assert t.total_s == pytest.approx(
            t.compute_s + t.network_s + t.round_latency_s
            + t.job_latency_s + t.disk_s + t.startup_s)

    def test_compute_shrinks_with_nodes(self):
        m = CostModel()
        t4 = m.estimate(make_stats(), 4)
        t32 = m.estimate(make_stats(), 32)
        assert t32.compute_s < t4.compute_s

    def test_round_latency_grows_in_estimate(self):
        m = CostModel()
        assert m.estimate(make_stats(), 32).round_latency_s > \
            m.estimate(make_stats(), 4).round_latency_s

    def test_spark_mode_has_no_disk_or_startup(self):
        t = CostModel().estimate(make_stats(hadoop_jobs=4,
                                            hdfs_write_bytes=10**9), 8,
                                 mode="spark")
        assert t.disk_s == 0.0
        assert t.startup_s == 0.0

    def test_hadoop_mode_prices_disk_and_startup(self):
        t = CostModel().estimate(
            make_stats(hadoop_jobs=4, hdfs_write_bytes=10**9,
                       hdfs_read_bytes=10**9), 8, mode="hadoop")
        assert t.disk_s > 0
        assert t.startup_s == 4 * COMET.hadoop_job_startup_s

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CostModel().estimate(make_stats(), 4, mode="flink")

    def test_skew_multiplies_compute(self):
        m = CostModel()
        balanced = m.estimate(make_stats(node_skew=1.0), 8)
        skewed = m.estimate(make_stats(node_skew=2.0), 8)
        assert skewed.compute_s == pytest.approx(2 * balanced.compute_s)

    def test_sweep_covers_nodes(self):
        out = CostModel().sweep(make_stats(), [4, 8, 16])
        assert set(out) == {4, 8, 16}

    def test_fatter_records_cost_more_cpu(self):
        m = CostModel()
        lean = m.estimate(make_stats(shuffle_total_bytes=10**7), 8)
        fat = m.estimate(make_stats(shuffle_total_bytes=10**9), 8)
        assert fat.compute_s > lean.compute_s

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=examples(30))
    def test_total_finite_for_any_cluster(self, nodes):
        t = CostModel().estimate(make_stats(), nodes)
        assert 0 < t.total_s < float("inf")

    def test_custom_profile_used(self):
        slow = HardwareProfile(network_bw_bytes_per_s=1.0)
        fast = HardwareProfile(network_bw_bytes_per_s=1e12)
        s = make_stats()
        assert CostModel(slow).estimate(s, 8).network_s > \
            CostModel(fast).estimate(s, 8).network_s
