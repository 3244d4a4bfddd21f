"""Structured fault injection: plans, node loss, lineage recovery.

These tests drive the fault framework end to end: seeded probabilistic
task/fetch faults, deterministic node kills, node quarantine and the
scheduler's lineage-based shuffle recovery, asserting both that results
are unchanged and that :class:`FaultMetrics` records what happened.
"""

from __future__ import annotations

import pytest

from repro.engine import (Context, EngineConf, EngineError, FaultPlan,
                          FetchFailedError, JobExecutionError,
                          NodeKillEvent)

def wordcount(ctx, n=60, parts=6, reducers=6):
    return (ctx.parallelize([(i % 5, 1) for i in range(n)], parts)
            .reduce_by_key(lambda a, b: a + b, reducers))


EXPECTED = {k: 12 for k in range(5)}


class TestFaultPlanValidation:
    def test_probabilities_bounded(self):
        with pytest.raises(ValueError, match="task_failure_prob"):
            FaultPlan(task_failure_prob=1.5)
        with pytest.raises(ValueError, match="fetch_failure_prob"):
            FaultPlan(fetch_failure_prob=-0.1)

    def test_failure_mode_checked(self):
        with pytest.raises(ValueError, match="task_failure_mode"):
            FaultPlan(task_failure_mode="sideways")

    def test_kill_event_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            NodeKillEvent(node_id=1)
        with pytest.raises(ValueError, match="exactly one"):
            NodeKillEvent(node_id=1, at_stage=0, after_tasks=3)
        NodeKillEvent(node_id=1, at_iteration=2)  # fine

    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not FaultPlan(task_failure_prob=0.1).is_null


class TestInjectedTaskFaults:
    def test_lazy_midstream_fault_is_retried(self):
        plan = FaultPlan(task_failure_prob=1.0,
                         task_failure_mode="lazy")
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            faults = ctx.metrics.faults
            assert faults.injected_task_failures > 0
            assert faults.tasks_retried > 0
            assert faults.task_failures > 0

    def test_eager_fault_is_retried(self):
        plan = FaultPlan(task_failure_prob=1.0,
                         task_failure_mode="eager")
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            assert sorted(
                ctx.parallelize(range(20), 4).map(lambda x: x * 2)
                .collect()) == sorted(x * 2 for x in range(20))
            assert ctx.metrics.faults.injected_task_failures > 0

    def test_seeded_plans_replay_identically(self):
        def run(seed):
            plan = FaultPlan(seed=seed, task_failure_prob=0.4)
            with Context(num_nodes=4, default_parallelism=8,
                         fault_plan=plan) as ctx:
                out = wordcount(ctx).collect_as_map()
                return out, ctx.metrics.faults.injected_task_failures
        for seed in (0, 1, 2):
            out_a, n_a = run(seed)
            out_b, n_b = run(seed)
            assert out_a == out_b == EXPECTED
            assert n_a == n_b

    def test_stragglers_counted(self):
        plan = FaultPlan(slow_task_prob=1.0,
                         slow_task_delay_s=1e-4)
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            ctx.parallelize(range(8), 4).count()
            assert ctx.metrics.stragglers.injected_slow_tasks >= 4


class TestFetchFailureRecovery:
    def test_injected_fetch_failures_recovered(self):
        conf = EngineConf(stage_max_failures=50)
        for seed in (0, 1, 2):
            plan = FaultPlan(seed=seed, fetch_failure_prob=0.3)
            with Context(num_nodes=4, default_parallelism=4, conf=conf,
                         fault_plan=plan) as ctx:
                rdd = (ctx.parallelize([(i % 2, 1) for i in range(16)], 2)
                       .reduce_by_key(lambda a, b: a + b, 2))
                # several reads, so every seed draws enough fetch
                # decisions
                for _ in range(4):
                    assert rdd.collect_as_map() == {0: 8, 1: 8}
                faults = ctx.metrics.faults
                assert faults.fetch_failures > 0
                # injected fetch failures are transient: no map output
                # was actually lost, so the retried read succeeds
                # without recomputing parents
                assert faults.stages_resubmitted == 0

    def test_exhausted_stage_retries_surface(self):
        plan = FaultPlan(fetch_failure_prob=1.0)
        conf = EngineConf(stage_max_failures=2)
        with Context(num_nodes=4, default_parallelism=8, conf=conf,
                     fault_plan=plan) as ctx:
            with pytest.raises(JobExecutionError) as err:
                wordcount(ctx).collect_as_map()
            assert isinstance(err.value.__cause__, FetchFailedError)
            assert ctx.metrics.faults.fetch_failures == 2


class TestNodeLoss:
    def test_kill_between_jobs_recovers_shuffle_output(self):
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            rdd = wordcount(ctx)
            assert rdd.collect_as_map() == EXPECTED
            ctx.kill_node(1)
            # node 1's map outputs are gone; the planner sees the
            # incomplete shuffle and re-executes the map stage from
            # lineage before the reduce stage reads it
            assert rdd.collect_as_map() == EXPECTED
            faults = ctx.metrics.faults
            assert faults.nodes_killed == 1
            assert faults.map_outputs_lost == 2  # partitions 1 and 5
            assert ctx.metrics.jobs[-1].shuffle_rounds == 1  # re-executed

    def test_kill_invalidates_cached_partitions(self):
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            rdd = ctx.parallelize(range(40), 8).map(lambda x: x + 1).cache()
            assert rdd.count() == 40
            ctx.kill_node(2)
            assert ctx.metrics.faults.cached_partitions_lost > 0
            assert sorted(rdd.collect()) == list(range(1, 41))

    def test_kill_at_stage_trigger(self):
        plan = FaultPlan(node_kills=(NodeKillEvent(node_id=1, at_stage=1),))
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            assert ctx.metrics.faults.nodes_killed == 1
            assert not ctx.cluster.is_available(1)

    def test_kill_after_tasks_loses_live_map_output(self):
        """The hard case: the node dies mid-stage, after already having
        written a map output.  The reduce-side read detects the
        incomplete shuffle (FetchFailedError) and the scheduler
        resubmits the map stage from lineage."""
        plan = FaultPlan(
            node_kills=(NodeKillEvent(node_id=1, after_tasks=4),))
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            faults = ctx.metrics.faults
            assert faults.nodes_killed == 1
            assert faults.map_outputs_lost > 0
            assert faults.fetch_failures > 0
            assert faults.stages_resubmitted > 0
            assert faults.records_recomputed > 0

    def test_kill_fires_once(self):
        plan = FaultPlan(node_kills=(NodeKillEvent(node_id=1, at_stage=0),))
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan) as ctx:
            ctx.parallelize(range(8), 4).count()
            ctx.parallelize(range(8), 4).count()
            assert ctx.metrics.faults.nodes_killed == 1

    def test_cannot_kill_last_node(self):
        with Context(num_nodes=2, default_parallelism=4) as ctx:
            ctx.kill_node(0)
            with pytest.raises(EngineError, match="last"):
                ctx.kill_node(1)

    def test_kill_is_idempotent(self):
        with Context(num_nodes=3, default_parallelism=6) as ctx:
            ctx.kill_node(0)
            ctx.kill_node(0)
            assert ctx.metrics.faults.nodes_killed == 1


class TestNodeExclusion:
    def test_broken_node_excluded_and_tasks_replaced(self):
        """Quarantine with a long term is how a broken node is sidelined:
        two failures cross the threshold, the node sits out and its
        partitions are re-placed onto healthy nodes."""
        plan = FaultPlan(broken_nodes=(1,))
        conf = EngineConf(task_max_failures=6, quarantine_threshold=2.0,
                          quarantine_duration_s=1e6)
        with Context(num_nodes=4, default_parallelism=8, conf=conf,
                     fault_plan=plan) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            faults = ctx.metrics.faults
            assert ctx.metrics.stragglers.nodes_quarantined == 1
            assert faults.failures_per_node[1] >= 2
            assert 1 in ctx.cluster.quarantined_nodes
            # quarantined nodes keep their shuffle data (unlike dead ones)
            assert ctx.cluster.is_available(1) is False

    def test_broken_node_without_exclusion_exhausts_retries(self):
        plan = FaultPlan(broken_nodes=(1,))
        conf = EngineConf(task_max_failures=2)  # no quarantine
        with Context(num_nodes=4, default_parallelism=8, conf=conf,
                     fault_plan=plan) as ctx:
            with pytest.raises(JobExecutionError):
                ctx.parallelize(range(16), 8).count()
