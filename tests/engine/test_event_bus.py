"""The engine event bus: dispatch semantics and scheduler integration.

The layered scheduler must not touch cross-cutting services directly —
every lifecycle signal (job/stage/task start and end, failures,
recovery, memory pressure) flows through
:class:`~repro.engine.EngineEventBus` subscriptions.  These tests pin
the bus contract (ordering, propagation, reentrancy) and verify a real
job emits the expected event sequence.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import (Context, EngineListener, FaultPlan, StageMetrics,
                          ShuffleWriteMetrics, StorageLevel)
from repro.engine.events import (BlockCorrupted, EngineEventBus,
                                 FetchFailed, JobEnd, JobShuffleRounds,
                                 JobStart, NodeLost, NodeQuarantined,
                                 NodeReadmitted, OOMKill, RDDDemoted,
                                 StageCompleted, StagesResubmitted,
                                 StageSubmitted, TaskAttemptCancelled,
                                 TaskEnd, TaskFailure, TaskSpeculated,
                                 TaskSpill, TaskStart, TaskTimedOut)
from repro.engine.speculation import SPECULATIVE_ATTEMPT_OFFSET


class Recorder(EngineListener):
    """Records every event it observes, in order."""

    def __init__(self):
        self.events = []

    def _record(self, event):
        self.events.append(event)

    # route every hook to the recorder
    on_job_start = on_job_shuffle_rounds = on_job_end = _record
    on_stage_submitted = on_stage_completed = _record
    on_task_start = on_task_end = on_task_failure = _record
    on_fetch_failed = on_stages_resubmitted = _record
    on_node_lost = on_oom_kill = on_task_spill = on_rdd_demoted = _record

    def of_type(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


class TestBusContract:
    def test_dispatch_in_subscription_order(self):
        bus = EngineEventBus()
        calls = []

        class L(EngineListener):
            def __init__(self, tag):
                self.tag = tag

            def on_job_start(self, event):
                calls.append(self.tag)

        bus.subscribe(L("first"))
        bus.subscribe(L("second"))
        bus.post(JobStart(0, "x"))
        assert calls == ["first", "second"]

    def test_listener_exception_propagates(self):
        bus = EngineEventBus()

        class Bomb(EngineListener):
            def on_task_start(self, event):
                raise RuntimeError("boom")

        bus.subscribe(Bomb())
        with pytest.raises(RuntimeError, match="boom"):
            bus.post(TaskStart(0, 0, 0, 0))

    def test_earlier_listeners_observe_before_raiser(self):
        """Accounting listeners subscribed before an active one still
        see the event the active listener kills — the reason the fault
        injector is subscribed last."""
        bus = EngineEventBus()
        rec = Recorder()

        class Bomb(EngineListener):
            def on_task_start(self, event):
                raise RuntimeError("boom")

        bus.subscribe(rec)
        bus.subscribe(Bomb())
        with pytest.raises(RuntimeError):
            bus.post(TaskStart(3, 1, 0, 2))
        assert len(rec.of_type(TaskStart)) == 1

    def test_unsubscribe(self):
        bus = EngineEventBus()
        rec = Recorder()
        bus.subscribe(rec)
        bus.post(JobStart(0, "a"))
        bus.unsubscribe(rec)
        bus.post(JobStart(1, "b"))
        assert len(rec.events) == 1

    def test_reentrant_post(self):
        """A listener may post further events while handling one."""
        bus = EngineEventBus()
        rec = Recorder()

        class Chainer(EngineListener):
            def on_job_start(self, event):
                bus.post(JobEnd(event.job_id, True))

        bus.subscribe(Chainer())
        bus.subscribe(rec)
        bus.post(JobStart(7, "chain"))
        kinds = [type(e).__name__ for e in rec.events]
        assert kinds == ["JobEnd", "JobStart"]


class TestSchedulerIntegration:
    def test_simple_job_event_sequence(self, ctx):
        rec = Recorder()
        ctx.event_bus.subscribe(rec)
        total = ctx.parallelize(range(40), 4) \
            .map(lambda x: (x % 2, x)) \
            .reduce_by_key(lambda a, b: a + b).collect_as_map()
        assert total == {0: 380, 1: 400}
        jobs = rec.of_type(JobStart)
        assert len(jobs) == 1
        # one shuffle-map stage + one result stage, each submitted once
        submitted = rec.of_type(StageSubmitted)
        assert [s.name.split()[0] for s in submitted] \
            == ["shuffleMap", "result"]
        completed = rec.of_type(StageCompleted)
        assert len(completed) == 2
        # every partition ran exactly one successful task per stage
        assert len(rec.of_type(TaskEnd)) == sum(s.num_tasks
                                                for s in submitted)
        ends = rec.of_type(JobEnd)
        assert len(ends) == 1 and ends[0].succeeded

    def test_task_start_precedes_task_end_per_partition(self, ctx):
        rec = Recorder()
        ctx.event_bus.subscribe(rec)
        ctx.parallelize(range(8), 4).map(lambda x: x * x).collect()
        for p in range(4):
            starts = [e for e in rec.of_type(TaskStart)
                      if e.partition == p]
            ends = [e for e in rec.of_type(TaskEnd) if e.partition == p]
            assert len(starts) == 1 and len(ends) == 1

    def test_scheduler_mutates_no_metrics_directly(self):
        """With every accounting listener unsubscribed, running jobs —
        including fault recovery — leaves the collector untouched: the
        scheduler layers have no direct mutation path left."""
        plan = FaultPlan(seed=3, task_failure_prob=0.3)
        ctx = Context(num_nodes=4, default_parallelism=8,
                      fault_plan=plan)
        try:
            for listener in list(ctx.event_bus._listeners):
                if listener is not ctx.faults:
                    ctx.event_bus.unsubscribe(listener)
            out = ctx.parallelize(range(30), 6) \
                .map(lambda x: (x % 3, 1)) \
                .reduce_by_key(lambda a, b: a + b).collect_as_map()
            assert out == {0: 10, 1: 10, 2: 10}
            assert ctx.metrics.jobs == []
            assert ctx.metrics.faults.task_failures == 0
            assert ctx.metrics.faults.injected_task_failures > 0  # injector ran
        finally:
            ctx.stop()

    def test_node_kill_posts_node_lost(self, ctx):
        rec = Recorder()
        ctx.event_bus.subscribe(rec)
        rdd = ctx.parallelize(range(40), 8).map(lambda x: (x % 4, x)) \
            .reduce_by_key(lambda a, b: a + b)
        rdd.collect()
        ctx.kill_node(1)
        lost = rec.of_type(NodeLost)
        assert len(lost) == 1 and lost[0].node_id == 1
        assert ctx.metrics.faults.nodes_killed == 1
        assert lost[0].map_outputs_lost \
            == ctx.metrics.faults.map_outputs_lost


@pytest.mark.parametrize("mode", ["spark", "hadoop"])
def test_collector_and_injector_are_the_only_subscribers(mode):
    with Context(num_nodes=2, execution_mode=mode) as ctx:
        assert ctx.event_bus._listeners == [ctx.metrics, ctx.faults]


def _counters(metrics) -> dict:
    """Every event-fed counter of ``metrics``, flattened by name."""
    flat = {"total_shuffle_rounds": metrics.total_shuffle_rounds()}
    for group in ("faults", "memory", "stragglers", "integrity", "hadoop"):
        for name, value in dataclasses.asdict(
                getattr(metrics, group)).items():
            flat[f"{group}.{name}"] = value
    return flat


_RECOVERED_MAP_STAGE = StageMetrics(
    stage_id=4, job_id=0, phase="Other", is_shuffle_map=True,
    shuffle_write=ShuffleWriteMetrics(bytes_written=120,
                                      records_written=7))

#: (events posted in order, counters they move on every context,
#:  counters they move only in hadoop mode)
ACCOUNTING = [
    pytest.param(
        [TaskFailure(0, 0, 0, 2, RuntimeError("x"), will_retry=True,
                     backoff_s=0.5)],
        {"faults.task_failures": 1, "faults.tasks_retried": 1,
         "faults.failures_per_node": {2: 1},
         "stragglers.backoff_sleeps": 1,
         "stragglers.backoff_total_s": 0.5}, {}, id="TaskFailure"),
    pytest.param(
        [TaskTimedOut(0, 0, 0, 1, elapsed_s=2.0, deadline_s=1.0,
                      will_retry=True, backoff_s=0.25)],
        {"stragglers.tasks_timed_out": 1,
         "stragglers.wasted_attempt_s": 2.0,
         "stragglers.backoff_sleeps": 1,
         "stragglers.backoff_total_s": 0.25}, {}, id="TaskTimedOut"),
    pytest.param(
        [TaskSpeculated(0, 0, 0, 1, backup_node=2, deadline_s=1.0)],
        {"stragglers.tasks_speculated": 1}, {}, id="TaskSpeculated"),
    pytest.param(
        [TaskAttemptCancelled(0, 0, 0, 1, elapsed_s=1.5)],
        {"stragglers.attempts_cancelled": 1,
         "stragglers.wasted_attempt_s": 1.5}, {},
        id="TaskAttemptCancelled"),
    pytest.param(
        [TaskEnd(0, 0, SPECULATIVE_ATTEMPT_OFFSET, 2, records=5)],
        {"stragglers.speculative_wins": 1}, {}, id="TaskEnd-speculative"),
    pytest.param(
        [NodeQuarantined(1, score=3.0, until_s=10.0), NodeReadmitted(1)],
        {"stragglers.nodes_quarantined": 1,
         "stragglers.nodes_readmitted": 1}, {},
        id="NodeQuarantined-NodeReadmitted"),
    pytest.param(
        [FetchFailed(0, 0, 0)], {"faults.fetch_failures": 1}, {},
        id="FetchFailed"),
    pytest.param(
        [StagesResubmitted(0, 3)], {"faults.stages_resubmitted": 3}, {},
        id="StagesResubmitted"),
    pytest.param(
        [StageCompleted(0, _RECOVERED_MAP_STAGE, recomputation=True)],
        {"faults.records_recomputed": 7},
        {"hadoop.hdfs_bytes_written": 120, "hadoop.hdfs_bytes_read": 120,
         "hadoop.hdfs_records_written": 7}, id="StageCompleted-recomputed"),
    pytest.param(
        [NodeLost(1, map_outputs_lost=4, cached_partitions_lost=2)],
        {"faults.nodes_killed": 1, "faults.map_outputs_lost": 4,
         "faults.cached_partitions_lost": 2}, {}, id="NodeLost"),
    pytest.param(
        [BlockCorrupted(0, 0, 0, node=1)],
        {"integrity.recompute_recoveries": 1}, {}, id="BlockCorrupted"),
    pytest.param(
        [OOMKill(0, 0, 1, requested_bytes=10, budget_bytes=5)],
        {"memory.oom_kills": 1}, {}, id="OOMKill"),
    pytest.param(
        [TaskSpill(0, 0, nbytes=64)], {"memory.task_spill_bytes": 64}, {},
        id="TaskSpill"),
    pytest.param(
        [RDDDemoted(3, "factor", StorageLevel.MEMORY_RAW,
                    StorageLevel.MEMORY_SER)],
        {"memory.demotions": 1, "memory.demotion_events":
         ["oom: rdd 3 (factor) memory_raw -> memory_ser"]}, {},
        id="RDDDemoted"),
    pytest.param(
        [JobStart(0, "job"), JobShuffleRounds(0, rounds=2)],
        {"total_shuffle_rounds": 2}, {"hadoop.jobs_launched": 2},
        id="JobShuffleRounds"),
]


@pytest.mark.parametrize("mode", ["spark", "hadoop"])
@pytest.mark.parametrize("posted, fed, hadoop_only", ACCOUNTING)
def test_event_feeds_its_counters(mode, posted, fed, hadoop_only):
    """Each accounting event, posted to a fresh context's bus, moves
    exactly the counters it feeds; HDFS charges and MapReduce jobs only
    in hadoop mode."""
    with Context(num_nodes=4, execution_mode=mode) as ctx:
        before = _counters(ctx.metrics)
        for event in posted:
            ctx.event_bus.post(event)
        after = _counters(ctx.metrics)
    moved = {k: v for k, v in after.items() if v != before[k]}
    assert moved == {**fed, **(hadoop_only if mode == "hadoop" else {})}
