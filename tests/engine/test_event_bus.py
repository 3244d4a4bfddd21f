"""The engine event bus: dispatch semantics and scheduler integration.

The layered scheduler must not touch cross-cutting services directly —
every lifecycle signal (job/stage/task start and end, failures,
recovery, memory pressure) flows through
:class:`~repro.engine.EngineEventBus` subscriptions.  These tests pin
the bus contract (ordering, propagation, reentrancy) and verify a real
job emits the expected event sequence.
"""

from __future__ import annotations

import pytest

from repro.engine import Context, EngineListener, FaultPlan
from repro.engine.events import (EngineEventBus, JobEnd, JobStart,
                                 NodeLost, StageCompleted, StageSubmitted,
                                 TaskEnd, TaskStart)


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
