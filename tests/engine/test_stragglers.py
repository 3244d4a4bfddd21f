"""Straggler resilience: virtual clock, deadline tokens, seeded
slow/hang injection, deadlines, speculation, unified backoff and node
quarantine.

Everything time-domain runs on the :class:`VirtualClock` here, so tests
that simulate minutes of injected latency finish in milliseconds while
still exercising real deadline expiry, speculative failover and
quarantine-term arithmetic.
"""

from __future__ import annotations

import pytest

from repro.engine import (CancellationToken, CancelledAttempt, Cluster,
                          Context, EngineConf, EngineError, FaultPlan,
                          MonotonicClock, NodeHealthTracker,
                          TaskTimedOutError, VirtualClock, backoff_delay,
                          create_clock)

BACKENDS = (("serial", None), ("process", 2))


def wordcount(ctx, n=60, parts=6, reducers=6):
    """The canonical two-stage job the fault suite drives."""
    return (ctx.parallelize([(i % 5, 1) for i in range(n)], parts)
            .reduce_by_key(lambda a, b: a + b, reducers))


EXPECTED = {k: 12 for k in range(5)}


def make_ctx(backend="serial", workers=None, plan=None, **conf_kwargs):
    """A small 4-node context on the virtual clock."""
    conf_kwargs.setdefault("clock", "virtual")
    conf = EngineConf(backend=backend, backend_workers=workers,
                      **conf_kwargs)
    return Context(num_nodes=4, default_parallelism=8, conf=conf,
                   fault_plan=plan)


# ----------------------------------------------------------------------
# clock
# ----------------------------------------------------------------------
class TestClocks:
    def test_virtual_sleep_advances_without_waiting(self):
        clock = VirtualClock()
        assert clock.time() == 0.0
        clock.sleep(120.0)
        assert clock.time() == 120.0
        clock.sleep(-5.0)  # no-op
        assert clock.time() == 120.0
        assert clock.advance(3.5) == 123.5

    def test_virtual_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_create_clock_resolution(self, monkeypatch):
        assert isinstance(create_clock("virtual"), VirtualClock)
        assert isinstance(create_clock("monotonic"), MonotonicClock)
        monkeypatch.setenv("REPRO_CLOCK", "virtual")
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.clock, VirtualClock)
        monkeypatch.delenv("REPRO_CLOCK")
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.clock, MonotonicClock)
        with pytest.raises(EngineError, match="unknown clock"):
            create_clock("sundial")

    def test_context_owns_configured_clock(self):
        with make_ctx() as ctx:
            assert ctx.clock.name == "virtual"
        with Context(num_nodes=2) as ctx:
            assert ctx.clock.name == "monotonic"


# ----------------------------------------------------------------------
# cancellation tokens
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_hard_deadline_raises_timeout(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=3, stage_id=7,
                                  hard_deadline_s=2.0)
        token.check()  # in time: fine
        clock.advance(2.0)
        with pytest.raises(TaskTimedOutError) as exc:
            token.check()
        assert exc.value.partition == 3
        assert exc.value.deadline_s == 2.0
        assert exc.value.elapsed_s >= 2.0

    def test_on_late_fires_exactly_once(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=0,
                                  spec_deadline_s=1.0)
        clock.advance(0.5)
        token.check()  # before the speculative deadline: fine
        with pytest.raises(CancelledAttempt) as exc:
            token.sleep(10.0)
        assert exc.value.kind == "speculation-deadline"
        # the chunked sleep checkpoints exactly at the deadline
        assert clock.time() == pytest.approx(1.0)

    def test_spec_deadline_without_callback_cancels(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=0,
                                  spec_deadline_s=1.0)
        clock.advance(1.0)
        with pytest.raises(CancelledAttempt) as exc:
            token.check()
        assert exc.value.kind == "speculation-deadline"

    def test_sleep_expires_exactly_at_deadline(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=0,
                                  hard_deadline_s=0.4)
        with pytest.raises(TaskTimedOutError) as exc:
            token.sleep(10.0)
        # chunked sleeps land exactly on the deadline under the
        # virtual clock — expiry time is deterministic
        assert exc.value.elapsed_s == pytest.approx(0.4)

    def test_sleep_completes_before_deadline(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=0,
                                  hard_deadline_s=5.0)
        token.sleep(1.0)
        assert clock.time() == pytest.approx(1.0)

    def test_hang_refuses_without_any_deadline(self):
        token = CancellationToken(VirtualClock(), partition=0)
        assert not token.can_expire
        with pytest.raises(EngineError, match="cannot terminate"):
            token.hang()

    def test_hang_terminates_via_deadline(self):
        clock = VirtualClock()
        token = CancellationToken(clock, partition=0,
                                  hard_deadline_s=0.3)
        with pytest.raises(TaskTimedOutError):
            token.hang()
        assert clock.time() >= 0.3


# ----------------------------------------------------------------------
# unified backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_deterministic_and_exponential(self):
        site = (4, 2, 0)
        a = backoff_delay(0.01, 1.0, 0.5, seed=1, site=site)
        b = backoff_delay(0.01, 1.0, 0.5, seed=1, site=site)
        assert a == b
        assert 0.005 <= a <= 0.015
        # exponent driven by the attempt number (last site element)
        later = backoff_delay(0.01, 1.0, 0.0, seed=1, site=(4, 2, 3))
        assert later == pytest.approx(0.08)

    def test_cap_and_disable(self):
        assert backoff_delay(0.5, 1.0, 0.0, seed=0, site=(0, 0, 9)) == 1.0
        assert backoff_delay(0.0, 1.0, 0.5, seed=0, site=(0, 0, 1)) == 0.0

    def test_seed_changes_jitter(self):
        site = (1, 1, 1)
        draws = {backoff_delay(0.01, 1.0, 0.5, seed=s, site=site)
                 for s in range(8)}
        assert len(draws) > 1

    def test_retries_sleep_on_the_engine_clock(self):
        for seed in (0, 1, 2):
            plan = FaultPlan(seed=seed, task_failure_prob=0.25)
            with make_ctx(plan=plan) as ctx:
                assert wordcount(ctx).collect_as_map() == EXPECTED
                failures = ctx.metrics.faults.task_failures
                stragglers = ctx.metrics.stragglers
                assert failures > 0
                assert stragglers.backoff_sleeps == failures
                assert stragglers.backoff_total_s > 0
                # the sleeps advanced virtual, not wall, time
                assert ctx.clock.time() >= stragglers.backoff_total_s


# ----------------------------------------------------------------------
# seeded slow/hang injection
# ----------------------------------------------------------------------
class TestDelayInjection:
    def test_base_delay_accrues_virtual_time(self):
        plan = FaultPlan(task_base_delay_s=0.05)
        with make_ctx(plan=plan) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            s = ctx.metrics.stragglers
            assert s.injected_delay_s > 0
            assert ctx.clock.time() == pytest.approx(s.injected_delay_s)

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_slow_draws_identical_across_backends(self, backend, workers):
        """Seeded slow-task/slow-node decisions are per-site, so the
        injected totals match across backends exactly."""
        for seed in (0, 1, 2):
            plan = FaultPlan(seed=seed, slow_task_prob=0.3,
                             slow_task_delay_s=1.0,
                             slow_node_budgets={1: 2.0}, slow_node_prob=0.5)
            totals = []
            for where in ((backend, workers), ("serial", None)):
                with make_ctx(*where, plan=plan) as ctx:
                    assert wordcount(ctx).collect_as_map() == EXPECTED
                    stragglers = ctx.metrics.stragglers
                    totals.append((stragglers.injected_slow_tasks,
                                   stragglers.injected_delay_s))
            assert totals[0] == totals[1]

    def test_hang_healed_by_deadline_retry(self):
        for seed in (0, 1, 2):
            plan = FaultPlan(seed=seed, hang_task_prob=0.2)
            with make_ctx(plan=plan, task_deadline_s=0.5) as ctx:
                assert wordcount(ctx).collect_as_map() == EXPECTED
                s = ctx.metrics.stragglers
                assert s.injected_hangs > 0
                assert s.tasks_timed_out >= s.injected_hangs
                # hang caps keep retries clean: the job still finished
                assert s.wasted_attempt_s > 0

    def test_hang_without_deadline_raises_not_deadlocks(self):
        plan = FaultPlan(hang_task_prob=1.0,
                         max_injected_hangs_per_task=10)
        with make_ctx(plan=plan) as ctx:
            with pytest.raises(Exception, match="cannot terminate"):
                wordcount(ctx).collect_as_map()

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="slow_task_prob"):
            FaultPlan(slow_task_prob=1.5)
        with pytest.raises(ValueError, match="task_base_delay_s"):
            FaultPlan(task_base_delay_s=-0.1)
        with pytest.raises(ValueError, match="slow_node_budgets"):
            FaultPlan(slow_node_budgets={0: 0.0})
        assert FaultPlan(task_base_delay_s=0.1).injects_delays
        assert not FaultPlan().injects_delays
        assert not FaultPlan(task_base_delay_s=0.1).is_null


# ----------------------------------------------------------------------
# deadlines + speculation
# ----------------------------------------------------------------------
class TestDeadlinesAndSpeculation:
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_deadline_plus_quarantine_heals_slow_node(self, backend,
                                                      workers):
        """Placement is sticky, so a *persistently* slow node needs the
        full pipeline: deadlines convert stalls into straggles, the
        straggles cross the quarantine threshold, and retries re-place
        onto a healthy node."""
        plan = FaultPlan(task_base_delay_s=0.01,
                         slow_node_budgets={2: 30.0})
        with make_ctx(backend, workers, plan=plan, task_deadline_s=0.5,
                      quarantine_threshold=2.0,
                      quarantine_decay_s=1000.0) as ctx:
            assert wordcount(ctx).collect_as_map() == EXPECTED
            s = ctx.metrics.stragglers
            assert s.tasks_timed_out > 0
            assert s.nodes_quarantined >= 1
            # timeouts are straggles, not failures
            assert ctx.metrics.faults.task_failures == 0

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_speculation_rescues_slow_node(self, backend, workers):
        plan = FaultPlan(task_base_delay_s=0.05,
                         slow_node_budgets={2: 30.0})
        with make_ctx(backend, workers, plan=plan, speculation=True,
                      task_deadline_s=60.0,
                      speculative_min_deadline_s=0.2) as ctx:
            assert wordcount(ctx, n=120, parts=12).collect_as_map() \
                == {k: 24 for k in range(5)}
            s = ctx.metrics.stragglers
            assert s.tasks_speculated > 0
            assert s.speculative_wins > 0
            assert s.attempts_cancelled > 0

    def test_speculation_off_by_default(self):
        plan = FaultPlan(task_base_delay_s=0.01)
        with make_ctx(plan=plan) as ctx:
            assert not ctx.conf.speculation
            assert ctx.conf.task_deadline_s is None
            assert wordcount(ctx).collect_as_map() == EXPECTED
            assert ctx.metrics.stragglers.tasks_speculated == 0

    def test_speculation_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPECULATION", "1")
        with make_ctx() as ctx:
            assert ctx.conf.speculation
        monkeypatch.setenv("REPRO_SPECULATION", "off")
        with make_ctx() as ctx:
            assert not ctx.conf.speculation
        monkeypatch.setenv("REPRO_SPECULATION", "maybe")
        with pytest.raises(EngineError, match="REPRO_SPECULATION"):
            make_ctx()

    def test_task_deadline_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_DEADLINE_S", "2.5")
        with make_ctx() as ctx:
            assert ctx.conf.task_deadline_s == 2.5
        with pytest.raises(EngineError, match="task_deadline_s"):
            make_ctx(task_deadline_s=-1.0)
        monkeypatch.setenv("REPRO_TASK_DEADLINE_S", "soon")
        with pytest.raises(EngineError, match="REPRO_TASK_DEADLINE_S"):
            make_ctx()

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_control_flow_exceptions_not_retried(self, backend, workers):
        """Satellite fix: KeyboardInterrupt (and friends) must escape
        the retry loop untouched, not be counted as task faults."""
        def interrupt(kv):
            raise KeyboardInterrupt
        with make_ctx(backend, workers) as ctx:
            with pytest.raises(BaseException) as exc:
                (ctx.parallelize(range(20), 4).map(interrupt)
                 .collect())
            assert isinstance(exc.value, KeyboardInterrupt)
            assert ctx.metrics.faults.task_failures == 0


# ----------------------------------------------------------------------
# node health + quarantine
# ----------------------------------------------------------------------
class TestNodeHealth:
    def test_scores_decay_exponentially(self):
        tracker = NodeHealthTracker(decay_s=10.0)
        assert tracker.record(0, 4.0, now=0.0) == 4.0
        # one half-life later the charge has halved
        assert tracker.score(0, now=10.0) == pytest.approx(2.0)
        # a new charge stacks on the decayed score
        assert tracker.record(0, 1.0, now=10.0) == pytest.approx(3.0)
        assert tracker.score(1, now=50.0) == 0.0

    def test_reset(self):
        tracker = NodeHealthTracker(decay_s=10.0)
        tracker.record(0, 5.0, now=0.0)
        tracker.reset(0, score=1.0, now=0.0)
        assert tracker.score(0, now=0.0) == 1.0
        with pytest.raises(ValueError):
            NodeHealthTracker(decay_s=0.0)

    def test_cluster_quarantine_state_machine(self):
        cluster = Cluster(num_nodes=3)
        assert cluster.quarantine_node(1, until=10.0)
        assert not cluster.is_available(1)
        assert cluster.available_nodes == [0, 2]
        # idempotent
        assert cluster.quarantine_node(1, until=99.0)
        assert cluster.quarantine_expired(5.0) == []
        assert cluster.quarantine_expired(10.0) == [1]
        assert cluster.readmit_node(1)
        assert not cluster.readmit_node(1)  # second caller loses
        assert cluster.is_available(1)

    def test_quarantine_refuses_last_node(self):
        cluster = Cluster(num_nodes=2)
        assert cluster.quarantine_node(0, until=10.0)
        assert not cluster.quarantine_node(1, until=10.0)
        assert cluster.available_nodes == [1]

    def test_end_to_end_quarantine_and_readmission(self):
        """A persistently slow node times out repeatedly, crosses the
        quarantine threshold, sits out its term on the virtual clock,
        and is probationally readmitted."""
        plan = FaultPlan(task_base_delay_s=0.01,
                         slow_node_budgets={1: 30.0})
        with make_ctx(plan=plan, task_deadline_s=0.5,
                      quarantine_threshold=2.0,
                      quarantine_decay_s=1000.0,
                      quarantine_duration_s=5.0) as ctx:
            assert wordcount(ctx, n=120, parts=12).collect_as_map() \
                == {k: 24 for k in range(5)}
            s = ctx.metrics.stragglers
            assert s.nodes_quarantined >= 1
            assert not ctx.cluster.is_available(1) \
                or s.nodes_readmitted >= 1
            # quarantine ends: advance past the term and run again
            ctx.clock.advance(10.0)
            assert wordcount(ctx).collect_as_map() == EXPECTED
            assert ctx.metrics.stragglers.nodes_readmitted >= 1
