"""Bit-identity of CP-ALS under straggler resilience.

Speculation, task deadlines and quarantine are *time-domain* features:
they change when and where attempts run, never what they compute.  A
speculated attempt is cancelled before it reaches the shuffle layer and
its backup runs in its place, so a decomposition with speculation on —
even failing over from a 10x-slow node on every backend — must be
bit-identical to a clean run with everything off.  All runs use the
virtual clock so minutes of injected latency cost milliseconds of wall
time.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import FaultPlan

from .. import conformance as cf

BACKENDS = (("serial", None),)


class TestSpeculationPreservesResults:
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_speculation_matches_clean_run(self, request, monkeypatch, cls,
                                           backend, workers):
        """Speculating against a seeded 10x-slow node reproduces the
        clean run's factors bit-for-bit."""
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_deadline_retries_match_clean_run(self, request, monkeypatch,
                                              backend, workers):
        """Hard-deadline timeouts plus quarantine re-placement also
        leave the numerics untouched."""
        cf.check_kept(request, monkeypatch)

    def test_speculation_off_equals_on_for_clean_plan(self):
        """With nothing slow, enabling speculation is a no-op on the
        results (backups may or may not launch; commits are unique),
        on the process backend too."""
        on = cf.run(driver="coo-broadcast", kernel="vectorized",
                    backend="process", conf={"speculation": True})
        cf.assert_bit_identical(cf.oracle("order3", "coo-broadcast"), on)

    @pytest.mark.parametrize("backend", ["process"])
    def test_speculation_starts_no_thread_outside_the_pool(
            self, monkeypatch, backend):
        """A backup runs inline on the thread of the attempt it replaces:
        speculating against a slow node on stages that offload (the
        broadcast map sides) starts no thread at all, and with nothing
        failing every backup commits."""
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            start(thread)
        monkeypatch.setattr(threading.Thread, "start", spy)
        plan = FaultPlan(task_base_delay_s=0.02, slow_node_budgets={2: 0.2})
        got = cf.run(driver="coo-broadcast", kernel="vectorized",
                     backend=backend, plan=plan, conf=cf.SPECULATION)
        monkeypatch.undo()
        assert started == []
        cf.assert_bit_identical(cf.oracle("order3", "coo-broadcast"), got)
        s = got.metrics.stragglers
        assert s.tasks_speculated > 0
        assert s.speculative_wins == s.tasks_speculated
