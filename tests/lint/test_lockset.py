"""Lockset race detector tests.

The deliberately broken structure below is the canonical fixture: it
keeps the ``linthooks.access`` annotation but drops the ``with lock:``
around it — exactly the regression the detector exists to catch.  The
correctly locked twin, and the engine's own structures driven by a
process-backend decomposition whose MTTKRPs offload, must stay silent.
"""

from __future__ import annotations

import threading

from repro.engine import Context, EngineConf, linthooks
from repro.lint import LintSession, LocksetMonitor


class LockedCounter:
    """Correct locking discipline (the engine's pattern)."""

    def __init__(self) -> None:
        self._lock = linthooks.make_lock("LockedCounter")
        self.count = 0

    def bump(self) -> None:
        with self._lock:
            linthooks.access(self, "count", write=True)
            self.count += 1

    def read(self) -> int:
        with self._lock:
            linthooks.access(self, "count", write=False)
            return self.count


class RacyCounter:
    """The regression: annotation kept, ``with lock`` removed."""

    def __init__(self) -> None:
        self._lock = linthooks.make_lock("RacyCounter")
        self.count = 0

    def bump(self) -> None:
        linthooks.access(self, "count", write=True)
        self.count += 1


def hammer(fn, threads: int = 4, iterations: int = 200) -> None:
    ts = [threading.Thread(
        target=lambda: [fn() for _ in range(iterations)])
        for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()


# ----------------------------------------------------------------------
def test_locked_counter_is_silent():
    monitor = LocksetMonitor()
    with monitor:
        counter = LockedCounter()
        hammer(counter.bump)
    assert monitor.races() == []
    assert counter.count == 800
    states = monitor.location_states()
    assert states[("LockedCounter", "count")] == "shared-modified"


def test_racy_counter_reports_exactly_once():
    monitor = LocksetMonitor()
    with monitor:
        counter = RacyCounter()
        hammer(counter.bump)
    races = monitor.races()
    assert len(races) == 1
    [finding] = races
    assert finding.rule == "lockset-race"
    assert finding.severity == "error"
    assert "RacyCounter.count" in finding.message


def test_single_thread_unlocked_access_is_not_a_race():
    """Eraser's EXCLUSIVE state: initialization from one thread needs
    no locks."""
    monitor = LocksetMonitor()
    with monitor:
        counter = RacyCounter()
        for _ in range(100):
            counter.bump()
    assert monitor.races() == []
    assert monitor.location_states()[("RacyCounter", "count")] \
        == "exclusive"


def test_read_sharing_is_not_a_race():
    """Multiple threads reading under no common lock stays SHARED —
    races need a cross-thread write."""

    class Table:
        def __init__(self) -> None:
            self.data = {1: "a"}

        def lookup(self):
            linthooks.access(self, "data", write=False)
            return self.data[1]

    monitor = LocksetMonitor()
    with monitor:
        table = Table()
        hammer(table.lookup)
    assert monitor.races() == []
    assert monitor.location_states()[("Table", "data")] == "shared"


def test_two_locks_no_common_lock_is_a_race():
    """Consistently locked — but never by the *same* lock: the
    candidate-set intersection goes empty."""

    class SplitLocks:
        def __init__(self) -> None:
            self.lock_a = linthooks.make_lock("A")
            self.lock_b = linthooks.make_lock("B")
            self.value = 0
            self._phase = threading.local()

        def bump(self, use_a: bool) -> None:
            lock = self.lock_a if use_a else self.lock_b
            with lock:
                linthooks.access(self, "value", write=True)
                self.value += 1

    monitor = LocksetMonitor()
    with monitor:
        split = SplitLocks()
        ts = [threading.Thread(
            target=lambda flag=flag: [split.bump(flag)
                                      for _ in range(100)])
            for flag in (True, False, True, False)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
    assert len(monitor.races()) == 1


def test_reentrant_lock_depth_tracked():
    """An RLock acquired twice must stay in the held set until the
    outermost release."""
    lock = linthooks.make_rlock("outer")

    class Nested:
        def __init__(self) -> None:
            self._lock = lock
            self.value = 0

        def outer(self) -> None:
            with self._lock:
                self.inner()

        def inner(self) -> None:
            with self._lock:
                linthooks.access(self, "value", write=True)
                self.value += 1

    monitor = LocksetMonitor()
    with monitor:
        nested = Nested()
        hammer(nested.outer)
    assert monitor.races() == []


def test_monitor_uninstalls_cleanly():
    monitor = LocksetMonitor()
    with monitor:
        pass
    # hooks are inert again: this must not blow up or record anything
    counter = RacyCounter()
    counter.bump()
    assert monitor.location_states() == {}


# ----------------------------------------------------------------------
# the engine itself on the process backend's offloading stages
# ----------------------------------------------------------------------
def test_engine_process_backend_is_race_free():
    """A process x 2 decomposition with the broadcast strategy, whose
    MTTKRP map stages run on the backend's orchestration threads, with
    the monitor installed: the engine's locking discipline must keep
    every candidate lockset non-empty."""
    from repro.core import CstfCOO
    from repro.tensor import uniform_sparse

    monitor = LocksetMonitor()
    with monitor:
        conf = EngineConf(backend="process", backend_workers=2,
                          kernel="vectorized")
        with Context(num_nodes=4, default_parallelism=8,
                     conf=conf) as ctx:
            tensor = uniform_sparse((30, 25, 20), 1500, rng=1)
            CstfCOO(ctx, factor_strategy="broadcast").decompose(
                tensor, 2, max_iterations=2, tol=0.0, seed=0)
            # cross-thread writes on a correctly locked structure,
            # driven from explicit threads so at least two writers are
            # guaranteed regardless of pool scheduling
            hammered = ctx.accumulator(0, name="hammered")
            hammer(lambda: hammered.add(1))
            assert hammered.value == 800
    assert monitor.races() == []
    assert monitor.pooled_runs > 0
    # the hot structures really did go cross-thread (the detector was
    # exercised, not just silent)
    states = monitor.location_states()
    for location in (("Accumulator", "_value"),
                     ("ShuffleManager", "_shuffles"),
                     ("CacheManager", "_entries"),
                     ("SharedBlockRegistry", "cached"),
                     ("ProcessWorkerPool", "workers")):
        assert states.get(location) == "shared-modified", location


def test_lint_session_merges_races_into_report():
    with LintSession(lockset=True) as session:
        counter = RacyCounter()
        hammer(counter.bump)
    assert any(f.rule == "lockset-race" for f in session.report)
