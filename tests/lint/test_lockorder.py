"""Lock-order deadlock detector tests: the acquisition-order graph,
cycle enumeration, the LocksetMonitor integration, and the engine
self-hosted on the process backend."""

from __future__ import annotations

import threading

from repro.engine import Context, EngineConf, linthooks
from repro.lint import LintReport, LockOrderGraph, LocksetMonitor


# ----------------------------------------------------------------------
# graph unit tests (no threads needed: record() is the only input)
# ----------------------------------------------------------------------
def test_straight_line_order_has_no_cycle():
    graph = LockOrderGraph()
    graph.record(["A"], "B", "t1")
    graph.record(["A", "B"], "C", "t1")
    assert graph.cycles() == []
    assert {(e.held, e.acquired) for e in graph.edges()} \
        == {("A", "B"), ("A", "C"), ("B", "C")}


def test_two_lock_inversion_is_one_cycle():
    graph = LockOrderGraph()
    graph.record(["A"], "B", "t1")
    graph.record(["B"], "A", "t2")
    assert graph.cycles() == [("A", "B")]


def test_three_lock_rotation_is_one_canonical_cycle():
    graph = LockOrderGraph()
    graph.record(["A"], "B", "t1")
    graph.record(["B"], "C", "t2")
    graph.record(["C"], "A", "t3")
    assert graph.cycles() == [("A", "B", "C")]


def test_reentrant_reacquisition_is_not_an_edge():
    graph = LockOrderGraph()
    graph.record(["A"], "A", "t1")
    assert graph.edges() == []
    assert graph.cycles() == []


def test_edge_counts_aggregate_per_pair():
    graph = LockOrderGraph()
    for _ in range(3):
        graph.record(["A"], "B", "t1")
    [edge] = graph.edges()
    assert edge.count == 3
    assert edge.thread == "t1"


def test_report_into_emits_one_error_per_cycle():
    graph = LockOrderGraph()
    graph.record(["A"], "B", "t1")
    graph.record(["B"], "A", "t2")
    report = LintReport()
    graph.report_into(report)
    findings = [f for f in report if f.rule == "lock-order-cycle"]
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert "A -> B" in findings[0].message
    assert "t1" in findings[0].message and "t2" in findings[0].message


def test_coverage_against_engine_inventory():
    graph = LockOrderGraph()
    graph.record([], "ShuffleManager", "t1")
    observed, never = graph.coverage()
    assert "ShuffleManager" in observed
    assert "ShuffleManager" not in never
    # the registered engine inventory is what bounds "never observed"
    assert never <= set(linthooks.lock_inventory())


# ----------------------------------------------------------------------
# monitor integration: HookLock acquisitions feed the graph
# ----------------------------------------------------------------------
def hammer_inverted(lock_a, lock_b, rounds: int = 50) -> None:
    def forward() -> None:
        for _ in range(rounds):
            with lock_a:
                with lock_b:
                    pass

    def backward() -> None:
        for _ in range(rounds):
            with lock_b:
                with lock_a:
                    pass

    # sequential threads: the inversion exists in the order graph
    # without ever risking an actual deadlock in the test suite
    for fn in (forward, backward):
        t = threading.Thread(target=fn)
        t.start()
        t.join()


def test_monitor_detects_lock_inversion():
    monitor = LocksetMonitor()
    with monitor:
        a = linthooks.make_lock("InvertA")
        b = linthooks.make_lock("InvertB")
        hammer_inverted(a, b)
    assert monitor.lock_order.cycles() == [("InvertA", "InvertB")]
    report = LintReport()
    monitor.report_into(report)
    assert any(f.rule == "lock-order-cycle" for f in report)
    assert "lock order" in monitor.summary()


def test_monitor_consistent_order_is_silent():
    monitor = LocksetMonitor()
    with monitor:
        a = linthooks.make_lock("OrderedA")
        b = linthooks.make_lock("OrderedB")
        for _ in range(20):
            with a:
                with b:
                    pass
    assert monitor.lock_order.cycles() == []


def test_rlock_depth_does_not_fake_an_edge():
    monitor = LocksetMonitor()
    with monitor:
        outer = linthooks.make_rlock("RDepth")
        with outer:
            with outer:
                pass
    assert monitor.lock_order.edges() == []


# ----------------------------------------------------------------------
# self-host: the engine's own locks on the process backend
# ----------------------------------------------------------------------
def _drive_engine() -> LocksetMonitor:
    monitor = LocksetMonitor()
    with monitor:
        conf = EngineConf(backend="process", backend_workers=2)
        with Context(num_nodes=2, default_parallelism=4,
                     conf=conf) as ctx:
            rdd = ctx.parallelize(
                [(i % 5, i) for i in range(200)], 4)
            rdd.persist()
            assert len(rdd.reduce_by_key(
                lambda a, b: a + b, 4).collect()) == 5
            assert rdd.count() == 200
            rdd.unpersist()
    return monitor


def test_engine_process_backend_lock_order_is_acyclic():
    monitor = _drive_engine()
    assert monitor.lock_order.cycles() == []
    observed = monitor.lock_order.observed_names()
    # the driver-side structures are monitored regardless of where
    # tasks execute; the pool orchestration must not invert them
    assert "ShuffleManager" in observed
    report = LintReport()
    monitor.report_into(report)
    assert not [f for f in report if f.rule == "lock-order-cycle"]
