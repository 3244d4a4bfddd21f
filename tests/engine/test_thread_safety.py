"""The one engine lock.

The process backend's pool threads take turns running engine code:
each pooled task holds the backend's ``EngineLock`` and lets go of it
only while a worker process computes (``OffloadClient.run``).  So
worker round-trips overlap, engine code never does, no engine
structure needs a lock of its own — and a source guard keeps it that
way.  Shared counters fed from pooled tasks still add up exactly.
"""

from __future__ import annotations

import ast
import pickle
import threading
import time

from pathlib import Path

import pytest

from repro.engine import Context, EngineConf, create_backend
from repro.engine.shuffle import ShuffleManager

from .. import conformance as cf

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: the only module that may import a threading API or build a lock
LOCK_OWNER = SRC / "engine" / "backends.py"
THREAD_MODULES = {"threading", "_thread", "concurrent",
                  "concurrent.futures"}
LOCK_TYPES = {"Lock", "RLock", "Condition", "Semaphore",
              "BoundedSemaphore", "Event", "Barrier"}


def pooled(rdd):
    """``rdd`` marked as offloading, so the process backend runs its
    stage's tasks on its thread pool instead of inline."""
    rdd.offloads = True
    return rdd


def lev_run(**kwargs):
    """A sampled decomposition on the process backend (two threads, two
    workers): its map stages offload, so they run on the pool."""
    return cf.run("order3", "coo-join", kernel="vectorized",
                  backend="process", sampler="lev", **kwargs)


class TestSourceGuard:
    def test_only_the_backend_imports_threads_and_it_builds_one_lock(self):
        importers, locks = set(), []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {node.module or ""}
                else:
                    names = set()
                if names & THREAD_MODULES:
                    importers.add(path)
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in LOCK_TYPES):
                    locks.append((path, node.lineno))
        assert importers == {LOCK_OWNER}
        assert [path for path, _ in locks] == [LOCK_OWNER]


class TestEngineLock:
    @pytest.fixture
    def backend(self):
        backend = create_backend("process", 2)
        yield backend
        backend.shutdown()

    def test_a_pooled_task_lets_go_around_the_body_only(self, backend):
        lock = backend.engine_lock

        def task():
            seen = [lock._lock.locked()]
            with lock.released():
                seen.append(lock._lock.locked())
            return seen + [lock._lock.locked()]
        assert backend.run([task]) == [[True, False, True]]

    def test_a_caller_that_does_not_hold_it_leaves_it_held(self, backend):
        """An offload from a thread without the lock (a stage run
        inline, a test) must not release a pool thread's hold."""
        lock = backend.engine_lock
        held, done = threading.Event(), threading.Event()

        def task():
            held.set()
            return done.wait(timeout=10)
        runner = threading.Thread(target=backend.run, args=([task],))
        runner.start()
        try:
            assert held.wait(timeout=10)
            with lock.released():
                assert lock._lock.locked()
            assert lock._lock.locked()
        finally:
            done.set()
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert not lock._lock.locked()


class TestOneEngineThreadAtATime:
    def test_worker_round_trips_overlap(self, monkeypatch):
        """Two requests are in flight at once: a task waiting on its
        worker does not hold the lock, so its sibling reaches its own.
        The first request waits (briefly) for a partner, which can only
        arrive if the lock was let go."""
        from repro.engine import procpool
        ping = pickle.dumps({"op": "ping",
                             "cap": procpool._ATTACH_CACHE_CAP})
        real = procpool._WorkerProcess.request
        state = {"in_flight": 0, "peak": 0}
        counting, partner = threading.Lock(), threading.Event()

        def request(self, data):
            if data == ping:
                return real(self, data)
            with counting:
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
                if state["in_flight"] >= 2:
                    partner.set()
            if not partner.wait(timeout=5):
                partner.set()   # no partner came: wait no more
            try:
                return real(self, data)
            finally:
                with counting:
                    state["in_flight"] -= 1
        monkeypatch.setattr(procpool._WorkerProcess, "request", request)
        lev_run()
        assert state["peak"] == 2

    def test_engine_code_never_runs_on_two_threads(self, monkeypatch):
        """Every shuffle write of a pooled stage happens alone, though
        the stage's tasks run on both pool threads."""
        real = ShuffleManager.write
        inside, threads = [], set()
        peak = [0]

        def write(self, *args, **kwargs):
            inside.append(threading.get_ident())
            threads.add(threading.current_thread().name)
            peak[0] = max(peak[0], len(inside))
            time.sleep(0.001)   # widen the window a second writer needs
            try:
                return real(self, *args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(ShuffleManager, "write", write)
        lev_run(iterations=1)
        assert peak[0] == 1
        assert len({t for t in threads if t.startswith("repro-exec")}) == 2

    def test_fewer_live_workers_than_threads(self, monkeypatch):
        """A worker dies and its respawn fails: one worker, two threads.
        A thread that finds no idle worker computes inline instead of
        waiting, so the run finishes with the oracle's bits and leaves
        no segment behind."""
        from repro.engine import procpool
        real_spawn = procpool._spawn_workers
        monkeypatch.setattr(
            procpool, "_spawn_workers",
            lambda count: None if count == 1 else real_spawn(count))
        backends = []
        real_drop = Context.drop_shuffle_outputs

        def drop_and_kill(ctx):   # the end of the first iteration
            real_drop(ctx)
            if not backends:
                backends.append(ctx.backend)
                victim = ctx.backend._workers._idle[-1]._proc
                victim.kill()
                victim.wait(timeout=10)
        monkeypatch.setattr(Context, "drop_shuffle_outputs", drop_and_kill)
        real_checkout = procpool.ProcessWorkerPool.checkout
        starved = []

        def checkout(self):
            worker = real_checkout(self)
            if worker is None:
                starved.append(self._live)
            return worker
        monkeypatch.setattr(procpool.ProcessWorkerPool, "checkout",
                            checkout)
        got = lev_run()
        cf.assert_bit_identical(got, cf.oracle(sampler="lev"))
        assert starved and set(starved) == {1}
        assert backends[0].live_segments() == []


class TestAccumulator:
    def test_adds_from_pooled_tasks(self):
        with Context(num_nodes=4, default_parallelism=16,
                     conf=EngineConf(backend="process",
                                     backend_workers=4)) as ctx:
            acc = ctx.accumulator(0, "records")
            data = list(range(1600))
            pooled(ctx.parallelize(data, 16).map(lambda x: acc.add(1))) \
                .count()
            assert acc.value == len(data)


class TestMemoryMetrics:
    def test_spill_counters_from_pooled_shuffle(self):
        """A constrained memory budget makes every map task's combine
        buffer spill; spill accounting from pooled tasks must add up
        across backends."""
        def run(backend):
            conf = EngineConf(memory_total_bytes=16 * 1024,
                              backend=backend, backend_workers=4)
            with Context(num_nodes=4, default_parallelism=8,
                         conf=conf) as ctx:
                out = pooled(ctx.parallelize(
                    [(i, float(i % 7)) for i in range(4000)], 8)) \
                    .reduce_by_key(lambda a, b: a + b).collect_as_map()
                mem = ctx.metrics.memory
                return out, mem.shuffle_spill_count, \
                    mem.shuffle_spill_bytes
        serial_out, serial_count, _ = run("serial")
        pooled_out, pooled_count, _ = run("process")
        assert pooled_out == serial_out
        # spill timing depends on which pooled task books first, so
        # counts may differ between backends — but both must spill
        assert serial_count > 0
        assert pooled_count > 0
