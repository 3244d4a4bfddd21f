"""One engine thread.

Every stage's tasks run as generators in one loop on the calling
thread; the process backend's parallel work is its worker processes'.
A task whose body went to a worker stays suspended while the loop
starts the next ones, up to W = ``backend_workers`` requests in flight,
and the loop finishes tasks in partition order.  So no engine structure
needs a lock — a source guard keeps it that way — and shared counters
fed from the process backend's tasks add up exactly as on serial.
"""

from __future__ import annotations

import ast
import threading
import time

from pathlib import Path

from repro.engine import Context, EngineConf
from repro.engine.shuffle import ShuffleManager

from .. import conformance as cf

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
THREAD_MODULES = {"threading", "_thread", "concurrent",
                  "concurrent.futures"}
LOCK_TYPES = {"Lock", "RLock", "Condition", "Semaphore",
              "BoundedSemaphore", "Event", "Barrier"}


def lev_run(**kwargs):
    """A sampled decomposition on the process backend (two workers, a
    window of two): its map stages offload."""
    return cf.run("order3", "coo-join", kernel="vectorized",
                  backend="process", sampler="lev", **kwargs)


class TestSourceGuard:
    def test_no_module_imports_threads_or_builds_a_lock(self):
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
        assert importers == set()
        assert locks == []


class TestOneEngineThreadAtATime:
    def test_worker_round_trips_overlap(self, monkeypatch):
        """The loop sends W = 2 requests before it takes the first
        reply, and never has more than W in flight.  (A worker's
        start-up handshake is one send and its receive.)"""
        from repro.engine import procpool
        real_send = procpool._WorkerProcess.send
        real_receive = procpool._WorkerProcess.receive
        state = {"in_flight": 0, "peak": 0, "overlapped": 0}

        def send(self, data):
            real_send(self, data)
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])

        def receive(self):
            if state["in_flight"] == 2:
                state["overlapped"] += 1
            state["in_flight"] -= 1
            return real_receive(self)
        monkeypatch.setattr(procpool._WorkerProcess, "send", send)
        monkeypatch.setattr(procpool._WorkerProcess, "receive", receive)
        lev_run()
        assert state["peak"] == 2
        assert state["overlapped"] > 0
        assert state["in_flight"] == 0

    def test_engine_code_never_runs_on_two_threads(self, monkeypatch):
        """Every shuffle write of an offloading stage happens alone, on
        the thread that runs the job."""
        real = ShuffleManager.write
        inside, threads = [], set()
        peak = [0]

        def write(self, *args, **kwargs):
            inside.append(threading.get_ident())
            threads.add(threading.get_ident())
            peak[0] = max(peak[0], len(inside))
            time.sleep(0.001)   # widen the window a second writer needs
            try:
                return real(self, *args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(ShuffleManager, "write", write)
        lev_run(iterations=1)
        assert peak[0] == 1
        assert threads == {threading.get_ident()}

    def test_fewer_live_workers_than_the_window(self, monkeypatch):
        """A worker dies and its replacement fails its handshake: one
        worker, a window of two.  From then on the survivor alone
        serves requests, and a task that finds no idle worker computes
        inline instead of waiting, so the run finishes with the
        oracle's bits and leaves no segment behind."""
        from repro.engine import procpool
        backends, workers = [], {}
        real_drop = Context.drop_shuffle_outputs

        def refuse(self):
            raise procpool.WorkerDied("no answer")

        def drop_and_kill(ctx):   # the end of the first iteration
            real_drop(ctx)
            if not backends:
                backends.append(ctx.backend)
                workers["survivor"], workers["victim"] = \
                    ctx.backend._workers._idle
                workers["victim"]._proc.kill()
                workers["victim"]._proc.wait(timeout=10)
                monkeypatch.setattr(procpool._WorkerProcess, "handshake",
                                    refuse)
        monkeypatch.setattr(Context, "drop_shuffle_outputs", drop_and_kill)
        real_checkout = procpool.ProcessWorkerPool.checkout
        handed_out = []   # what each checkout after the kill returns

        def checkout(self):
            worker = real_checkout(self)
            if backends:
                handed_out.append(worker)
            return worker
        monkeypatch.setattr(procpool.ProcessWorkerPool, "checkout",
                            checkout)
        got = lev_run()
        cf.assert_bit_identical(got, cf.oracle(sampler="lev"))
        assert None in handed_out
        assert set(handed_out) - {None, workers["victim"]} \
            == {workers["survivor"]}
        assert backends[0].live_segments() == []


class TestAccumulator:
    def test_adds_from_pooled_tasks(self):
        with Context(num_nodes=4, default_parallelism=16,
                     conf=EngineConf(backend="process",
                                     backend_workers=4)) as ctx:
            acc = ctx.accumulator(0, "records")
            data = list(range(1600))
            ctx.parallelize(data, 16).map(lambda x: acc.add(1)).count()
            assert acc.value == len(data)


class TestMemoryMetrics:
    def test_spill_counters_from_pooled_shuffle(self):
        """A constrained memory budget makes every map task's combine
        buffer spill.  The stage sends no worker request, so no task
        stays suspended and W cannot matter: the spill counts equal
        serial's."""
        def run(backend):
            conf = EngineConf(memory_total_bytes=16 * 1024,
                              backend=backend, backend_workers=4)
            with Context(num_nodes=4, default_parallelism=8,
                         conf=conf) as ctx:
                out = ctx.parallelize(
                    [(i, float(i % 7)) for i in range(4000)], 8) \
                    .reduce_by_key(lambda a, b: a + b).collect_as_map()
                mem = ctx.metrics.memory
                return out, mem.shuffle_spill_count, \
                    mem.shuffle_spill_bytes
        serial = run("serial")
        assert serial[1] > 0
        assert run("process") == serial
