"""Executor backends: resolution, execution contract, context wiring.

Both backends must run every thunk, return results in submission
(partition) order, and surface the lowest-index failure — that ordering
contract is what makes the process backend bit-identical to serial
execution at the scheduler level.  The process backend additionally
owns shared-memory segments, all of which must be unlinked by
``Context.stop``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (BackendError, Context, EngineConf,
                          ProcessPoolBackend, SerialBackend, create_backend)


class TestResolution:
    """The backend factory given plain values, and the conf spelling
    rule end to end (environment precedence is table-tested in
    ``test_conf.py``)."""

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.backend, SerialBackend)
            assert ctx.backend.num_workers == 1

    @pytest.mark.parametrize("name", ["serial", "SERIAL"])
    def test_serial_aliases(self, name):
        """One spelling per backend, compared case-insensitively."""
        with Context(num_nodes=2, conf=EngineConf(backend=name)) as ctx:
            assert isinstance(ctx.backend, SerialBackend)

    @pytest.mark.parametrize("name", ["process"])
    def test_process_aliases(self, name):
        backend = create_backend(name, 2)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.num_workers == 2
        finally:
            backend.shutdown()

    def test_unknown_name_rejected(self):
        for name in ("mpi", "sync", "local", "thread", "threads",
                     "threadpool", "threaded", "processes", "procpool",
                     "multiprocess"):
            with pytest.raises(BackendError, match="unknown"):
                create_backend(name, 2)
            with pytest.raises(BackendError, match="EngineConf.backend"):
                Context(num_nodes=2, conf=EngineConf(backend=name))

    def test_threads_is_rejected_with_one_message(self, monkeypatch):
        """The thread-pool backend is gone: naming it is a conf error,
        the same message from the conf and from the environment."""
        expected = ("invalid backend 'threads' (from {}): expected one "
                    "of serial, process")
        with pytest.raises(BackendError) as err:
            Context(num_nodes=2, conf=EngineConf(backend="threads"))
        assert str(err.value) == expected.format("EngineConf.backend")
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        with pytest.raises(BackendError) as err:
            Context(num_nodes=2)
        assert str(err.value) == expected.format("$REPRO_BACKEND")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "3")
        with Context(num_nodes=2) as ctx:
            assert ctx.backend.name == "process"
            assert ctx.backend.num_workers == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        with Context(num_nodes=2,
                     conf=EngineConf(backend="serial")) as ctx:
            assert ctx.backend.name == "serial"

    def test_bad_env_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "many")
        with pytest.raises(BackendError, match="REPRO_BACKEND_WORKERS"):
            Context(num_nodes=2, conf=EngineConf(backend="process"))

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(BackendError):
            create_backend("process", 0)


class TestExecutionContract:
    @pytest.fixture(params=["serial", "process"])
    def backend(self, request):
        b = create_backend(request.param,
                           None if request.param == "serial" else 4)
        yield b
        b.shutdown()

    def test_results_in_submission_order(self, backend):
        thunks = [lambda i=i: i * i for i in range(16)]
        assert backend.run(thunks) == [i * i for i in range(16)]

    def test_lowest_index_exception_wins(self, backend):
        def make(i):
            def thunk():
                if i in (3, 9):
                    raise ValueError(f"thunk {i}")
                return i
            return thunk

        with pytest.raises(ValueError, match="thunk 3"):
            backend.run([make(i) for i in range(12)])

    def test_empty_run(self, backend):
        assert backend.run([]) == []


class TestContextWiring:
    def test_conf_selects_backend(self):
        with Context(num_nodes=2,
                     conf=EngineConf(backend="process",
                                     backend_workers=2)) as ctx:
            assert isinstance(ctx.backend, ProcessPoolBackend)
            assert ctx.backend.num_workers == 2
            out = ctx.parallelize(range(100), 8) \
                .map(lambda x: (x % 5, x)) \
                .reduce_by_key(lambda a, b: a + b).collect_as_map()
        assert out == {0: 950, 1: 970, 2: 990, 3: 1010, 4: 1030}

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "2")
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.backend, ProcessPoolBackend)

    def test_stop_shuts_the_pool_down(self):
        ctx = Context(num_nodes=2,
                      conf=EngineConf(backend="process",
                                      backend_workers=2))
        ctx.parallelize(range(10), 4).collect()
        ctx.stop()
        with pytest.raises(RuntimeError):
            ctx.backend.run([lambda: 1])

    def test_backend_name_property(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with Context(num_nodes=2) as ctx:
            assert ctx.backend.name == "serial"


@pytest.mark.usefixtures("share_everything")
class TestProcessBackendSharedMemory:
    """Segment lifetime: the driver registry owns every segment and
    ``Context.stop`` must leave none behind."""

    def _decompose(self, ctx):
        from repro.core import CstfCOO
        from repro.tensor import uniform_sparse
        tensor = uniform_sparse((15, 12, 10), 200, rng=4)
        return CstfCOO(ctx, factor_strategy="broadcast").decompose(
            tensor, 2, max_iterations=2, tol=0.0, seed=9)

    def test_no_segments_survive_context_stop(self):
        ctx = Context(num_nodes=2,
                      conf=EngineConf(backend="process",
                                      backend_workers=2))
        self._decompose(ctx)
        # mid-run the publish cache legitimately holds segments
        ctx.stop()
        assert ctx.backend.live_segments() == []

    def test_lifecycle_auditor_reports_survivors(self):
        from repro.lint import audit_context
        ctx = Context(num_nodes=2,
                      conf=EngineConf(backend="process",
                                      backend_workers=2))
        ctx.stop()
        assert not audit_context(ctx)  # clean shutdown: no findings
        # resurrect a segment on the stopped context's registry: the
        # auditor must flag it
        desc, _view = ctx.backend.registry.create((4,))
        findings = audit_context(ctx)
        try:
            assert any(f.rule == "leaked-shm-segment" for f in findings)
        finally:
            ctx.backend.registry.release(desc[0])

    def test_offload_matches_inline_bitwise(self):
        """The worker-computed contribution equals the inline numpy
        expressions bit for bit."""
        backend = create_backend("process", 2)
        try:
            rng = np.random.default_rng(0)
            values = rng.uniform(-1, 1, 64)
            key_col = rng.integers(0, 9, 64)
            fixed = [(rng.integers(0, 30, 64),
                      rng.uniform(-1, 1, (30, 5))) for _ in range(2)]
            for reduce_ in (False, True):
                res = backend.offload.run(
                    "contrib",
                    (values, key_col if reduce_ else None, fixed),
                    {"prereduce": reduce_},
                    None if reduce_ else ((64, 5), np.float64))
                assert res is not None, "offload unavailable"
                keys, rows = res
                acc = None
                for col, factor in fixed:
                    gathered = factor[col]
                    acc = (gathered * values[:, None] if acc is None
                           else acc * gathered)
                if reduce_:
                    from repro.kernels import segmented_left_fold
                    exp_keys, exp_rows = segmented_left_fold(
                        np.ascontiguousarray(key_col, dtype=np.int64),
                        acc)
                    assert np.array_equal(keys, exp_keys)
                    assert np.array_equal(rows, exp_rows)
                else:
                    assert keys is None   # unreduced: keys not sent
                    assert np.array_equal(rows, acc)
        finally:
            backend.shutdown()
        assert backend.live_segments() == []

    def test_publish_cache_eviction_skips_pinned(self, monkeypatch):
        """Eviction must never unlink a segment whose descriptor is
        still referenced by an in-flight request (it stays pinned
        until the request's ``unpin``)."""
        from repro.engine import procpool
        monkeypatch.setattr(procpool, "_PUBLISH_CACHE_CAP", 1)
        registry = procpool.SharedBlockRegistry()
        try:
            first = registry.publish_cached(np.arange(4))
            second = registry.publish_cached(np.arange(8))
            # both pinned: the cache is over cap yet nothing is evicted
            assert set(registry.live_segments()) == {first[0],
                                                     second[0]}
            registry.unpin([first[0]])
            third = registry.publish_cached(np.arange(6))
            # the unpinned segment is the one that goes
            assert first[0] not in registry.live_segments()
            assert second[0] in registry.live_segments()
            assert third[0] in registry.live_segments()
        finally:
            registry.unlink_all()
        assert registry.live_segments() == []

    def test_eviction_storm_stays_bit_identical(self, monkeypatch):
        """Tiny caps on both segment caches force constant eviction:
        the driver must not unlink in-flight inputs (pinning, with an
        inline-fallback reply when the race still lands) and the
        worker must never close an attachment while the request's
        views are live — the historical failure mode was silent
        zeroed-out results, not an error.  Both caches evict by
        recency, not age: an array hit between any number of one-shot
        ones (a partition's column between broadcast factors) is copied
        out once and stays attached."""
        from repro.engine import procpool
        monkeypatch.setattr(procpool, "_PUBLISH_CACHE_CAP", 2)
        monkeypatch.setattr(procpool, "_ATTACH_CACHE_CAP", 2)
        registry = procpool.SharedBlockRegistry()
        attached = procpool._AttachmentCache()
        published = []
        real_publish = registry.publish
        monkeypatch.setattr(
            registry, "publish",
            lambda arr: published.append(arr) or real_publish(arr))
        hot = np.arange(16.0)
        try:
            for n in range(8):
                for arr in (hot, np.full(4, float(n))):
                    desc = registry.publish_cached(arr)
                    assert np.array_equal(attached.view(desc), arr)
                    registry.unpin([desc[0]])
                    attached.trim(2)
            assert sum(arr is hot for arr in published) == 1
            assert len(published) == 9
            assert registry.publish_cached(hot)[0] in attached._shms
        finally:
            attached.trim(0)
            registry.unlink_all()
        assert registry.live_segments() == []
        with Context(num_nodes=2,
                     conf=EngineConf(backend="serial")) as ctx:
            expected = self._decompose(ctx)
        with Context(num_nodes=2,
                     conf=EngineConf(backend="process",
                                     backend_workers=2)) as ctx:
            starved = self._decompose(ctx)
            backend = ctx.backend
        assert backend.live_segments() == []
        assert np.array_equal(expected.lambdas, starved.lambdas)
        for a, b in zip(expected.factors, starved.factors):
            assert np.array_equal(a, b)

    def test_missing_segment_means_compute_inline(self):
        """An operand whose segment was unlinked between publish and
        the worker's attach (the eviction race) is not an error: the
        worker says ``missing_segment`` and ``run`` says None."""
        backend = create_backend("process", 1)
        try:
            values = np.ones(8)
            key_col = np.arange(8)
            fixed = [(np.zeros(8, dtype=np.int64), np.ones((3, 2)))]
            desc = backend.registry.publish_cached(values)
            backend.registry.unpin([desc[0]])
            backend.registry.release(desc[0])   # behind the cache's back
            assert backend.offload.run(
                "contrib", (values, key_col, fixed),
                {"prereduce": True}) is None
            keys, _rows = backend.offload.run(
                "contrib", (values.copy(), key_col, fixed),
                {"prereduce": True})
            assert np.array_equal(keys, key_col)
        finally:
            backend.shutdown()
        assert backend.live_segments() == []

    def test_worker_error_surfaces(self):
        """A worker-side exception raises on the driver instead of
        silently falling back (silent fallback is only for transport
        or availability failures)."""
        backend = create_backend("process", 1)
        try:
            values = np.ones(8)
            key_col = np.zeros(8, dtype=np.int64)
            # factor too small for the column -> IndexError in worker
            fixed = [(np.full(8, 99, dtype=np.int64),
                      np.ones((3, 2)))]
            with pytest.raises(RuntimeError, match="worker op failed"):
                backend.offload.run("contrib", (values, key_col, fixed),
                                    {"prereduce": False})
        finally:
            backend.shutdown()
        assert backend.live_segments() == []


class TestProcessPoolLifecycle:
    """Start-up and shutdown: every worker is launched before any is
    waited for, and told to stop before any is waited for; the failure
    paths still leave no process behind."""

    @pytest.fixture
    def events(self, monkeypatch):
        """Names of the ``_WorkerProcess`` steps, in call order."""
        from repro.engine import procpool
        log = []
        for name in ("__init__", "handshake", "signal_stop",
                     "wait_stopped"):
            real = getattr(procpool._WorkerProcess, name)

            def step(self, *args, _real=real, _name=name):
                log.append(_name)
                return _real(self, *args)
            monkeypatch.setattr(procpool._WorkerProcess, name, step)
        return log

    def test_launch_all_then_handshake_all_then_stop_all(self, events):
        from repro.engine.procpool import ProcessWorkerPool
        pool = ProcessWorkerPool(3)
        assert pool.ensure_started()
        pool.stop()
        assert events == (["__init__"] * 3 + ["handshake"] * 3
                          + ["signal_stop"] * 3 + ["wait_stopped"] * 3)
        assert not pool.ensure_started()

    def test_one_failed_handshake_kills_every_worker(self, monkeypatch):
        from repro.engine import procpool
        launched = []
        real_init = procpool._WorkerProcess.__init__

        def launch(self):
            real_init(self)
            launched.append(self)

        def handshake(self):
            if self is launched[1]:
                raise procpool.WorkerDied("no answer")
        monkeypatch.setattr(procpool._WorkerProcess, "__init__", launch)
        monkeypatch.setattr(procpool._WorkerProcess, "handshake",
                            handshake)
        backend = create_backend("process", 2)
        try:
            assert backend.offload.run(
                "contrib", (np.ones(4), np.arange(4),
                            [(np.zeros(4, dtype=np.int64),
                              np.ones((1, 2)))]),
                {"prereduce": True}) is None
            assert len(launched) == 2
            assert all(w._proc.poll() is not None for w in launched)
        finally:
            backend.shutdown()

    def test_a_respawned_worker_is_handshaken_first(self, events):
        from repro.engine.procpool import ProcessWorkerPool
        pool = ProcessWorkerPool(1)
        try:
            assert pool.ensure_started()
            worker = pool.checkout()
            worker.kill()
            del events[:]
            pool.checkin(worker, dead=True)
            assert events == ["__init__", "handshake"]
            replacement = pool.checkout()
            assert replacement is not worker
            replacement.handshake()
            pool.checkin(replacement)
        finally:
            pool.stop()

    def test_importing_the_pool_does_not_import_scipy_optimize(self):
        """Every driver and every worker imports ``repro.engine``, and
        nothing in it needs ``scipy.optimize``."""
        import os
        import subprocess
        import sys
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        program = (
            f"import sys\nsys.path.insert(0, {src!r})\n"
            "import repro.engine.procpool\n"
            "assert 'scipy.optimize' not in sys.modules\n")
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestOneGenericOp:
    """Guards on the shape of the offload path: one request builder,
    no worker-only arithmetic, threads only where a stage waits on a
    worker, nothing published in steady state."""

    @staticmethod
    def sources():
        import pathlib
        import repro
        root = pathlib.Path(repro.__file__).parent
        return {path.relative_to(root).as_posix(): path.read_text()
                for path in sorted(root.rglob("*.py"))}

    def test_every_op_is_a_kernels_function_the_inline_path_calls(self):
        import ast
        import inspect
        from repro.engine import procpool
        sources = self.sources()
        assert procpool._OPS
        for op in procpool._OPS:
            fn = procpool.resolve_op(op)
            assert inspect.isfunction(fn)
            assert fn.__module__.startswith("repro.kernels.")
            assert fn.__qualname__ == fn.__name__, "not module-level"
            users = [rel for rel, text in sources.items()
                     if rel != "engine/procpool.py"
                     and any(isinstance(node, ast.Name)
                             and node.id == fn.__name__
                             and isinstance(node.ctx, ast.Load)
                             for node in ast.walk(ast.parse(text)))]
            assert users, f"{op}: {fn.__name__} runs in workers only"

    def test_run_is_the_only_request_builder(self):
        import ast
        from repro.engine.procpool import OffloadClient
        assert {name for name, value in vars(OffloadClient).items()
                if callable(value)} == {"__init__", "run"}
        text = self.sources()["engine/procpool.py"]
        assert len(text.splitlines()) <= 593
        builders = set()
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Name)
                        and node.id == "_SharingPickler"
                        for node in ast.walk(fn)):
                    builders.add(f"{cls.name}.{fn.name}")
        assert builders == {"OffloadClient.run"}

    @staticmethod
    def _submits(monkeypatch, cls, **driver_kwargs):
        """``ThreadPoolExecutor.submit`` calls of one process-backend
        decomposition."""
        from concurrent.futures import ThreadPoolExecutor
        from repro.tensor import uniform_sparse
        calls = [0]
        real = ThreadPoolExecutor.submit

        def submit(self, *args, **kwargs):
            calls[0] += 1
            return real(self, *args, **kwargs)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        tensor = uniform_sparse((15, 12, 10), 200, rng=4)
        with Context(num_nodes=2, default_parallelism=4,
                     conf=EngineConf(backend="process", backend_workers=2,
                                     kernel="vectorized")) as ctx:
            cls(ctx, **driver_kwargs).decompose(
                tensor, 2, max_iterations=2, tol=0.0, seed=9)
        return calls[0]

    def test_join_stages_never_reach_the_thread_pool(self, monkeypatch):
        from repro.core import CstfCOO, CstfQCOO
        assert self._submits(monkeypatch, CstfCOO) == 0
        assert self._submits(monkeypatch, CstfQCOO) == 0

    def test_every_offloading_stage_does(self, monkeypatch):
        """2 iterations x 3 modes x 4 map tasks, and nothing else."""
        from repro.core import CstfCOO
        assert self._submits(monkeypatch, CstfCOO,
                             factor_strategy="broadcast") == 24
        assert self._submits(monkeypatch, CstfCOO, sampler="lev",
                             sample_count=16) == 24

    def test_a_steady_state_lev_iteration_creates_no_segment(
            self, monkeypatch):
        """A partition's columns (>= 64 KiB each here) are published
        once per run; scores, factors and results ride in the frames.
        (Before the fused op: one segment per drawn array and two per
        result, every task.)"""
        from repro.core import CstfCOO
        from repro.engine.procpool import SharedBlockRegistry
        from repro.tensor import random_factors, uniform_sparse
        created = [0]
        real = SharedBlockRegistry.create

        def create(self, *args, **kwargs):   # publish allocates here too
            created[0] += 1
            return real(self, *args, **kwargs)
        monkeypatch.setattr(SharedBlockRegistry, "create", create)
        tensor = uniform_sparse((300, 300, 300), 40_000, rng=3)
        init = random_factors(tensor.shape, 4, 5)

        def segments(iterations):
            created[0] = 0
            with Context(num_nodes=2, default_parallelism=4,
                         conf=EngineConf(backend="process",
                                         backend_workers=2,
                                         kernel="vectorized",
                                         sampler="lev",
                                         sample_count=128)) as ctx:
                CstfCOO(ctx).decompose(
                    tensor, 4, max_iterations=iterations, tol=0.0,
                    initial_factors=init)
            return created[0]
        assert segments(1) == 4 * 4   # 4 partitions x (3 columns + values)
        assert segments(3) == segments(1)
