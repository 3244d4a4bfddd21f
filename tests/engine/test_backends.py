"""Executor backends: resolution, execution contract, context wiring.

All backends must run every thunk, return results in submission
(partition) order, and surface the lowest-index failure — that ordering
contract is what makes the pooled backends bit-identical to serial
execution at the scheduler level.  The process backend additionally
owns shared-memory segments, all of which must be unlinked by
``Context.stop``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import (BackendError, Context, EngineConf,
                          ProcessPoolBackend, SerialBackend,
                          ThreadPoolBackend, create_backend)


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

    @pytest.mark.parametrize("name", ["threads"])
    def test_thread_aliases(self, name):
        backend = create_backend(name, 2)
        try:
            assert isinstance(backend, ThreadPoolBackend)
            assert backend.num_workers == 2
        finally:
            backend.shutdown()

    @pytest.mark.parametrize("name", ["process"])
    def test_process_aliases(self, name):
        backend = create_backend(name, 2)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            # ProcessPoolBackend IS a ThreadPoolBackend: orchestration
            # runs on driver threads, numerics on worker processes
            assert isinstance(backend, ThreadPoolBackend)
            assert backend.num_workers == 2
        finally:
            backend.shutdown()

    def test_unknown_name_rejected(self):
        for name in ("mpi", "sync", "local", "thread", "threadpool",
                     "threaded", "processes", "procpool", "multiprocess"):
            with pytest.raises(BackendError, match="unknown"):
                create_backend(name, 2)
            with pytest.raises(BackendError, match="EngineConf.backend"):
                Context(num_nodes=2, conf=EngineConf(backend=name))

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "3")
        with Context(num_nodes=2) as ctx:
            assert ctx.backend.name == "threads"
            assert ctx.backend.num_workers == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        with Context(num_nodes=2,
                     conf=EngineConf(backend="serial")) as ctx:
            assert ctx.backend.name == "serial"

    def test_bad_env_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "many")
        with pytest.raises(BackendError, match="REPRO_BACKEND_WORKERS"):
            Context(num_nodes=2, conf=EngineConf(backend="threads"))

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(BackendError):
            create_backend("threads", 0)


class TestExecutionContract:
    @pytest.fixture(params=["serial", "threads", "process"])
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

    def test_threads_actually_overlap(self):
        backend = create_backend("threads", 4)
        try:
            barrier = threading.Barrier(4, timeout=10)

            def rendezvous():
                # only reachable if 4 thunks run concurrently
                barrier.wait()
                return True

            assert backend.run([rendezvous] * 4) == [True] * 4
        finally:
            backend.shutdown()


class TestContextWiring:
    def test_conf_selects_backend(self):
        with Context(num_nodes=2,
                     conf=EngineConf(backend="threads",
                                     backend_workers=2)) as ctx:
            assert isinstance(ctx.backend, ThreadPoolBackend)
            assert ctx.backend.num_workers == 2
            out = ctx.parallelize(range(100), 8) \
                .map(lambda x: (x % 5, x)) \
                .reduce_by_key(lambda a, b: a + b).collect_as_map()
        assert out == {0: 950, 1: 970, 2: 990, 3: 1010, 4: 1030}

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", "2")
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.backend, ThreadPoolBackend)

    def test_stop_shuts_the_pool_down(self):
        ctx = Context(num_nodes=2,
                      conf=EngineConf(backend="threads",
                                      backend_workers=2))
        ctx.parallelize(range(10), 4).collect()
        ctx.stop()
        with pytest.raises(RuntimeError):
            ctx.backend.run([lambda: 1])

    def test_backend_name_property(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with Context(num_nodes=2) as ctx:
            assert ctx.backend.name == "serial"


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
                res = backend.offload.contrib(values, key_col, fixed,
                                              reduce_)
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
                    assert keys is None
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
        zeroed-out results, not an error."""
        from repro.engine import procpool
        monkeypatch.setattr(procpool, "_PUBLISH_CACHE_CAP", 2)
        monkeypatch.setenv("REPRO_SHM_ATTACH_CAP", "2")
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
                backend.offload.contrib(values, key_col, fixed, False)
        finally:
            backend.shutdown()
        assert backend.live_segments() == []
