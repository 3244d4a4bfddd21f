"""Cross-backend determinism of full CP-ALS decompositions.

The executor backend must be a pure throughput knob: running the same
decomposition on the serial backend, a 4-worker thread pool, or the
process backend (thread orchestration plus shared-memory worker
processes) has to produce bit-identical factor matrices, weights and
convergence traces — including under the fault-seed matrix and node
loss, where retries and lineage recovery run concurrently.  Seeded via
``REPRO_FAULT_SEED`` so CI sweeps a matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.engine import Context, EngineConf, FaultPlan, NodeKillEvent
from repro.tensor import random_factors, uniform_sparse

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

BACKENDS = (("serial", None), ("threads", 4), ("process", 2))


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((12, 10, 14), 220, rng=6)


@pytest.fixture(scope="module")
def init(tensor):
    return random_factors(tensor.shape, 2, 17)


def run(cls, tensor, init, backend, workers, fault_plan=None,
        driver_kwargs=None, **conf_kwargs):
    conf = EngineConf(backend=backend, backend_workers=workers,
                      **conf_kwargs)
    with Context(num_nodes=4, default_parallelism=8, conf=conf,
                 fault_plan=fault_plan) as ctx:
        assert ctx.backend.name == backend
        driver = cls(ctx, **(driver_kwargs or {}))
        result = driver.decompose(tensor, 2, max_iterations=3, tol=0.0,
                                  initial_factors=init)
        faults = ctx.metrics.faults
        if hasattr(ctx.backend, "live_segments"):
            segments = ctx.backend.live_segments()
    if hasattr(ctx.backend, "live_segments"):
        assert ctx.backend.live_segments() == [], \
            f"leaked shm segments (had {len(segments)} live mid-run)"
    return result, faults.task_failures, faults.fetch_failures


def assert_bit_identical(a, b):
    assert np.array_equal(a.lambdas, b.lambdas)
    assert len(a.factors) == len(b.factors)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    assert a.fit_history == b.fit_history


class TestCleanRuns:
    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    @pytest.mark.parametrize("backend,workers", BACKENDS[1:])
    def test_pooled_backends_match_serial_bitwise(self, cls, tensor,
                                                 init, backend, workers):
        serial, _, _ = run(cls, tensor, init, *BACKENDS[0])
        pooled, _, _ = run(cls, tensor, init, backend, workers)
        assert_bit_identical(serial, pooled)

    def test_repeated_thread_runs_are_stable(self, tensor, init):
        """Thread scheduling noise must not leak into results."""
        first, _, _ = run(CstfCOO, tensor, init, "threads", 4)
        second, _, _ = run(CstfCOO, tensor, init, "threads", 4)
        assert_bit_identical(first, second)

    def test_process_offload_path_matches_serial(self, tensor, init):
        """The broadcast strategy routes its Hadamard fold through the
        worker processes (shared-memory descriptors, segmented
        pre-reduce) — results must still equal the serial inline run."""
        kwargs = {"driver_kwargs": {"factor_strategy": "broadcast"}}
        serial, _, _ = run(CstfCOO, tensor, init, "serial", None,
                           **kwargs)
        process, _, _ = run(CstfCOO, tensor, init, "process", 2,
                            **kwargs)
        assert_bit_identical(serial, process)


class TestUnderFaults:
    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_injected_task_faults(self, cls, tensor, init):
        plan = FaultPlan(seed=SEED, task_failure_prob=0.05)
        serial, serial_failures, _ = run(cls, tensor, init,
                                         "serial", None, plan)
        threads, thread_failures, _ = run(cls, tensor, init,
                                          "threads", 4, plan)
        assert_bit_identical(serial, threads)
        # the per-site derived fault RNG makes even the injected fault
        # COUNT backend-independent, not just the results
        assert serial_failures == thread_failures
        assert serial_failures > 0

    def test_injected_task_faults_process(self, tensor, init):
        plan = FaultPlan(seed=SEED, task_failure_prob=0.05)
        serial, serial_failures, _ = run(CstfCOO, tensor, init,
                                         "serial", None, plan)
        process, process_failures, _ = run(CstfCOO, tensor, init,
                                           "process", 2, plan)
        assert_bit_identical(serial, process)
        assert serial_failures == process_failures

    def test_injected_fetch_failures(self, tensor, init):
        plan = FaultPlan(seed=SEED, fetch_failure_prob=0.01)
        serial, _, serial_fetch = run(CstfCOO, tensor, init,
                                      "serial", None, plan,
                                      stage_max_failures=16)
        threads, _, thread_fetch = run(CstfCOO, tensor, init,
                                       "threads", 4, plan,
                                       stage_max_failures=16)
        assert_bit_identical(serial, threads)
        assert serial_fetch > 0
        assert thread_fetch > 0

    @pytest.mark.parametrize("seed", [SEED, SEED + 10, SEED + 20])
    def test_seed_matrix(self, tensor, init, seed):
        plan = FaultPlan(seed=seed, task_failure_prob=0.03,
                         slow_task_prob=0.05, slow_task_delay_s=1e-4)
        serial, _, _ = run(CstfCOO, tensor, init, "serial", None, plan)
        threads, _, _ = run(CstfCOO, tensor, init, "threads", 4, plan)
        assert_bit_identical(serial, threads)

    def test_node_kill_recovery(self, tensor, init):
        """Whole-node loss mid-run: lineage recovery must replay
        identically on both backends."""
        def with_kill(backend, workers):
            plan = FaultPlan(seed=SEED, node_kills=(
                NodeKillEvent(node_id=1, at_iteration=1),))
            return run(CstfQCOO, tensor, init, backend, workers, plan)
        serial, _, _ = with_kill("serial", None)
        threads, _, _ = with_kill("threads", 4)
        clean, _, _ = run(CstfQCOO, tensor, init, "serial", None)
        assert_bit_identical(serial, threads)
        assert_bit_identical(serial, clean)


@pytest.mark.usefixtures("share_everything")
class TestProcessWorkerFailures:
    """Whatever goes wrong between the driver and a worker, the task
    finishes inline with the same bits and nothing is left behind."""

    #: the record oracle never offloads: pin the kernel that does
    EXACT = {"kernel": "vectorized"}
    LEV = {"kernel": "vectorized", "sampler": "lev", "sample_count": 8}

    @pytest.fixture
    def refusals(self, monkeypatch):
        """``OffloadClient.run`` calls that answered "compute inline"."""
        from repro.engine.procpool import OffloadClient
        refused = []
        real = OffloadClient.run

        def run_(self, op, *args, **kwargs):
            result = real(self, op, *args, **kwargs)
            if result is None:
                refused.append(op)
            return result
        monkeypatch.setattr(OffloadClient, "run", run_)
        return refused

    @pytest.mark.parametrize("conf", [LEV, EXACT], ids=["lev", "exact"])
    def test_a_worker_killed_between_two_iterations(
            self, tensor, init, monkeypatch, refusals, conf):
        """The next request to the dead worker fails in transport: that
        task runs inline, a hand-shaken replacement takes the worker's
        place and later tasks offload again."""
        kwargs = {"driver_kwargs": {"factor_strategy": "broadcast"},
                  **conf}
        serial, _, _ = run(CstfCOO, tensor, init, "serial", None,
                           **kwargs)
        pools = []
        real_drop = Context.drop_shuffle_outputs

        def drop_and_kill(ctx):   # the driver's end-of-iteration call
            real_drop(ctx)
            pool = ctx.backend._workers
            if not pools:
                pools.append(pool)
                victim = pool._idle[-1]._proc
                victim.kill()
                victim.wait(timeout=10)
        monkeypatch.setattr(Context, "drop_shuffle_outputs",
                            drop_and_kill)
        process, _, _ = run(CstfCOO, tensor, init, "process", 2,
                            **kwargs)
        assert_bit_identical(serial, process)
        assert len(refusals) == 1
        assert pools[0]._stopped

    def test_a_missing_segment_reply(self, tensor, init, monkeypatch,
                                     refusals):
        """One operand is unlinked between publish and attach (what
        losing the eviction race looks like to a worker)."""
        from repro.engine.procpool import SharedBlockRegistry
        real = SharedBlockRegistry.publish_cached
        sabotaged = []

        def publish_then_unlink(self, arr):
            desc = real(self, arr)
            if not sabotaged:
                sabotaged.append(desc)
                self._release_locked(desc[0])
            return desc
        monkeypatch.setattr(SharedBlockRegistry, "publish_cached",
                            publish_then_unlink)
        kwargs = {"driver_kwargs": {"factor_strategy": "broadcast"},
                  **self.LEV}
        serial, _, _ = run(CstfCOO, tensor, init, "serial", None,
                           **kwargs)
        process, _, _ = run(CstfCOO, tensor, init, "process", 2,
                            **kwargs)
        assert_bit_identical(serial, process)
        # that array's descriptor stays cached, so every task reading
        # it falls back: one partition's task, once per MTTKRP
        assert set(refusals) == {"sampled_contrib"}
        assert len(refusals) == 3 * tensor.order

    @pytest.mark.parametrize("conf", [LEV, EXACT], ids=["lev", "exact"])
    def test_no_segment_survives_a_decompose_that_raises(
            self, tensor, init, monkeypatch, conf):
        class Boom(Exception):
            pass

        def boom(ctx):   # the end of the first iteration
            raise Boom
        monkeypatch.setattr(Context, "drop_shuffle_outputs", boom)
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(backend="process", backend_workers=2,
                                     **conf)) as ctx:
            with pytest.raises(Boom):
                CstfCOO(ctx, factor_strategy="broadcast").decompose(
                    tensor, 2, max_iterations=3, tol=0.0,
                    initial_factors=init)
            backend = ctx.backend
            assert backend.live_segments()   # the partitions' columns
        assert backend.live_segments() == []
