"""Fault tolerance of the full CP-ALS pipeline.

The paper motivates Spark precisely because "fault-tolerant frameworks
... can execute in data-center settings"; these tests inject task
failures and whole-node loss into complete decompositions and require
bit-identical results, and exercise driver-level checkpoint/resume.
"""

from __future__ import annotations

import pytest

from repro.core import (CstfCOO, CstfQCOO, FileCheckpointStore,
                        InMemoryCheckpointStore)
from repro.engine import (Context, FaultPlan, JobExecutionError,
                          TaskFailedError)

from .. import conformance as cf


class TestTransientFaults:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_sporadic_failures_do_not_change_results(self, cls):
        state = {"count": 0}

        def flaky(stage_id, partition, attempt):
            state["count"] += 1
            # fail every 17th task attempt once
            if state["count"] % 17 == 0 and attempt == 0:
                raise RuntimeError("injected transient fault")
        driver = cf.DRIVER_OF[cls]
        got = cf.run(driver=driver, injector=flaky, iterations=2)
        cf.assert_bit_identical(cf.oracle(driver=driver, iterations=2), got)
        assert state["count"] > 17  # faults actually fired

    def test_every_first_attempt_fails(self, request, monkeypatch):
        """Worst transient case: every task fails once, all retried."""
        cf.check_kept(request, monkeypatch)


class TestNodeLoss:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_node_killed_mid_iteration_recovers_exactly(
            self, request, monkeypatch, cls):
        """Kill a node mid-iteration, while its shuffle map outputs are
        still live: the reduce-side read hits FetchFailedError, the
        scheduler resubmits the map stage from lineage, and the
        decomposition converges to the fault-free factors exactly."""
        (got,) = cf.check_kept(request, monkeypatch)
        faults = got.metrics.faults
        assert faults.map_outputs_lost > 0
        assert faults.cached_partitions_lost > 0
        assert faults.fetch_failures > 0

    def test_node_killed_late_during_factor_collection(self):
        """A kill after the iterations, during factor collection,
        invalidates cached factor partitions whose lineage reaches
        already-gc'd shuffles — recovery must recompute those too."""
        late = FaultPlan(seed=0, node_kills=(cf.NODE_KILLS["after-300"],))
        got = cf.run(plan=late, iterations=2)
        assert got.metrics.faults.nodes_killed == 1
        cf.assert_bit_identical(cf.oracle(iterations=2), got)


class TestCheckpointResume:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_resume_is_bit_for_bit(self, cls):
        """Simulated driver crash: run 2 of 4 iterations with
        checkpointing, then resume in a brand-new context.  The resumed
        run must match the uninterrupted one exactly."""
        driver = cf.DRIVER_OF[cls]
        store = InMemoryCheckpointStore()
        cf.run(driver=driver, iterations=2, store=store, checkpoint_every=1)
        assert store.iterations() == [0, 1]
        # "crash": that context is gone; resume in a fresh one
        resumed = cf.run(driver=driver, iterations=4, store=store,
                         resume_from="latest")
        cf.assert_bit_identical(cf.oracle(driver=driver, iterations=4),
                                resumed)

    def test_resume_from_explicit_iteration(self):
        store = InMemoryCheckpointStore()
        cf.run(iterations=2, store=store, checkpoint_every=1)
        resumed = cf.run(iterations=2, store=store, resume_from=0)
        cf.assert_bit_identical(cf.oracle(iterations=2), resumed)

    def test_directory_store_roundtrip(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        cf.run(iterations=1, store=store, checkpoint_every=1)
        assert store.iterations() == [0]
        snap = store.load()
        assert snap.algorithm == CstfCOO.name
        assert snap.rank == 2
        assert snap.iteration == 0
        # resume off disk — the real crash-recovery path
        resumed = cf.run(iterations=2, resume_from="latest",
                         store=FileCheckpointStore(tmp_path / "ckpts"))
        cf.assert_bit_identical(cf.oracle(iterations=2), resumed)

    def test_checkpointing_does_not_change_results(self):
        store = InMemoryCheckpointStore()
        got = cf.run(iterations=2, store=store, checkpoint_every=2)
        assert store.iterations() == [1]
        cf.assert_bit_identical(cf.oracle(iterations=2), got)

    def test_checkpoint_validations(self):
        tensor, init = cf.tensor("order3"), list(cf.initial("order3"))
        store = InMemoryCheckpointStore()
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            driver = CstfCOO(ctx)
            with pytest.raises(ValueError, match="checkpoint_store"):
                driver.decompose(tensor, 2, max_iterations=1,
                                 checkpoint_every=1)
            with pytest.raises(ValueError, match="checkpoint_store"):
                driver.decompose(tensor, 2, max_iterations=1,
                                 resume_from="latest")
            with pytest.raises(ValueError, match="checkpoint_every"):
                driver.decompose(tensor, 2, max_iterations=1,
                                 checkpoint_every=0,
                                 checkpoint_store=store)
            with pytest.raises(KeyError):  # empty store
                driver.decompose(tensor, 2, max_iterations=1,
                                 checkpoint_store=store,
                                 resume_from="latest")
            driver.decompose(tensor, 2, max_iterations=1, tol=0.0,
                             initial_factors=init, checkpoint_every=1,
                             checkpoint_store=store)
            with pytest.raises(ValueError, match="mutually"):
                driver.decompose(tensor, 2, max_iterations=2,
                                 initial_factors=init,
                                 checkpoint_store=store,
                                 resume_from="latest")
            with pytest.raises(ValueError, match="rank"):
                driver.decompose(tensor, 3, max_iterations=2,
                                 checkpoint_store=store,
                                 resume_from="latest")
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            with pytest.raises(ValueError, match="written by"):
                CstfQCOO(ctx).decompose(tensor, 2, max_iterations=2,
                                        checkpoint_store=store,
                                        resume_from="latest")


class TestPermanentFaults:
    def test_exhausted_retries_surface(self):
        def doomed(stage_id, partition, attempt):
            if partition == 3:
                raise RuntimeError("partition 3 is cursed")
        got = cf.run(injector=doomed, iterations=1,
                     conf={"task_max_failures": 2},
                     raises=JobExecutionError)
        assert got.error.partition == 3
        assert isinstance(got.error.__cause__, TaskFailedError)
        assert got.error.__cause__.attempts == 2
