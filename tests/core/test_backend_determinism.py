"""Cross-backend determinism of full CP-ALS decompositions.

The executor backend must be a pure throughput knob: running the same
decomposition on the serial backend or the process backend (one
engine thread keeping worker-process requests in flight) has to
produce bit-identical factor matrices, weights and convergence traces —
including under injected faults and node loss, where retries and
lineage recovery run while other tasks' requests are in flight.  Each
test runs the cells ``tests/conformance.py`` declares for it.
"""

from __future__ import annotations

import pytest

from .. import conformance as cf


class TestCleanRuns:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    @pytest.mark.parametrize("backend,workers", [("process", 2)])
    def test_pooled_backends_match_serial_bitwise(self, request,
                                                 monkeypatch, cls, backend,
                                                 workers):
        cf.check_kept(request, monkeypatch)

    def test_process_offload_path_matches_serial(self, request,
                                                 monkeypatch):
        """The broadcast strategy routes its Hadamard fold through the
        worker processes — results must still equal the serial run."""
        cf.check_kept(request, monkeypatch)


class TestUnderFaults:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_injected_task_faults(self, request, monkeypatch, cls):
        """The per-site derived fault RNG makes even the injected fault
        COUNT backend-independent, not just the results (the scenario
        checks each count against the oracle's under the same plan)."""
        cf.check_kept(request, monkeypatch)

    def test_injected_task_faults_process(self, request, monkeypatch):
        """The kept cell samples (``lev``), so its map tasks stay
        suspended with a request in flight while the next ones start,
        and retry or commit when their reply is taken; the fault count
        still equals the oracle's."""
        from repro.engine.procpool import OffloadClient
        served = []
        real = OffloadClient.run

        def run_(self, op, *args, **kwargs):
            out = real(self, op, *args, **kwargs)
            served.append(out is not None)
            return out
        monkeypatch.setattr(OffloadClient, "run", run_)
        cf.check_kept(request, monkeypatch)
        assert any(served)

    def test_injected_fetch_failures(self, request, monkeypatch):
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 10, 20])
    def test_seed_matrix(self, request, monkeypatch, seed):
        cf.check_kept(request, monkeypatch)

    def test_node_kill_recovery(self, request, monkeypatch):
        """Whole-node loss between iterations: lineage recovery must
        replay identically on both backends."""
        cf.check_kept(request, monkeypatch)


@pytest.mark.usefixtures("share_everything")
class TestProcessWorkerFailures:
    """Whatever goes wrong between the driver and a worker, the task
    finishes inline with the same bits and nothing is left behind."""

    @pytest.mark.parametrize("sampler", ["lev", "exact"])
    def test_a_worker_killed_between_two_iterations(
            self, request, monkeypatch, sampler):
        """The next request to the dead worker fails in transport: that
        task runs inline, a hand-shaken replacement takes the worker's
        place and later tasks offload again."""
        cf.check_kept(request, monkeypatch)

    def test_a_missing_segment_reply(self, request, monkeypatch):
        """One operand is unlinked between publish and attach (what
        losing the eviction race looks like to a worker).  That array's
        descriptor stays cached, so every task reading it falls back:
        one partition's task, once per MTTKRP."""
        from repro.engine import procpool
        missing = []
        real = procpool._WorkerProcess.receive

        def receive(self):
            reply = real(self)
            missing.extend([reply] if reply.get("missing_segment") else [])
            return reply
        monkeypatch.setattr(procpool._WorkerProcess, "receive", receive)
        cf.check_kept(request, monkeypatch)
        # the check runs the cell twice
        assert len(missing) == 2 * 3 * cf.tensor("order3").order

    @pytest.mark.parametrize("sampler", ["lev", "exact"])
    def test_no_segment_survives_a_decompose_that_raises(
            self, request, monkeypatch, sampler):
        cf.check_kept(request, monkeypatch)
