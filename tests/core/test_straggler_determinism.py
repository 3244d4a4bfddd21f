"""Bit-identity of CP-ALS under straggler resilience.

Speculation, task deadlines and quarantine are *time-domain* features:
they change when and where attempts run, never what they compute.  The
commit-once latch guarantees exactly one attempt's records reach the
shuffle layer, so a decomposition with speculation on — even racing
backups against a 10x-slow node — must be bit-identical to a clean run
with everything off, on both backends.  All runs use the virtual clock
so minutes of injected latency cost milliseconds of wall time.
"""

from __future__ import annotations

import pytest

from .. import conformance as cf

BACKENDS = (("serial", None), ("threads", 4))


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
        results (backups may or may not launch; commits are unique)."""
        on = cf.run(backend="threads", conf={"speculation": True})
        cf.assert_bit_identical(cf.oracle(), on)

    def test_thread_spec_matches_serial_spec(self, request, monkeypatch):
        """The serial inline-failover path and the threaded racing
        path converge on identical factors."""
        cf.check_kept(request, monkeypatch)
