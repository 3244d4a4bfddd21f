"""End-to-end acceptance: CP-ALS under corruption with integrity on.

Under a seeded fault plan with ``corrupt_block_prob > 0`` and
``torn_write_prob > 0``, a full CP-ALS decomposition with the integrity
layer enabled (a) completes, (b) ends with factors bit-identical to a
fault-free run, (c) detects *every* injected corruption
(``corruptions_injected == corrupted_blocks``), and (d) does all of that
on both executor backends.  Plus the numerical-integrity watchdog: NaN
poisoning raises :class:`~repro.engine.errors.NumericalIntegrityError`
with stage context instead of converging to garbage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import NumericalIntegrityError

from .. import conformance as cf


class TestCorruptionTransparency:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    @pytest.mark.parametrize("backend", ["serial"])
    def test_corrupted_run_is_bit_identical(self, request, monkeypatch,
                                            cls, backend):
        (got,) = cf.check_kept(request, monkeypatch)
        integrity = got.metrics.integrity
        assert integrity.recompute_recoveries > 0
        assert integrity.blocks_verified > 0

    def test_integrity_on_clean_plan_is_bit_transparent(self, request,
                                                        monkeypatch):
        cf.check_kept(request, monkeypatch)


class TestCorruptionWithTornCheckpoints:
    def test_full_gauntlet_completes_bit_identically(self, request,
                                                     monkeypatch):
        """Block corruption in flight AND torn checkpoint writes at
        once; the newest good snapshot replays to the same bits."""
        cf.check_kept(request, monkeypatch)


class TestNumericalWatchdog:
    def test_nan_raises_with_stage_context(self):
        """A NaN tensor entry flows through the mode-0 MTTKRP into the
        factor solve while every Gram stays finite — the scenario the
        watchdog exists for."""
        got = cf.run("order3-nan", conf=cf.INTEGRITY, iterations=2,
                     raises=NumericalIntegrityError)
        assert got.metrics.integrity.nan_guards_tripped >= 1
        assert got.error.stage == "mttkrp-solve"
        assert got.error.mode == 0
        assert got.error.iteration == 0

    def test_nan_fails_without_context_when_integrity_off(self):
        """Documents the behaviour the watchdog replaces: with integrity
        off, the NaN poisons the first factor update and the run dies
        later inside numpy with no stage/mode context (or, in shapes
        where pinv survives, silently converges to garbage)."""
        cf.run("order3-nan", conf={"integrity": False}, iterations=2,
               raises=np.linalg.LinAlgError)
