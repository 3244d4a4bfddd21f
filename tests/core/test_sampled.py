"""CP-ARLS-LEV sampled MTTKRP: estimator contract, determinism, resume.

Covers the randomized sampler at three levels: the pure sampling math
(leverage scores, floor-mixed probabilities, the per-partition unbiased
estimator of ``sample_block``), the driver integration (``sampler="lev"``
decompositions are bit-identical across backends, kernels and drivers at
a fixed seed, and resume from a checkpoint replays the exact draws), and
the end-to-end accuracy gate (sampled final fit within 0.02 of exact on
a planted low-rank tensor).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CstfCOO, InMemoryCheckpointStore
from repro.core.checkpoint import FileCheckpointStore
from repro.engine import (Context, EngineConf, JobExecutionError,
                          KernelError, NumericalIntegrityError)
from repro.engine.blocks import ColumnarBlock
from repro.kernels import (DEFAULT_SAMPLE_COUNT, POOL_FACTOR,
                           leverage_scores, sample_block,
                           sample_probabilities, uniform_pool)
from repro.kernels.sampled import draw_block
from repro.tensor import low_rank_sparse, random_factors

from .. import conformance as cf
from ..strategies import examples

#: draws per partition of the standard case under ``lev``
SAMPLES = cf.CASES["order3"].sample_count


# ---------------------------------------------------------------------
# spec resolution and EngineConf wiring
# ---------------------------------------------------------------------
def driver_spec(**conf):
    """``(sampler, sample_count)`` a driver settles on: the context's
    resolved conf (``conf`` fields, else the environment)."""
    with Context(num_nodes=2, default_parallelism=4,
                 conf=EngineConf(**conf)) as ctx:
        driver = CstfCOO(ctx)
        return driver.sampler, driver.sample_count


class TestSpecResolution:
    """The driver's view of the sampler settings (the conf-level
    precedence table is in ``tests/engine/test_conf.py``)."""

    @pytest.mark.parametrize("name", ["exact", "EXACT"])
    def test_exact_spellings(self, name):
        assert driver_spec(sampler=name)[0] == "exact"

    @pytest.mark.parametrize("name", ["lev", "LEV"])
    def test_lev_spellings(self, name):
        assert driver_spec(sampler=name)[0] == "lev"

    def test_defaults_to_exact(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLER", raising=False)
        assert driver_spec()[0] == "exact"

    def test_environment_fills_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLER", "lev")
        assert driver_spec()[0] == "lev"
        # an explicit conf field always beats the environment
        assert driver_spec(sampler="exact")[0] == "exact"

    def test_unknown_sampler_rejected(self):
        for name in ("bogus", "none", "off", "leverage", "arls-lev"):
            with pytest.raises(KernelError, match="invalid sampler"):
                driver_spec(sampler=name)

    def test_sample_count_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLE_COUNT", raising=False)
        assert driver_spec()[1] == DEFAULT_SAMPLE_COUNT
        assert driver_spec(sample_count=7)[1] == 7
        monkeypatch.setenv("REPRO_SAMPLE_COUNT", "33")
        assert driver_spec()[1] == 33
        assert driver_spec(sample_count=9)[1] == 9
        with pytest.raises(KernelError, match="invalid sample_count"):
            driver_spec(sample_count=0)

    def test_conf_wires_driver(self):
        for sampler, count in (("lev", 9), ("exact", 5)):
            conf = EngineConf(sampler=sampler, sample_count=count)
            with Context(num_nodes=2, default_parallelism=4,
                         conf=conf) as ctx:
                driver = CstfCOO(ctx)
                assert driver.sampler == sampler
                assert driver.sample_count == count
        # the conf is the one place the settings are made
        with Context(num_nodes=2, default_parallelism=4) as ctx:
            with pytest.raises(TypeError):
                CstfCOO(ctx, sampler="lev")


# ---------------------------------------------------------------------
# sampling math
# ---------------------------------------------------------------------
class TestLeverageScores:
    def test_matches_hat_matrix_diagonal(self, rng):
        a = rng.standard_normal((40, 4))
        pinv_gram = np.linalg.pinv(a.T @ a)
        direct = np.diag(a @ pinv_gram @ a.T)
        assert np.allclose(leverage_scores(a, pinv_gram), direct)

    def test_nonnegative_even_with_noise(self, rng):
        # a rank-deficient factor puts tiny negative float noise on the
        # hat diagonal; the scores must be clipped to >= 0
        col = rng.standard_normal((30, 1))
        a = np.hstack([col, col, col])
        scores = leverage_scores(a, np.linalg.pinv(a.T @ a))
        assert (scores >= 0.0).all()


class TestSampleProbabilities:
    def test_sums_to_one_and_strictly_positive(self, rng):
        w = rng.uniform(0.0, 5.0, size=100)
        w[::7] = 0.0  # zero-leverage rows keep the uniform floor
        q = sample_probabilities(w)
        assert q.sum() == 1.0
        assert (q > 0.0).all()

    def test_all_zero_weights_degenerate_to_uniform(self):
        q = sample_probabilities(np.zeros(8))
        assert np.allclose(q, 1.0 / 8)

    def test_floor_bounds_minimum_mass(self):
        w = np.array([0.0, 1.0, 1.0, 1.0])
        q = sample_probabilities(w, floor=0.1)
        assert q[0] == pytest.approx(0.1 / 4, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_raise(self, bad):
        """A diverged factor's NaN leverage must not silently become
        uniform draws (``total > 0`` is false for NaN)."""
        w = np.ones(6)
        w[2] = bad
        with pytest.raises(ValueError, match="leverage weights"):
            sample_probabilities(w)

    def test_draw_block_refuses_a_nan_score_vector(self, rng):
        block = ColumnarBlock([rng.integers(0, 5, 40) for _ in range(3)],
                              rng.standard_normal(40))
        scores = {1: rng.uniform(0.0, 1.0, 5), 2: np.full(5, np.nan)}
        with pytest.raises(ValueError, match="leverage weights"):
            draw_block(block, scores, 0, 8, (0, 0, 0))


class TestUnbiasedEstimator:
    """The documented contract: per partition, the sum of the scaled
    sampled values is an unbiased estimator of the exact sum — per
    source nonzero, not just in aggregate."""

    @staticmethod
    def _block(n, rng):
        # column 0 identifies the source nonzero so the test can
        # attribute every draw's scaled mass back to it
        columns = [np.arange(n), rng.integers(0, 5, n),
                   rng.integers(0, 5, n)]
        values = rng.standard_normal(n)
        return ColumnarBlock(columns, values)

    @given(st.integers(0, 10_000))
    @settings(max_examples=examples(10), deadline=None)
    def test_mean_estimate_converges_to_exact(self, data_seed):
        rng = np.random.default_rng(data_seed)
        n, s, sites = 30, 32, 400
        block = self._block(n, rng)
        weights = rng.uniform(0.0, 3.0, size=n)
        per_site = np.empty((sites, n))
        for k in range(sites):
            out = sample_block(block, weights, s, (k, "unbiased-test"))
            mass = np.zeros(n)
            np.add.at(mass, out.column(0), out.values)
            per_site[k] = mass
        mean = per_site.mean(axis=0)
        # the estimator's analytic standard error (draw counts are
        # Binomial(s, q)), not the empirical one: a near-zero-weight
        # nonzero may never be drawn in sites * s draws, and an
        # empirical spread of exactly 0 would collapse the band
        q = sample_probabilities(weights)
        stderr = np.abs(block.values) * np.sqrt(
            (1.0 - q) / (s * q * sites))
        # 6-sigma CLT band per source nonzero
        assert (np.abs(mean - block.values)
                <= 6.0 * stderr + 1e-12).all()

    def test_scaled_values_invert_draw_probability(self, rng):
        block = self._block(20, rng)
        weights = rng.uniform(0.1, 1.0, size=20)
        s = 16
        out = sample_block(block, weights, s, (0, "scale-test"))
        q = sample_probabilities(weights)
        assert len(out) == s
        drawn = out.column(0)
        assert np.array_equal(out.values,
                              block.values[drawn] / (s * q[drawn]))

    def test_site_determinism(self, rng):
        block = self._block(25, rng)
        weights = rng.uniform(0.0, 1.0, size=25)
        a = sample_block(block, weights, 32, (3, "site", 1, 0, 4))
        b = sample_block(block, weights, 32, (3, "site", 1, 0, 4))
        other = sample_block(block, weights, 32, (3, "site", 2, 0, 4))
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.columns, other.columns)


class TestUniformPool:
    """Stage-1 pooling: unbiased in its own right, a no-op for blocks
    already within the target, and site-deterministic."""

    def test_small_blocks_pass_through_unchanged(self, rng):
        block = ColumnarBlock([np.arange(10)], rng.standard_normal(10))
        pooled = uniform_pool(block, 10, (0, "pool"))
        assert pooled is block

    def test_pool_sum_is_unbiased(self, rng):
        n, target, sites = 500, 64, 600
        block = ColumnarBlock([np.arange(n)], rng.standard_normal(n))
        sums = np.array([
            uniform_pool(block, target, (k, "pool")).values.sum()
            for k in range(sites)])
        stderr = sums.std() / np.sqrt(sites)
        assert abs(sums.mean() - block.values.sum()) <= 6.0 * stderr

    def test_pool_values_carry_inverse_scale(self, rng):
        n, target = 100, 16
        block = ColumnarBlock([np.arange(n)], rng.standard_normal(n))
        pooled = uniform_pool(block, target, (1, "pool"))
        assert len(pooled) == target
        drawn = pooled.column(0)
        assert np.array_equal(pooled.values,
                              block.values[drawn] * (n / target))

    def test_site_determinism(self, rng):
        block = ColumnarBlock([np.arange(300)],
                              rng.standard_normal(300))
        a = uniform_pool(block, 32, (5, "pool", 0))
        b = uniform_pool(block, 32, (5, "pool", 0))
        other = uniform_pool(block, 32, (5, "pool", 1))
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.columns, other.columns)

    def test_two_stage_estimator_is_unbiased(self, rng):
        """Pool then importance-sample — the composed estimator must
        still average to the exact sum (tower property)."""
        n, s, sites = 800, 32, 600
        block = ColumnarBlock([np.arange(n)], rng.standard_normal(n))
        weights_full = rng.uniform(0.0, 3.0, size=n)
        sums = np.empty(sites)
        for k in range(sites):
            pooled = uniform_pool(block, POOL_FACTOR * s, (k, "p"))
            out = sample_block(pooled, weights_full[pooled.column(0)],
                               s, (k, "s"))
            sums[k] = out.values.sum()
        stderr = sums.std() / np.sqrt(sites)
        assert abs(sums.mean() - block.values.sum()) <= 6.0 * stderr


# ---------------------------------------------------------------------
# driver integration
# ---------------------------------------------------------------------
class TestSampledDecompose:
    def test_flags_fit_as_estimate(self):
        sampled = cf.run(sampler="lev")
        exact = cf.run(sampler="exact")
        assert sampled.result.fit_is_estimate
        assert not exact.result.fit_is_estimate
        draws = sampled.metrics.sampler_draws
        assert draws > 0 and draws % SAMPLES == 0
        assert exact.metrics.sampler_draws == 0

    def test_same_seed_is_reproducible(self):
        cf.assert_bit_identical(cf.run(sampler="lev", seed=5),
                                cf.run(sampler="lev", seed=5))

    def test_seed_changes_draws(self):
        a, b = (cf.oracle(sampler="lev", seed=seed) for seed in (0, 1))
        assert not np.array_equal(a.result.factors[0], b.result.factors[0])

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    @pytest.mark.parametrize("backend,workers", [("process", 2)])
    def test_backends_bit_identical(self, request, monkeypatch, cls,
                                    backend, workers):
        cf.check_kept(request, monkeypatch)

    def test_kernels_bit_identical(self, request, monkeypatch):
        cf.check_kept(request, monkeypatch)

    def test_drivers_bit_identical(self, request, monkeypatch):
        """Sampled MTTKRP replaces each driver's exact dataflow with the
        same broadcast estimator, so COO and QCOO equal one oracle."""
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("lapack", ["checks-nan", "propagates-nan",
                                        "integrity-guard"])
    def test_a_nan_factor_row_raises_instead_of_fitting(
            self, lapack, monkeypatch):
        """A NaN row in mode 1's initial factor makes its Gram NaN.  A
        LAPACK that checks refuses the Gram's pinv; one that hands NaN
        back gives NaN leverage scores, and the sampled map task then
        fails by name instead of drawing uniformly into a NaN fit.  With
        integrity on, the NaN guard names the factor first, where it is
        collected; the other two cases pin integrity off, so the
        environment cannot pick the path."""
        expected, conf = np.linalg.LinAlgError, {"integrity": False}
        if lapack == "propagates-nan":
            real = np.linalg.pinv
            monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: (
                real(a, **kw) if np.isfinite(a).all()
                else np.full(a.shape[::-1], np.nan)))
            expected = JobExecutionError
        elif lapack == "integrity-guard":
            expected, conf = NumericalIntegrityError, {"integrity": True}
        init = [f.copy() for f in cf.initial("order3")]
        init[1][3] = np.nan
        got = cf.run(sampler="lev", init=init, conf=conf, raises=expected)
        assert got.result is None
        if lapack == "propagates-nan":
            assert "leverage weights sum to nan" in str(got.error)
        elif lapack == "integrity-guard":
            assert (got.error.stage, got.error.mode) == ("collect-factor", 1)

    def test_qcoo_skips_queue_construction(self):
        """Under lev the QCOO queue (N-1 tensor-sized joins) is never
        read, so ``_setup`` must not build it: the setup phase runs the
        same jobs as plain COO."""
        coo, qcoo = (cf.run(driver=d, sampler="lev").metrics
                     for d in ("coo-join", "qcoo"))
        assert len(qcoo.jobs_in_phase("setup")) \
            == len(coo.jobs_in_phase("setup"))


# ---------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------
class TestSampledResume:
    @staticmethod
    def lev(**kwargs):
        return cf.run(sampler="lev", iterations=4, **kwargs)

    def test_resume_is_bit_identical(self):
        """A lev run resumed from iteration 1 must replay the exact
        draws of the uninterrupted run — the site-seeded RNG keys on
        the iteration number, not on how many draws happened before."""
        store = InMemoryCheckpointStore()
        full = self.lev(store=store, checkpoint_every=1)
        resumed = self.lev(store=store, resume_from=1)
        assert full.result.fit_is_estimate and resumed.result.fit_is_estimate
        cf.assert_bit_identical(full, resumed)

    def test_snapshot_records_sampler_state(self):
        store = InMemoryCheckpointStore()
        self.lev(store=store, checkpoint_every=2)
        assert store.load().rng_state == {"sampler": "lev",
                                          "sample_count": SAMPLES, "seed": 0}

    def test_file_store_round_trips_sampler_state(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        self.lev(store=store, checkpoint_every=2)
        assert store.load().rng_state == {"sampler": "lev",
                                          "sample_count": SAMPLES, "seed": 0}

    def test_exact_snapshots_have_no_sampler_state(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        cf.run(sampler="exact", iterations=4, store=store,
               checkpoint_every=2)
        assert store.load().rng_state is None
        # and an exact resume of an exact checkpoint still works
        resumed = cf.run(sampler="exact", iterations=4, store=store,
                         resume_from=1)
        cf.assert_bit_identical(cf.oracle(iterations=4), resumed)

    @pytest.mark.parametrize("mismatch", [
        {"sampler": None},
        {"sample_count": SAMPLES * 2},
        {"seed": 1},
    ])
    def test_mismatched_resume_rejected(self, mismatch):
        """Resuming with a different sampler configuration would replay
        different draws — the driver must refuse, not silently
        diverge."""
        store = InMemoryCheckpointStore()
        self.lev(store=store, checkpoint_every=1)
        got = cf.run(sampler=mismatch.get("sampler", "lev"),
                     sample_count=mismatch.get("sample_count"),
                     seed=mismatch.get("seed", 0), iterations=4,
                     store=store, resume_from=1, raises=ValueError)
        assert "sampler state" in str(got.error)


# ---------------------------------------------------------------------
# accuracy gate
# ---------------------------------------------------------------------
class TestAccuracyGate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_fit_within_002_of_exact(self, seed):
        tensor, _ = low_rank_sparse((30, 30, 30), 3000, 3, noise=0.05,
                                    rng=11)
        init = random_factors(tensor.shape, 3, 13)
        sampled, exact = (
            cf.run(data=tensor, init=init, rank=3, iterations=5,
                   sampler=sampler, sample_count=512, seed=seed).result
            for sampler in ("lev", "exact"))
        # score the *sampled model* with the exact offline fit — its
        # own fit_history is itself an estimate
        assert abs(sampled.fit(tensor)
                   - exact.fit_history[-1]) <= 0.02


# ---------------------------------------------------------------------
# the fused task body: one function, wherever it runs
# ---------------------------------------------------------------------
class TestSampledBlockContribution:
    """``sampled_block_contribution`` is the composition of the pieces
    the two-node oracle path runs, array for array."""

    @pytest.mark.parametrize("prereduce", [True, False])
    @pytest.mark.parametrize("s", [4, 64], ids=["pooled", "pool-passes"])
    def test_equals_contribution_of_the_sampled_pooled_block(
            self, rng, s, prereduce):
        from repro.kernels.vectorized import (block_contribution,
                                              sampled_block_contribution)
        n, shape, rank, mode = 90, (7, 9, 5), 3, 1
        block = ColumnarBlock([rng.integers(0, d, n) for d in shape],
                              rng.standard_normal(n))
        scores = {m: rng.uniform(0.0, 1.0, shape[m]) for m in (0, 2)}
        factors = {m: rng.standard_normal((shape[m], rank))
                   for m in (0, 2)}
        keys, rows = sampled_block_contribution(
            block, scores, factors, mode=mode, s=s, site=(11, 2, 5),
            floor=1e-3, prereduce=prereduce)

        pooled = uniform_pool(block, POOL_FACTOR * s,
                              (11, "lev-pool", 2, mode, 5))
        assert (pooled is block) == (s == 64)
        weights = np.ones(len(pooled))
        for m, score in scores.items():
            weights = weights * score[pooled.column(m)]
        drawn = sample_block(pooled, weights, s,
                             (11, "lev-sample", 2, mode, 5), 1e-3)
        exp_keys, exp_rows = block_contribution(
            drawn.values, drawn.column(mode),
            [(drawn.column(m), factors[m]) for m in (0, 2)], prereduce)
        assert np.array_equal(keys, exp_keys)
        assert np.array_equal(rows, exp_rows)
        if not prereduce:   # the s raw rows, in draw order
            assert np.array_equal(keys, drawn.column(mode))
            assert len(rows) == s


@pytest.mark.usefixtures("share_everything")
class TestSampledTaskBody:
    """The sampled map task — one fused body wherever it runs — on the
    degenerate shapes of ``cf.TASK_BODY_CASES``: every backend and
    kernel, clean and under injected task failures, equals the record
    oracle's two-node (sample, then contribute) composition."""

    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["clean", "fault-seeded"])
    @pytest.mark.parametrize("kernel", ["vectorized", "record"])
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 2)])
    @pytest.mark.parametrize("name", cf.TASK_BODY_CASES)
    def test_bit_identical_wherever_it_runs(self, request, monkeypatch,
                                            name, backend, workers, kernel,
                                            faulty):
        (got,) = cf.check_kept(request, monkeypatch)
        assert faulty or got.metrics.faults.task_failures == 0

    @pytest.mark.parametrize("backend,workers", [("process", 2)])
    def test_resume_on_another_backend_replays_the_draws(self, backend,
                                                         workers):
        store = InMemoryCheckpointStore()
        full = cf.run("lev-pool-draws", kernel="record", backend="serial",
                      sampler="lev", store=store, checkpoint_every=1)
        cf.assert_bit_identical(cf.oracle("lev-pool-draws", sampler="lev"),
                                full)
        resumed = cf.run("lev-pool-draws", kernel="vectorized",
                         backend=backend, sampler="lev", store=store,
                         resume_from=0)
        cf.assert_bit_identical(full, resumed)

    @pytest.mark.parametrize("kernel", ["vectorized", "record"])
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 2)])
    def test_one_mttkrp_with_the_combiner_denied_its_booking(
            self, backend, workers, kernel):
        """100 bytes of memory: the row combiner cannot book the task
        body's block and expands it into records, which are batched
        again, and no factor stays cached, so every later MTTKRP
        recomputes the factors through the broadcasts they were solved
        from.  A whole run equals the serial record oracle."""
        got = cf.run("denied-booking", kernel=kernel, backend=backend,
                     sampler="lev")
        cf.assert_bit_identical(cf.oracle("denied-booking", sampler="lev"),
                                got)
