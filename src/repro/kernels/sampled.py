"""Randomized leverage-score MTTKRP sampling (CP-ARLS-LEV).

Bharadwaj et al. (arXiv 2210.05105) observe that the MTTKRP's
contribution of nonzero ``x`` at index ``(i_1, ..., i_N)`` to a
mode-``n`` update is weighted by the product of the *leverage scores*
of the fixed factor rows it touches, so drawing nonzeros with
probability proportional to that product concentrates the samples
where the Khatri-Rao least-squares problem actually has mass.  The
mode-``m`` leverage score of row ``i`` is

    lev_m[i] = [A_m pinv(A_m^T A_m) A_m^T]_{ii}

computed driver-side from the cached Gram matrices
(:meth:`repro.core.gram.GramCache.pinv_gram`) in one ``einsum`` per
mode; a nonzero's sampling weight is the product of its fixed modes'
scores.

Estimator contract (unbiasedness)
---------------------------------
Sampling is *per partition* with replacement: partition ``p`` holding
nonzero contributions ``c_1 .. c_n`` with probabilities ``q_1 .. q_n``
(``sum q_j = 1``) draws ``s`` indices and emits each drawn nonzero with
its value scaled by ``1 / (s * q_j)``.  The partition's sampled MTTKRP
contribution is then

    S_p = (1/s) * sum_{draws d} c_d / q_d,      E[S_p] = sum_j c_j,

so every partition's estimate — and their sum, the full MTTKRP — is
unbiased for any strictly positive ``q``.  Strict positivity is
guaranteed by mixing a uniform floor into the leverage weights
(``q = (1 - floor) * w / sum(w) + floor / n``), which also bounds the
worst-case importance ratio.  ``tests/core/test_sampled.py`` property-
tests this contract directly.

Partitions much larger than the draw budget first pass through a
*uniform pre-sample* of ``POOL_FACTOR * s`` rows with values scaled by
``n / pool`` (:func:`pool_rows`, itself unbiased for the partition
sum); leverage weighting and the importance draw then run on the pool
only.  By the tower property the two-stage estimator stays unbiased,
and the per-iteration cost becomes ``O(POOL_FACTOR * s)`` per
partition — independent of nnz — instead of an ``O(nnz)`` weight scan.

One partition's draw — pool by index, weigh, draw by ``choice``'s own
inverse CDF — is :func:`draw_block`;
:meth:`LeverageSampler.sample_rdd` wraps it in an RDD node of its own
(the record oracle's path) and the vectorized kernel's fused task body
(:func:`repro.kernels.vectorized.sampled_block_contribution`) calls it
ahead of the contribution fold, possibly in a pool worker process.

Seeding discipline
------------------
Every draw comes from a *site-seeded* RNG —
``default_rng(stable_hash((seed, "lev-sample", iteration, mode,
partition)))`` — the same discipline :class:`~repro.engine.faults
.FaultPlan` uses for fault injection.  A sample therefore depends only
on *where* it is drawn (iteration, mode, partition), never on the
executor backend, task scheduling order, retries or speculation; and a
run resumed from a checkpoint re-derives the exact draws of the
uninterrupted run because the iteration number is part of the site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..engine.blocks import ColumnarBlock, coalesce_blocks
from ..engine.partitioner import stable_hash
from ..engine.rdd import MapPartitionsRDD

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.broadcast import Broadcast
    from ..engine.metrics import MetricsCollector
    from ..engine.rdd import RDD

#: uniform mass mixed into the leverage probabilities so every nonzero
#: keeps a strictly positive draw probability (unbiasedness) and the
#: importance ratio ``c/q`` stays bounded
UNIFORM_FLOOR = 1e-3

#: stage-1 uniform pool size as a multiple of the draw count ``s``:
#: partitions holding more than ``POOL_FACTOR * s`` nonzeros are first
#: uniformly pre-sampled down to that size, bounding the per-iteration
#: scan regardless of partition nnz (see the module docstring)
POOL_FACTOR = 4


def leverage_scores(factor: np.ndarray,
                    pinv_gram: np.ndarray) -> np.ndarray:
    """Per-row leverage scores ``diag(A pinv(A^T A) A^T)`` of a dense
    factor, without materializing the ``I x I`` hat matrix."""
    scores = np.einsum("ij,jk,ik->i", factor, pinv_gram, factor)
    # the diagonal of a projection is in [0, 1]; clip the float noise
    return np.clip(scores, 0.0, None)


def sample_probabilities(weights: np.ndarray,
                         floor: float = UNIFORM_FLOOR) -> np.ndarray:
    """Floor-mixed draw probabilities from raw leverage weights.

    ``q = (1 - floor) * w / sum(w) + floor / n``; degenerates to the
    uniform distribution when every weight is zero; a non-finite one (a
    diverged factor) raises ``ValueError``.  Renormalized so ``sum(q)``
    is 1 within the sqrt(eps) that :func:`draw_rows` checks.
    """
    n = weights.shape[0]
    total = float(weights.sum())
    if not np.isfinite(total):
        raise ValueError(f"leverage weights sum to {total}: diverged")
    if total > 0.0:
        q = (1.0 - floor) * (weights / total) + floor / n
    else:
        q = np.full(n, 1.0 / n)
    return q / q.sum()


def pool_rows(n: int, target: int, site: tuple) -> tuple[np.ndarray, float]:
    """Stage-1 uniform pre-sample of ``n`` rows by index: ``(rows,
    n / target)``, or every row at scale 1 within the target."""
    if n <= target:
        return np.arange(n), 1.0
    rng = np.random.default_rng(stable_hash(site))
    return rng.integers(0, n, size=target), n / target


def draw_rows(q: np.ndarray, s: int, site: tuple) -> np.ndarray:
    """``s`` indices drawn with replacement with probabilities ``q``:
    index for index ``default_rng(stable_hash(site)).choice(len(q), s,
    p=q)``, raising where it raises: its inverse CDF and uniforms, the
    uniforms searched in sorted order and scattered back."""
    tol = np.sqrt(np.finfo(np.float64).eps)   # choice's, for float64 p
    if not ((q >= 0.0).all() and abs(q.sum() - 1.0) <= tol):
        raise ValueError("probabilities must be >= 0 and sum to 1")
    cdf = q.cumsum()
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(stable_hash(site)).random(s)
    order = np.argsort(uniforms)
    draws = np.empty(s, dtype=np.int64)
    draws[order] = cdf.searchsorted(uniforms[order], side="right")
    return draws


def uniform_pool(block: ColumnarBlock, target: int,
                 site: tuple) -> ColumnarBlock:
    """:func:`pool_rows` of ``block`` as a block, values scaled: an
    unbiased estimator of its sum.  Within the target it passes
    through unchanged, so small partitions never pay for pooling."""
    if len(block) <= target:
        return block
    rows, scale = pool_rows(len(block), target, site)
    picked = block.take(rows)
    return ColumnarBlock(picked.columns, picked.values * scale)


def sample_block(block: ColumnarBlock, weights: np.ndarray, s: int,
                 site: tuple, floor: float = UNIFORM_FLOOR
                 ) -> ColumnarBlock:
    """Draw ``s`` nonzeros of one partition block by :func:`draw_rows`
    at ``site`` (the stable-hash seed tuple naming *where*), values
    scaled by ``1/(s q)``: the estimator contract above."""
    q = sample_probabilities(weights, floor)
    draws = draw_rows(q, s, site)
    picked = block.take(draws)
    return ColumnarBlock(picked.columns, picked.values / (s * q[draws]))


def draw_block(block: ColumnarBlock, scores: "dict[int, np.ndarray]",
               mode: int, s: int, site: tuple,
               floor: float = UNIFORM_FLOOR) -> ColumnarBlock:
    """One partition's whole draw: :func:`pool_rows` to ``POOL_FACTOR *
    s`` rows, weigh them by the product of the fixed modes' leverage
    ``scores`` (mode -> 1-D vector, in iteration order), then
    :func:`draw_rows` ``s`` of them: :func:`sample_block` of
    :func:`uniform_pool` bit for bit, ``block`` gathered once.  ``site``
    is ``(seed, iteration, partition)``; the two stages' RNG sites are
    derived from it and ``mode``, so the draws depend on nothing else."""
    seed, iteration, pid = site
    rows, scale = pool_rows(len(block), POOL_FACTOR * s,
                            (seed, "lev-pool", iteration, mode, pid))
    weights = np.ones(len(rows))
    for m, score in scores.items():
        weights = weights * score[block.column(m)[rows]]
    q = sample_probabilities(weights, floor)
    draws = draw_rows(q, s, (seed, "lev-sample", iteration, mode, pid))
    picked = block.take(rows[draws])
    return ColumnarBlock(picked.columns,
                         picked.values * scale / (s * q[draws]))


class LeverageSampler:
    """Draws ``sample_count`` nonzeros per partition by leverage score.

    Stateless between draws: every sample comes from the site-seeded
    RNG described in the module docstring, so the sampler itself needs
    no mutable RNG — its checkpointable state is just the signature
    returned by :meth:`state`, which the driver stores in snapshots and
    validates on resume.
    """

    def __init__(self, sample_count: int, seed: int = 0,
                 floor: float = UNIFORM_FLOOR):
        self.sample_count = int(sample_count)
        self.seed = int(seed)
        self.floor = float(floor)

    def state(self) -> dict:
        """Checkpointable signature of the sampling configuration; a
        resumed run must match it to replay the same draws."""
        return {"sampler": "lev", "sample_count": self.sample_count,
                "seed": self.seed}

    # ------------------------------------------------------------------
    def sample_rdd(self, tensor_rdd: "RDD",
                   score_broadcasts: "dict[int, Broadcast]", mode: int,
                   iteration: int,
                   metrics: "MetricsCollector | None" = None) -> "RDD":
        """Sampled replacement of the tensor RDD for one MTTKRP.

        ``score_broadcasts`` maps every fixed mode to a broadcast 1-D
        leverage-score vector.  Each non-empty output partition holds
        one :class:`ColumnarBlock` whose values carry the folded
        ``1/(s q)`` weights.
        """
        s = self.sample_count

        def sample(pid: int, it) -> list:
            block = coalesce_blocks(it)
            if block is None:
                return []
            scaled = draw_block(
                block, {m: bc.value for m, bc in score_broadcasts.items()},
                mode, s, (self.seed, iteration, pid), self.floor)
            if metrics is not None:
                metrics.add_sampler_draw(s, len(block))
            return [scaled]

        # the first name pins the op kind repro.lint.plan types
        return MapPartitionsRDD(
            tensor_rdd, sample, broadcasts=score_broadcasts.values()
        ).set_name("sampleBlocks").set_name(f"tensor-sampled-m{mode}")
