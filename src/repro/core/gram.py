"""Gram matrix machinery for distributed CP-ALS.

Every ALS update solves ``A_n = M_n @ pinv(V_n)`` where
``V_n = *_{m != n} (A_m^T A_m)`` is the Hadamard product of the other
factors' gram matrices (Algorithm 1).  Grams are tiny (R x R) but the
factors are distributed, so each gram is one ``treeAggregate`` over the
factor RDD.  Section 4.2: CSTF computes each gram **once per CP-ALS
iteration** (right after its factor is updated) and reuses it for the
following N-1 updates — the queue ``V`` of Algorithm 3.  The naive
alternative (recompute all grams for every MTTKRP) is kept for the
ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from ..engine.rdd import RDD
from ..kernels.base import Kernel
from ..tensor.ops import hadamard


def gram_of_rdd(factor_rdd: RDD, rank: int,
                kernel: Kernel | None = None) -> np.ndarray:
    """``A^T A`` of a distributed factor (keyed rows, one
    :class:`~repro.engine.blocks.KeyedRowBlock` per partition).

    One pass: each partition accumulates the outer products of its rows;
    partials (R x R) are merged on the driver, mirroring Spark's
    ``treeAggregate`` used for exactly this purpose.

    Rows are accumulated in index order within each partition:
    floating-point summation order would otherwise leak how the factor
    was produced (freshly distributed, or just updated in
    MTTKRP-output order) into the gram's low bits — breaking the
    bit-for-bit guarantee checkpoint/resume makes.  That order is
    structural: a factor partition *is* sorted by row index
    (``_distribute_factor`` carves it so, ``Kernel.sum_rows_by_key``
    emits ``M`` so, ``Context.checkpoint`` re-cuts it in index order), and
    partition *contents* are fixed by the hash partitioner, so the sum
    is canonical without a sort here (the record oracle still sorts).

    The accumulation itself is delegated to ``kernel`` (record-at-a-time
    fold or vectorized batch); the record kernel is used when none is
    given, preserving the historical call signature.
    """
    if kernel is None:
        from ..kernels import RecordKernel
        kernel = RecordKernel()
    return kernel.gram(factor_rdd, rank)


class GramCache:
    """Per-mode gram matrices with once-per-update refresh semantics.

    ``refresh(n, rdd)`` recomputes mode ``n``'s gram after its factor was
    updated; ``v_except(n)`` is the Hadamard product the mode-``n``
    pseudo-inverse needs.  This realises the queue ``V`` of Algorithm 3
    (the deque is an implementation detail of the reuse; keeping an
    indexed array is equivalent and clearer).
    """

    def __init__(self, factor_rdds: list[RDD], rank: int,
                 kernel: Kernel | None = None):
        self.rank = rank
        self.kernel = kernel
        self.grams: list[np.ndarray] = [
            gram_of_rdd(rdd, rank, kernel) for rdd in factor_rdds]
        #: per-mode version counter bumped by refresh; the pinv caches
        #: key on these, so a cached inverse is served only while every
        #: gram it was computed from is unchanged
        self._versions: list[int] = [0] * len(self.grams)
        self._pinv_cache: dict[tuple, np.ndarray] = {}
        self._pinv_gram_cache: dict[int, tuple[int, np.ndarray]] = {}

    def refresh(self, mode: int, factor_rdd: RDD) -> np.ndarray:
        """Recompute mode ``mode``'s gram after its factor update."""
        self.grams[mode] = gram_of_rdd(factor_rdd, self.rank, self.kernel)
        self._versions[mode] += 1
        return self.grams[mode]

    def refresh_all(self, factor_rdds: list[RDD]) -> None:
        """Recompute every gram (the ablation's wasteful strategy)."""
        for mode, rdd in enumerate(factor_rdds):
            self.refresh(mode, rdd)

    def v_except(self, mode: int) -> np.ndarray:
        """``*_{m != mode} G_m`` — the matrix inverted in the update."""
        others = [g for m, g in enumerate(self.grams) if m != mode]
        return hadamard(*others)

    def pinv_except(self, mode: int, rcond: float = 1e-12,
                    regularization: float = 0.0) -> np.ndarray:
        """Moore-Penrose pseudo-inverse of :meth:`v_except` (the paper's
        ``dagger``); ``pinv`` rather than ``inv`` because V can be
        rank-deficient when factors correlate.  With ``regularization``
        the inverse is of ``V + reg * I`` (ridge ALS).

        Memoized on the contributing grams' version counters: repeated
        calls between refreshes (one ALS update asks for the same
        inverse from the solve and, under sampling, the score paths)
        reuse the cached array instead of redoing the Hadamard product
        and the SVD-backed pinv every time.
        """
        key = (mode, rcond, regularization) + tuple(
            v for m, v in enumerate(self._versions) if m != mode)
        cached = self._pinv_cache.get(key)
        if cached is not None:
            return cached
        v = self.v_except(mode)
        if regularization:
            v = v + regularization * np.eye(self.rank)
        pinv = np.linalg.pinv(v, rcond=rcond)
        # one live entry per mode is enough: evict this mode's stale key
        self._pinv_cache = {k: a for k, a in self._pinv_cache.items()
                            if k[0] != mode}
        self._pinv_cache[key] = pinv
        return pinv

    def pinv_gram(self, mode: int, rcond: float = 1e-12) -> np.ndarray:
        """``pinv(G_mode)`` — what the leverage-score computation needs
        (``lev_m = diag(A_m pinv(G_m) A_m^T)``).  Memoized on mode
        ``mode``'s own version counter."""
        cached = self._pinv_gram_cache.get(mode)
        if cached is not None and cached[0] == self._versions[mode]:
            return cached[1]
        pinv = np.linalg.pinv(self.grams[mode], rcond=rcond)
        self._pinv_gram_cache[mode] = (self._versions[mode], pinv)
        return pinv
