"""Distributed Tucker decomposition (HOOI) on the dataflow engine.

Scope extension mirroring HATEN2 (the paper's Related Work), which
supports both PARAFAC and Tucker on MapReduce.  The dataflow follows the
same COO philosophy as CSTF — operate on nonzeros directly, never
materialise the matricized tensor:

For the mode-``n`` update of HOOI we need the leading ``R_n`` left
singular vectors of ``Y(n)``, where ``Y = X x_{m != n} U_m^T``.  Per
nonzero ``(i_1..i_N, v)``, the row ``i_n`` of ``Y(n)`` receives
``v * kron_{m != n} U_m[i_m]`` — a length ``K = prod_{m != n} R_m``
vector.  The dataflow is therefore:

1. broadcast the (small, ``I_m x R_m``) fixed factors to every node,
2. ``map`` each nonzero to ``(i_n, v * kron-of-rows)`` and
   ``reduceByKey`` — a single shuffle round per mode update,
3. ``aggregate`` the tiny ``K x K`` gram ``Y(n)^T Y(n)`` and
   eigendecompose it on the driver: with ``Y = U S V^T``,
   ``U_n = Y V_R S_R^{-1}`` — one more ``mapValues`` over the rows.

Left singular subspaces do not depend on the Kronecker column ordering,
so any fixed ordering is correct; we use ascending modes with earlier
modes varying fastest, matching :mod:`repro.tensor.unfold`.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..engine.context import Context
from ..engine.partitioner import HashPartitioner
from ..engine.rdd import MapPartitionsRDD
from ..tensor.coo import COOTensor
from ..tensor.ops import sparse_tucker_core
from ..baselines.local_tucker import _validate, random_orthonormal
from .result import IterationStats
from .tucker_result import TuckerDecomposition


class DistributedTucker:
    """Sparse Tucker/HOOI on the engine (one shuffle per mode update)."""

    name = "distributed-tucker"

    def __init__(self, ctx: Context, num_partitions: int | None = None):
        self.ctx = ctx
        self.num_partitions = num_partitions or ctx.default_parallelism
        self.partitioner = HashPartitioner(self.num_partitions)

    # ------------------------------------------------------------------
    def decompose(self, tensor: COOTensor, ranks: Sequence[int],
                  max_iterations: int = 10, tol: float = 1e-6,
                  seed: int | None = 0,
                  initial_factors: Sequence[np.ndarray] | None = None,
                  ) -> TuckerDecomposition:
        """Run HOOI and return the Tucker model.

        ``ranks`` gives the multilinear rank ``(R_1, ..., R_N)``.
        """
        ranks = _validate(tensor, ranks)
        if tensor.has_duplicates():
            raise ValueError(
                "tensor has duplicate coordinates; call deduplicate()")
        order = tensor.order
        norm_x = tensor.norm()

        rng = np.random.default_rng(seed)
        if initial_factors is not None:
            factors = [np.array(f, dtype=np.float64, copy=True)
                       for f in initial_factors]
            for m, f in enumerate(factors):
                if f.shape != (tensor.shape[m], ranks[m]):
                    raise ValueError(
                        f"initial factor {m} has shape {f.shape}, "
                        f"expected {(tensor.shape[m], ranks[m])}")
        else:
            factors = [random_orthonormal(tensor.shape[m], ranks[m], rng)
                       for m in range(order)]

        # the tensor RDD, each mode update's Y(n) rows and replicated
        # factors are on the context's ledger; the scope frees whatever
        # is still live when the run ends or dies mid-update
        with self.ctx.release_scope():
            with self.ctx.metrics.phase("setup"):
                tensor_rdd = self.ctx.parallelize(
                    list(tensor.records()), self.num_partitions
                ).set_name("tensor-coo").cache()

            fit_history: list[float] = []
            iterations: list[IterationStats] = []
            converged = False

            for it in range(max_iterations):
                t0 = time.perf_counter()
                for mode in range(order):
                    with self.ctx.metrics.phase(f"TTM-{mode + 1}"):
                        factors[mode] = self._update_mode(
                            tensor_rdd, factors, mode, ranks)

                with self.ctx.metrics.phase("fit"):
                    core = sparse_tucker_core(tensor, factors)
                    fit = (1.0 - np.sqrt(max(
                        norm_x ** 2 - float((core * core).sum()), 0.0))
                        / norm_x) if norm_x else 1.0
                    fit_history.append(fit)

                self.ctx.drop_shuffle_outputs()
                iterations.append(IterationStats(
                    iteration=it, fit=fit,
                    seconds=time.perf_counter() - t0,
                    shuffle_rounds=self.ctx.metrics.total_shuffle_rounds()))
                if len(fit_history) >= 2 and \
                        abs(fit_history[-1] - fit_history[-2]) < tol:
                    converged = True
                    break

        return TuckerDecomposition(
            core=core, factors=factors, fit_history=fit_history,
            iterations=iterations, algorithm=self.name,
            converged=converged)

    # ------------------------------------------------------------------
    def _update_mode(self, tensor_rdd, factors: list[np.ndarray],
                     mode: int, ranks: tuple[int, ...]) -> np.ndarray:
        order = len(factors)
        other_modes = [m for m in range(order) if m != mode]
        broadcasts = {m: self.ctx.broadcast(factors[m])
                      for m in other_modes}

        def contribute(rec, _modes=tuple(other_modes), _bc=broadcasts):
            idx, val = rec
            vec = np.array([val])
            for m in _modes:  # ascending: earlier modes vary fastest
                vec = np.kron(_bc[m].value[idx[m]], vec)
            return (idx[mode], vec)

        # named by the map node, the broadcasts die once Y(n) is unpersisted
        y_rows = (MapPartitionsRDD(
                      tensor_rdd, lambda _split, it: map(contribute, it),
                      broadcasts=broadcasts.values()).set_name("map")
                  .reduce_by_key(lambda a, b: a + b, self.num_partitions)
                  .set_name(f"Y({mode})-rows").cache())

        k = 1
        for m in other_modes:
            k *= ranks[m]
        gram = y_rows.tree_aggregate(
            np.zeros((k, k)),
            lambda acc, kv: acc + np.outer(kv[1], kv[1]),
            lambda a, b: a + b)

        # leading R_n left singular vectors: U = Y V S^{-1}
        eigvals, eigvecs = np.linalg.eigh(gram)
        top = np.argsort(eigvals)[::-1][:ranks[mode]]
        sigma = np.sqrt(np.maximum(eigvals[top], 1e-300))
        v_r = eigvecs[:, top]
        projector = v_r / sigma  # (K, R_n)

        new_factor = np.zeros((factors[mode].shape[0], ranks[mode]))
        for i, row in y_rows.map_values(
                lambda vec: vec @ projector).collect():
            new_factor[i] = row
        # eager: Y(n) is dead once the new factor is on the driver;
        # holding it to the end of the run would stack N modes' worth
        y_rows.unpersist()
        return new_factor
