"""Shared CP-ALS driver for the distributed algorithms.

Both CSTF variants (and the BIGtensor baseline) perform the same outer
loop — Algorithm 1 generalised to N modes:

    repeat
        for n = 1..N:
            M_n  <- MTTKRP(X, factors, n)          # algorithm-specific
            A_n  <- M_n @ pinv(*_{m!=n} A_m^T A_m)
            normalise columns of A_n, store norms as lambda
            refresh gram(A_n)
        evaluate fit; stop on |fit - fit_prev| < tol
    until convergence or max_iterations

What differs per algorithm is only how ``M_n`` is produced (the dataflow
of Table 2) and how per-iteration state is carried (QCOO's queue RDD).
Subclasses implement :meth:`CPALSDriver._setup` and
:meth:`CPALSDriver._mttkrp`; everything else — factor distribution,
normalisation, gram reuse, fit evaluation, metric bookkeeping, shuffle
garbage collection — is shared here.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Sequence

import numpy as np

from ..engine.blocks import KeyedRowBlock, coalesce_rows, partition_rows
from ..engine.context import Context
from ..engine.errors import NumericalIntegrityError
from ..engine.partitioner import HashPartitioner
from ..engine.rdd import RDD
from ..engine.storage import StorageLevel
from ..kernels.sampled import LeverageSampler, leverage_scores
from ..tensor.coo import COOTensor
from .checkpoint import CheckpointStore, CPCheckpoint
from .gram import GramCache
from .result import CPDecomposition, IterationStats


class CPALSDriver:
    """Template-method base class for distributed CP-ALS.

    Parameters
    ----------
    ctx:
        Engine context to run on.
    num_partitions:
        Partition count for the tensor and factor RDDs; defaults to the
        context's default parallelism.
    recompute_grams_per_mttkrp:
        Ablation switch — when True, *all* gram matrices are recomputed
        before every MTTKRP instead of once per factor update
        (Section 4.2 argues this wastes reduce operations).
    regularization:
        Optional L2 (ridge) regularisation: each update solves against
        ``V + reg * I`` instead of ``V``.  Stabilises ill-conditioned
        factorizations; 0.0 reproduces the paper's plain ALS.
    nonnegative:
        When True, negative entries of every updated factor row are
        clipped to zero (projected ALS — the standard cheap heuristic
        for nonnegative CP; not a full NN-CP solver).
    tensor_partitioning:
        How the tensor's nonzeros are placed across partitions:
        ``"input"`` (contiguous input-order slices), ``"hash"``
        (CSTF's choice — hash each nonzero's coordinates, balancing
        skewed tensors, Section 6.6) or ``"range:<mode>"`` (contiguous
        index ranges of one mode — the imbalanced alternative measured
        by the partitioning ablation).
    storage_level:
        Storage level for the big per-run RDDs — the tensor RDD and
        (for QCOO) the queue RDDs.  ``MEMORY_RAW`` reproduces the
        paper's choice; ``MEMORY_AND_DISK`` degrades gracefully when a
        cache budget (``EngineConf.cache_capacity_bytes`` /
        ``memory_total_bytes``) cannot hold them: over-budget partitions
        spill to simulated disk instead of being dropped and recomputed.
        Factor RDDs are small and stay ``MEMORY_RAW``.

    The MTTKRP estimator is the context's: ``ctx.conf.sampler`` and
    ``ctx.conf.sample_count`` (see :attr:`sampler`).
    """

    #: subclass tag used in results and reports
    name = "cp-als"

    def __init__(self, ctx: Context, num_partitions: int | None = None,
                 recompute_grams_per_mttkrp: bool = False,
                 regularization: float = 0.0,
                 nonnegative: bool = False,
                 tensor_partitioning: str = "hash",
                 storage_level: StorageLevel = StorageLevel.MEMORY_RAW):
        if regularization < 0:
            raise ValueError(
                f"regularization must be >= 0, got {regularization}")
        if tensor_partitioning != "input" \
                and tensor_partitioning != "hash" \
                and not tensor_partitioning.startswith("range:"):
            raise ValueError(
                "tensor_partitioning must be 'input', 'hash' or "
                f"'range:<mode>', got {tensor_partitioning!r}")
        self.ctx = ctx
        self.num_partitions = num_partitions or ctx.default_parallelism
        self.partitioner = HashPartitioner(self.num_partitions)
        self.recompute_grams = recompute_grams_per_mttkrp
        self.regularization = regularization
        self.nonnegative = nonnegative
        self.tensor_partitioning = tensor_partitioning
        self.storage_level = storage_level
        #: the per-run LeverageSampler (seeded in :meth:`decompose`)
        self._sampler: LeverageSampler | None = None

    @property
    def sampler(self) -> str:
        """MTTKRP estimator, ``ctx.conf.sampler``: ``"exact"`` (every
        nonzero contributes — the paper's algorithms) or ``"lev"``
        (CP-ARLS-LEV leverage-score sampling: each partition contributes
        :attr:`sample_count` nonzeros drawn by Khatri-Rao leverage
        scores with importance weights folded in — an unbiased
        estimate, sublinear in nnz; see :mod:`repro.kernels.sampled`).
        Under ``"lev"`` the reported fit is itself a sampled estimate
        (``CPDecomposition.fit_is_estimate``)."""
        return self.ctx.conf.sampler

    @property
    def sample_count(self) -> int:
        """Nonzeros drawn per partition per MTTKRP under ``"lev"``,
        ``ctx.conf.sample_count``."""
        return self.ctx.conf.sample_count

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def _setup(self, tensor_rdd: RDD, tensor: COOTensor,
               factor_rdds: list[RDD], rank: int) -> None:
        """Prepare per-run state (e.g. QCOO's queue RDD)."""

    def _mttkrp(self, mode: int, tensor_rdd: RDD,
                factor_rdds: list[RDD], rank: int) -> RDD:
        """Return the mode-``mode`` MTTKRP as keyed rows — what
        ``Kernel.sum_rows_by_key`` returns: one
        :class:`~repro.engine.blocks.KeyedRowBlock` per non-empty
        partition, hash-partitioned by row index."""
        raise NotImplementedError

    def _teardown(self) -> None:
        """Reset per-run state so the driver object is reusable after
        a finished *or failed* run.  Nothing is released here: whatever
        the run still holds is on the context's ledger and freed by the
        ``release_scope`` that :meth:`decompose` runs inside."""

    def flops_per_iteration(self, tensor: COOTensor, rank: int) -> float:
        """Analytic flop count of one CP-ALS iteration: Table 4's
        ``N * nnz * R`` per MTTKRP (CSTF-COO and, by Section 5,
        CSTF-QCOO), times N modes.  Baselines override the constant."""
        n = tensor.order
        return float(n) * n * tensor.nnz * rank

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def decompose(self, tensor: COOTensor, rank: int,
                  max_iterations: int = 20, tol: float = 1e-5,
                  seed: int | None = 0,
                  initial_factors: Sequence[np.ndarray] | None = None,
                  init: str = "random",
                  compute_fit: bool = True,
                  checkpoint_every: int | None = None,
                  checkpoint_store: CheckpointStore | None = None,
                  resume_from: int | str | None = None) -> CPDecomposition:
        """Run CP-ALS and return the decomposition.

        ``tensor`` must have unique coordinates (call
        :meth:`COOTensor.deduplicate` first if unsure); duplicates would
        silently change the objective.  ``init`` selects the
        initialisation strategy (``"random"`` or the HOSVD-style
        ``"nvecs"``) when ``initial_factors`` is not given.

        With ``checkpoint_every=n`` the driver snapshots the factor
        matrices, λ and the fit history to ``checkpoint_store`` after
        every ``n``-th completed iteration, so a driver crash costs at
        most ``n`` iterations.  ``resume_from`` (an iteration number, or
        ``"latest"``) restarts from a stored snapshot; the resumed run
        is bit-for-bit identical to the uninterrupted one, because an
        iteration's outcome depends only on the current factors.
        """
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}")
        if tensor.has_duplicates():
            raise ValueError(
                "tensor has duplicate coordinates; call deduplicate()")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got "
                    f"{checkpoint_every}")
            if checkpoint_store is None:
                raise ValueError(
                    "checkpoint_every requires a checkpoint_store")
        snapshot: CPCheckpoint | None = None
        if resume_from is not None:
            if checkpoint_store is None:
                raise ValueError("resume_from requires a checkpoint_store")
            if initial_factors is not None:
                raise ValueError(
                    "resume_from and initial_factors are mutually "
                    "exclusive — the snapshot provides the factors")
            snapshot = checkpoint_store.load(
                None if resume_from == "latest" else resume_from)
            if snapshot.rank != rank:
                raise ValueError(
                    f"checkpoint has rank {snapshot.rank}, "
                    f"requested {rank}")
            if snapshot.algorithm != self.name:
                raise ValueError(
                    f"checkpoint was written by {snapshot.algorithm!r}, "
                    f"resuming with {self.name!r}")
        self._sampler = None
        if self.sampler == "lev":
            self._sampler = LeverageSampler(
                self.sample_count, seed=seed if seed is not None else 0)
        if snapshot is not None:
            expected = self._sampler.state() if self._sampler else None
            if snapshot.rng_state != expected:
                raise ValueError(
                    f"checkpoint sampler state {snapshot.rng_state!r} "
                    f"does not match the resuming run's {expected!r}; "
                    "resume with the same --sampler/--sample-count/seed "
                    "or the replayed draws would diverge")
        order = tensor.order
        norm_x = tensor.norm()

        # everything persisted or broadcast from here on — the tensor
        # RDD, factor RDDs, MTTKRP outputs, the QCOO queue RDD,
        # replicated factors — is on the context's ledger, and the
        # scope releases whatever is still live when the run ends, even
        # when an iteration dies mid-flight (e.g. a JobExecutionError
        # from an exhausted fault-retry budget).  The releases below
        # are the eager ones that bound peak memory; none of them is
        # needed for correctness of the failure path.
        with ExitStack() as run:
            run.enter_context(self.ctx.release_scope())
            run.callback(self._teardown)
            with self.ctx.metrics.phase("setup"):
                tensor_rdd = self._distribute_tensor(tensor)
                if snapshot is not None:
                    source, init_mats = "checkpoint", snapshot.factors
                elif initial_factors is not None:
                    source, init_mats = "initial", [
                        np.asarray(f, dtype=np.float64)
                        for f in initial_factors]
                else:
                    from ..tensor.init import initial_factors as make_init
                    source = init
                    init_mats = make_init(tensor, rank, init, seed)
                if len(init_mats) != order:
                    raise ValueError(
                        f"need {order} {source} factors, got "
                        f"{len(init_mats)}")
                for m, f in enumerate(init_mats):
                    if f.shape != (tensor.shape[m], rank):
                        raise ValueError(
                            f"{source} factor {m} has shape {f.shape}, "
                            f"expected {(tensor.shape[m], rank)}")

                factor_rdds = [self._distribute_factor(f)
                               for f in init_mats]
                grams = GramCache(factor_rdds, rank,
                                  kernel=self.ctx.kernel)
                self._setup(tensor_rdd, tensor, factor_rdds, rank)

            lambdas = np.ones(rank)
            fit_history: list[float] = []
            start_iteration = 0
            if snapshot is not None:
                lambdas = snapshot.lambdas
                fit_history = list(snapshot.fit_history)
                start_iteration = snapshot.iteration + 1
            iterations: list[IterationStats] = []
            converged = False

            for it in range(start_iteration, max_iterations):
                self.ctx.faults.on_iteration(it)
                t0 = time.perf_counter()
                last_m_rdd: RDD | None = None
                for mode in range(order):
                    with self.ctx.metrics.phase(f"MTTKRP-{mode + 1}"):
                        if self.recompute_grams:
                            grams.refresh_all(factor_rdds)
                        if self._sampler is not None:
                            m_rdd = self._mttkrp_sampled(
                                mode, tensor_rdd, factor_rdds, rank,
                                grams, it, tensor.shape)
                        else:
                            m_rdd = self._mttkrp(mode, tensor_rdd,
                                                 factor_rdds, rank)
                        # M feeds two jobs (the column-norm aggregate
                        # and the factor materialization) and, for the
                        # last mode, the fit's row products as well;
                        # uncached it would be re-merged from shuffle
                        # outputs by each (plan-uncached-reuse)
                        m_rdd.persist(self.storage_level)
                        pinv_v = grams.pinv_except(
                            mode, regularization=self.regularization)
                        new_factor, lambdas = self._solve_and_normalize(
                            m_rdd, pinv_v, rank, mode=mode, iteration=it)
                        if not self.ctx.caching_enabled:
                            # MapReduce materializes every job's output
                            # to HDFS; without this, iterative lineage
                            # would be recomputed (hadoop mode has no
                            # cache)
                            new_factor = self.ctx.checkpoint(new_factor)
                        grams.refresh(mode, new_factor)  # materializes it
                        factor_rdds[mode].unpersist()
                        factor_rdds[mode] = new_factor
                        if last_m_rdd is not None:
                            # the previous mode's M is superseded; only
                            # the final mode's survives to the fit
                            last_m_rdd.unpersist()
                        last_m_rdd = m_rdd

                fit: float | None = None
                if compute_fit:
                    with self.ctx.metrics.phase("fit"):
                        assert last_m_rdd is not None
                        fit = self._fit(last_m_rdd, factor_rdds[order - 1],
                                        lambdas, grams, norm_x)
                        self._integrity_guard(np.asarray(fit), "fit",
                                              iteration=it)
                        fit_history.append(fit)

                if last_m_rdd is not None:
                    last_m_rdd.unpersist()

                # everything still live is cached by now; this is also
                # the iteration boundary the wall-clock benchmark
                # attributes shuffles by
                self.ctx.drop_shuffle_outputs()

                read = self.ctx.metrics.total_shuffle_read()
                iterations.append(IterationStats(
                    iteration=it, fit=fit,
                    seconds=time.perf_counter() - t0,
                    shuffle_rounds=self.ctx.metrics.total_shuffle_rounds(),
                    shuffle_bytes=read.total_bytes))

                if checkpoint_every is not None and \
                        (it + 1) % checkpoint_every == 0:
                    with self.ctx.metrics.phase("checkpoint"):
                        checkpoint_store.save(CPCheckpoint(
                            algorithm=self.name, rank=rank, iteration=it,
                            lambdas=lambdas.copy(),
                            factors=self._collect_factors(
                                factor_rdds, tensor.shape, rank),
                            fit_history=list(fit_history),
                            rng_state=(self._sampler.state()
                                       if self._sampler else None)))

                if compute_fit and len(fit_history) >= 2 and \
                        abs(fit_history[-1] - fit_history[-2]) < tol:
                    converged = True
                    break

            return CPDecomposition(
                lambdas=lambdas,
                factors=self._collect_factors(factor_rdds, tensor.shape,
                                              rank),
                fit_history=fit_history, iterations=iterations,
                algorithm=self.name, converged=converged,
                fit_is_estimate=self._sampler is not None)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _mttkrp_sampled(self, mode: int, tensor_rdd: RDD,
                        factor_rdds: list[RDD], rank: int,
                        grams: GramCache, iteration: int,
                        shape: tuple[int, ...]) -> RDD:
        """CP-ARLS-LEV MTTKRP: per-partition leverage-score sampling.

        Replaces the subclass dataflow entirely — one shuffle round
        over ``sample_count`` rows per partition instead of nnz:

        1. collect every fixed factor to a dense ``(size, rank)`` array
           (:meth:`_collect_factor`, sized by the *tensor* shape: under
           sampling an MTTKRP output can miss rows, so the collected
           factor may be sparse in indices);
        2. compute its leverage scores from the cached ``pinv(G_m)``
           and broadcast both;
        3. per partition, draw ``sample_count`` nonzeros by the product
           of the fixed modes' scores (site-seeded — backend/order/
           retry independent), fold ``1/(s q)`` into their values and
           take their broadcast contributions
           (``Kernel.sampled_contributions``: one task body in the
           vectorized kernel, which a pool worker can run whole);
        4. the usual per-key sum, over the sampled rows only.
        """
        assert self._sampler is not None
        order = len(factor_rdds)
        broadcasts = {}
        score_bcs = {}
        for m in range(order):
            if m == mode:
                continue
            dense = self._collect_factor(factor_rdds[m], rank,
                                         size=shape[m], mode=m)
            scores = leverage_scores(dense, grams.pinv_gram(m))
            broadcasts[m] = self.ctx.broadcast(dense)
            score_bcs[m] = self.ctx.broadcast(scores)

        kernel = self.ctx.kernel
        contrib = kernel.sampled_contributions(
            tensor_rdd, self._sampler, score_bcs, broadcasts, mode,
            iteration)
        return kernel.sum_rows_by_key(
            contrib, self.num_partitions
        ).set_name(f"mttkrp-{mode}-sampled")

    def _distribute_tensor(self, tensor: COOTensor) -> RDD:
        """Place the nonzeros per ``tensor_partitioning`` — one
        :class:`~repro.engine.blocks.ColumnarBlock` per partition,
        carved by :meth:`COOTensor.partition_blocks` — and cache the
        resulting RDD.  Every kernel starts from these blocks; the
        record oracle expands them inside its own ops."""
        blocks = tensor.partition_blocks(
            self.tensor_partitioning, self.num_partitions)
        return self.ctx.parallelize_blocks(blocks).set_name(
            "tensor-coo").persist(self.storage_level)

    def _distribute_factor(self, factor: np.ndarray) -> RDD:
        """The factor's rows keyed by row index and hash-partitioned by
        it, so that MTTKRP joins consume them without a shuffle: one
        :class:`~repro.engine.blocks.KeyedRowBlock` per partition, in
        index order."""
        index = np.arange(factor.shape[0])
        blocks = partition_rows(
            KeyedRowBlock(index, factor),
            self.partitioner.partition_int_keys(index),
            self.num_partitions)
        return self.ctx.parallelize_blocks(
            blocks, self.partitioner).set_name("factor").cache()

    def _integrity_guard(self, array: np.ndarray, stage: str,
                         mode: int | None = None,
                         iteration: int | None = None) -> None:
        """Numerical-integrity watchdog: when the context's integrity
        layer is enabled, a NaN/Inf in ``array`` raises
        :class:`~repro.engine.errors.NumericalIntegrityError` tagged
        with the producing stage/mode/iteration instead of silently
        poisoning every later iteration.  A no-op (not even the finite
        scan) when integrity is off."""
        integrity = self.ctx.integrity
        if not integrity.enabled:
            return
        if bool(np.isfinite(array).all()):
            return
        integrity.metrics.nan_guards_tripped += 1
        where = f"stage {stage!r}"
        if mode is not None:
            where += f", mode {mode}"
        if iteration is not None:
            where += f", iteration {iteration}"
        raise NumericalIntegrityError(
            f"non-finite values detected in {where} "
            f"({self.name}); the factorization state is numerically "
            f"poisoned and cannot converge",
            stage=stage, mode=mode, iteration=iteration)

    def _solve_and_normalize(self, m_rdd: RDD, pinv_v: np.ndarray,
                             rank: int, mode: int | None = None,
                             iteration: int | None = None
                             ) -> tuple[RDD, np.ndarray]:
        """``A = normalize(M @ pinv(V))``; returns the cached factor RDD
        and the column norms (lambda).  With ``nonnegative``, rows are
        clipped at zero before normalisation (projected ALS)."""
        kernel = self.ctx.kernel
        raw = kernel.solve_rows(m_rdd, pinv_v, self.nonnegative
                                ).set_name("factor-unnormalized")
        col_sq = kernel.column_sums(raw, rank, squares=True)
        # col_sq aggregates every row of the solved MTTKRP output, so a
        # single NaN/Inf anywhere in M @ pinv(V) surfaces here
        self._integrity_guard(col_sq, "mttkrp-solve", mode=mode,
                              iteration=iteration)
        lambdas = np.sqrt(col_sq)
        safe = np.where(lambdas > 0, lambdas, 1.0)
        factor = kernel.scale_rows(raw, safe).set_name("factor").cache()
        return factor, safe

    def _fit(self, m_rdd: RDD, last_factor: RDD, lambdas: np.ndarray,
             grams: GramCache, norm_x: float) -> float:
        """CP fit via the standard MTTKRP trick (used by SPLATT and the
        Tensor Toolbox): ``<X, X̂> = sum_r lambda_r * sum_i M_N(i,r) *
        A_N(i,r)`` — M_N and A_N are co-partitioned, so the row products
        are narrow and the fit costs no extra shuffle.  Under ``sampler=
        "lev"`` the M fed in is itself the unbiased sampled estimate,
        so the returned fit is an estimate too (flagged by
        ``CPDecomposition.fit_is_estimate``); the accuracy gate in
        ``tests/core/test_sampled.py`` bounds its error against the
        exact offline fit."""
        rank = lambdas.shape[0]
        if norm_x == 0.0:
            # a zero tensor is perfectly fit by the zero model; checking
            # up front short-circuits the distributed products + sum
            # the answer cannot depend on
            return 1.0
        kernel = self.ctx.kernel
        colsum = kernel.column_sums(
            kernel.row_products(m_rdd, last_factor, self.num_partitions),
            rank)
        inner = float(colsum @ lambdas)
        from ..tensor.ops import hadamard
        gram_prod = hadamard(*grams.grams)
        norm_model_sq = float(lambdas @ gram_prod @ lambdas)
        residual_sq = max(norm_x ** 2 + norm_model_sq - 2.0 * inner, 0.0)
        return 1.0 - float(np.sqrt(residual_sq)) / norm_x

    def _collect_factor(self, factor_rdd: RDD, rank: int,
                        size: int | None = None,
                        mode: int | None = None) -> np.ndarray:
        """Materialize a distributed factor driver-side as a dense
        ``(size, rank)`` array, row ``i`` at index ``i``.  Indices with
        no nonzeros never flow through an MTTKRP and are zero rows.
        Without ``size`` the array ends at the largest index present —
        the broadcast strategy's sizing, which keeps the replicated
        bytes to the rows a kernel can look up."""
        block = coalesce_rows(factor_rdd.collect())
        if size is None:
            if block is None:
                raise ValueError(
                    f"cannot size factor RDD {factor_rdd.name!r} "
                    f"(mode {mode}): it holds no rows; pass size")
            size = 1 + int(block.keys.max())
        out = np.zeros((size, rank))
        if block is not None:
            out[block.keys] = block.rows
        self._integrity_guard(out, "collect-factor", mode=mode)
        return out

    def _collect_factors(self, factor_rdds: list[RDD],
                         shape: tuple[int, ...],
                         rank: int) -> list[np.ndarray]:
        """Every factor, sized by the tensor's ``shape``."""
        return [self._collect_factor(rdd, rank, size=size, mode=m)
                for m, (rdd, size) in enumerate(zip(factor_rdds, shape))]
