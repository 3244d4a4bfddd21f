"""The conformance harness the driver-level suites share.

The contract: a CP-ALS decomposition's weights, factors and fit history
are bit-identical across kernel x backend x driver x sampler x injected
fault x resume.  Here once: the named tensors (:data:`CASES`), the one
runner (:func:`run`), the session cache of oracles (:func:`oracle`),
:func:`assert_bit_identical`, the scenarios with their invariants and
fault counters (:data:`SCENARIOS`, :func:`check`), the cells the
hand-written tests run (:data:`KEPT`) and the generated rest
(:data:`GENERATED`, run by ``tests/core/test_conformance.py``).  See
``docs/architecture.md``, "Conformance harness".
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import pathlib
import tempfile
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.baselines import BigtensorCP, local_cp_als
from repro.core import (CstfCOO, CstfQCOO, FileCheckpointStore,
                        InMemoryCheckpointStore)
from repro.engine import (Context, CorruptedDataError, EngineConf,
                          EngineListener, FaultPlan, IntegrityMetrics,
                          NodeKillEvent, StorageLevel)
from repro.engine.faults import site_rng
from repro.engine.partitioner import stable_hash
from repro.tensor import (COOTensor, initial_factors, random_factors,
                          uniform_sparse)


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def standard_tensor() -> COOTensor:
    """The 3rd-order tensor most driver-level tests decompose."""
    return uniform_sparse((12, 10, 14), 220, rng=6)


def _rng41(shape, nnz):
    return lambda: uniform_sparse(shape, nnz, rng=41)


def _untouched_row() -> COOTensor:
    """Mode 0 declares 20 indices; no nonzero touches rows 12-19."""
    base = standard_tensor()
    return COOTensor(base.indices, base.values, (20, 10, 14))


def _poisoned() -> COOTensor:
    """The standard tensor with one NaN value: it flows through the
    mode-0 MTTKRP into the factor solve while every Gram stays finite
    (a NaN planted in a factor would crash ``pinv`` first)."""
    base = standard_tensor()
    values = base.values.copy()
    values[0] = np.nan
    return COOTensor(base.indices.copy(), values, base.shape)


@dataclasses.dataclass(frozen=True)
class Case:
    """A named tensor and what a run of it needs besides a driver."""

    build: Callable[[], COOTensor]
    rank: int = 2
    init_seed: int = 17
    #: draws per partition when the sampler is ``lev``
    sample_count: int = 64
    partitions: int = 8
    #: ``EngineConf`` fields the case is about (bit-transparent ones)
    conf: dict = dataclasses.field(default_factory=dict)
    #: driver arguments the case is about
    driver_kwargs: dict = dataclasses.field(default_factory=dict)
    #: an initialisation strategy the driver runs instead of seeded
    #: random factors
    init: str | None = None


#: name -> case.  The factor-side shapes use init seed 29, the sampled
#: task body's (``lev-*``) seed 17 and their own draw counts.
CASES: dict[str, Case] = {
    "order3": Case(standard_tensor),
    "order4": Case(lambda: uniform_sparse((8, 10, 6, 7), 150, rng=11),
                   init_seed=23),
    "order5": Case(_rng41((4, 5, 3, 4, 3), 120), init_seed=29),
    "order3-nan": Case(_poisoned),
    # a mode with fewer indices than partitions: empty factor blocks
    "short-mode": Case(lambda: uniform_sparse((40, 30, 3), 200, rng=5),
                       init_seed=29),
    "rank1": Case(_rng41((12, 10, 14), 220), rank=1, init_seed=29),
    # rank above the smallest mode
    "rank>mode": Case(_rng41((3, 10, 8), 60), rank=5, init_seed=29),
    # one join; a queue of 1
    "order2": Case(_rng41((9, 7), 30), init_seed=29),
    "nonnegative": Case(standard_tensor, init_seed=29,
                        driver_kwargs={"nonnegative": True}),
    "ridge": Case(standard_tensor, init_seed=29,
                  driver_kwargs={"regularization": 0.05}),
    "no-map-side-combine": Case(standard_tensor, init_seed=29,
                                conf={"map_side_combine": False}),
    "untouched-row": Case(_untouched_row, init_seed=29),
    # small enough to deny every combine booking: the record combine
    # spills, the vectorized row sum keeps its block whole
    "denied-booking": Case(standard_tensor, init_seed=29,
                           conf={"memory_total_bytes": 100}),
    "nvecs": Case(standard_tensor, init="nvecs"),
    "range-partitioning": Case(
        standard_tensor, driver_kwargs={"tensor_partitioning": "range:1"}),
    "recompute-grams": Case(
        standard_tensor, driver_kwargs={"recompute_grams_per_mttkrp": True}),
    "join-order4": Case(_rng41((8, 10, 6, 7), 150), rank=3, init_seed=29),
    # mostly empty partitions
    "empty": Case(_rng41((6, 5, 4), 5), init_seed=29, partitions=16),
    # 5 nonzeros over 8 partitions: most tasks have nothing to draw from
    "lev-empty-partitions": Case(
        lambda: uniform_sparse((12, 10, 14), 5, rng=6), sample_count=8),
    # ~27 rows a partition: s=64 passes the pool through, s=4 draws it
    "lev-pool-passes-through": Case(standard_tensor, sample_count=64),
    "lev-pool-draws": Case(standard_tensor, sample_count=4),
    "lev-rank1": Case(standard_tensor, rank=1, sample_count=4),
    "lev-order4": Case(lambda: uniform_sparse((8, 10, 6, 7), 300, rng=43),
                       sample_count=6),
    # the s raw rows cross the shuffle; the reduce side folds them
    "lev-no-map-side-combine": Case(standard_tensor, sample_count=4,
                                    conf={"map_side_combine": False}),
}


@functools.cache
def tensor(case: str) -> COOTensor:
    """The case's tensor, built once."""
    return CASES[case].build()


@functools.cache
def initial(case: str) -> tuple[np.ndarray, ...]:
    """The case's initial factors, built once."""
    spec = CASES[case]
    return tuple(random_factors(tensor(case).shape, spec.rank,
                                spec.init_seed))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
#: driver name -> (execution mode, class, driver arguments); the
#: failure-site sweep runs every row, the grid the first three
DRIVERS: dict[str, tuple[str, type, dict]] = {
    "coo-join": ("spark", CstfCOO, {}),
    "coo-broadcast": ("spark", CstfCOO, {"factor_strategy": "broadcast"}),
    "qcoo": ("spark", CstfQCOO, {}),
    "coo-lev": ("spark", CstfCOO, {}),
    "bigtensor": ("hadoop", BigtensorCP, {}),
}

#: driver name -> the ``EngineConf`` fields its row sets (they win over
#: every other source, as the row's driver arguments do)
DRIVER_CONF: dict[str, dict] = {
    "coo-lev": {"sampler": "lev", "sample_count": 64},
}

#: the failure-site sweep's drivers (``TestLeaks``), in sweep order
SWEEP_DRIVERS = ("coo-join", "coo-broadcast", "coo-lev", "qcoo", "bigtensor")


def sweep_run(driver, data: COOTensor, init) -> list[np.ndarray]:
    """Two iterations of an already built ``driver`` object; the arrays
    a rerun must repeat (the failure-site sweep reuses one driver)."""
    res = driver.decompose(data, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
    return [res.lambdas, *res.factors]


#: backends' worker counts
WORKERS = {"serial": None, "process": 2}

_CASE_INIT = "case"


class TaskStartHook(EngineListener):
    """Calls ``hook(stage_id, partition, attempt)`` at every task
    attempt's start; a raise fails that attempt, which the scheduler
    retries like any task fault."""

    def __init__(self, hook: Callable[[int, int, int], None]):
        self.hook = hook

    def on_task_start(self, event) -> None:
        self.hook(event.stage_id, event.partition, event.attempt)


class Run(NamedTuple):
    """What one decomposition left behind."""

    result: Any                 # None when the decompose raised
    metrics: Any                # the context's MetricsCollector
    error: BaseException | None


def run(case: str = "order3", driver: str = "coo-join", *,
        kernel: str | None = None, backend: str | None = None,
        sampler: str | None = None, sample_count: int | None = None,
        seed: int = 0, plan: FaultPlan | None = None,
        injector: Callable | None = None, conf: dict | None = None,
        driver_kwargs: dict | None = None, data: COOTensor | None = None,
        init: Any = _CASE_INIT, rank: int | None = None,
        iterations: int = 3, nodes: int = 4,
        partitions: int | None = None, mode: str | None = None,
        storage_level: StorageLevel | None = None, store: Any = None,
        checkpoint_every: int | None = None, resume_from: Any = None,
        compute_fit: bool = True, raises: type[BaseException] | None = None,
        probe: Callable[[Context], None] | None = None) -> Run:
    """One decomposition of ``case`` by ``driver`` (a :data:`DRIVERS`
    row).  ``kernel`` / ``backend`` / ``sampler`` left ``None`` defer
    to the environment, as a plain ``Context`` does; the clock is
    virtual unless ``conf`` says otherwise, so injected latency and
    retry backoff cost no wall time.  ``data`` / ``init`` / ``rank`` /
    ``mode`` override the case's and the driver row's; ``injector`` is
    a :class:`TaskStartHook`'s hook; ``init`` may be
    factors, a strategy name (``"nvecs"``) or None (the driver's own
    seeded random start).  ``raises`` expects the decompose to raise
    that type (the run's ``error``); ``probe`` sees the context before
    it stops.  After every run nothing may be left live: no cache
    entry, broadcast, persisted RDD or shared-memory segment."""
    spec = CASES[case]
    if rank is None:
        rank = init[0].shape[1] if isinstance(init, (list, tuple)) \
            else spec.rank
    row_mode, cls, row_kwargs = DRIVERS[driver]
    engine = {"clock": "virtual", **spec.conf, **(conf or {})}
    for name, value in (("kernel", kernel), ("backend", backend),
                        ("sampler", sampler)):
        if value is not None:
            engine[name] = value
    if backend is not None:
        engine.setdefault("backend_workers", WORKERS[backend])
    if sampler == "lev":
        engine.setdefault("sample_count", sample_count or spec.sample_count)
    engine.update(DRIVER_CONF.get(driver, {}))
    kwargs = {"max_iterations": iterations, "tol": 0.0, "seed": seed,
              "compute_fit": compute_fit,
              "checkpoint_every": checkpoint_every,
              "checkpoint_store": store}
    if init == _CASE_INIT:
        init = initial(case) if spec.init is None else spec.init
    if resume_from is not None:
        kwargs["resume_from"] = resume_from
    elif isinstance(init, str):
        kwargs["init"] = init
    elif init is not None:
        kwargs["initial_factors"] = list(init)
    result = error = None
    with Context(num_nodes=nodes,
                 default_parallelism=partitions or spec.partitions,
                 execution_mode=mode or row_mode,
                 conf=EngineConf(**engine),
                 fault_plan=plan) as ctx:
        if injector is not None:
            ctx.event_bus.subscribe(TaskStartHook(injector))
        decomposer = cls(ctx, **{**row_kwargs, **spec.driver_kwargs,
                                 **(driver_kwargs or {})})
        if storage_level is not None:
            decomposer.storage_level = storage_level
        source = tensor(case) if data is None else data
        if raises is None:
            result = decomposer.decompose(source, rank, **kwargs)
        else:
            with pytest.raises(raises) as caught:
                decomposer.decompose(source, rank, **kwargs)
            error = caught.value
        if probe is not None:
            probe(ctx)
        held = (dict(ctx._cache._entries), ctx.live_broadcasts(),
                ctx.live_persisted())
        assert not any(held), f"left live after decompose: {held}"
    assert ctx.backend.live_segments() == [], "leaked shm segments"
    return Run(result, ctx.metrics, error)


def assert_bit_identical(a: Any, b: Any) -> None:
    """λ, every factor and the fit history, byte for byte (``a`` and
    ``b`` are decompositions or :class:`Run`\\ s)."""
    a, b = (x.result if isinstance(x, Run) else x for x in (a, b))
    assert a.lambdas.tobytes() == b.lambdas.tobytes()
    assert len(a.factors) == len(b.factors)
    for fa, fb in zip(a.factors, b.factors):
        assert fa.shape == fb.shape and fa.tobytes() == fb.tobytes()
    assert a.fit_history == b.fit_history


def assert_close(a: Any, b: Any, atol: float = 1e-8) -> None:
    """Agreement to tolerance, for results no oracle shares bits with
    (``local_cp_als``)."""
    a, b = (x.result if isinstance(x, Run) else x for x in (a, b))
    assert np.allclose(a.lambdas, b.lambdas, atol=atol)
    for fa, fb in zip(a.factors, b.factors):
        assert np.allclose(fa, fb, atol=atol)
    if a.fit_history and b.fit_history:
        assert np.allclose(a.fit_history, b.fit_history, atol=1e-6)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
_ORACLES: dict[tuple, Run] = {}


def oracle(case: str = "order3", driver: str = "coo-join",
           sampler: str = "exact", seed: int = 0,
           iterations: int = 3) -> Run:
    """The serial ``RecordKernel`` clean run every run of the same case
    (its math-changing arguments included), driver family, sampler and
    iteration count must equal, computed once per session.  Under
    ``lev`` every driver is one family: the sampled MTTKRP replaces each
    driver's exact dataflow with the same estimator.  Kernel and backend
    are pinned, so no ``REPRO_*`` variable can move an oracle."""
    if sampler == "lev":
        driver = "coo-join"
    else:
        seed = 0     # the seed only steers the sampler's draws
    key = (case, driver, sampler, seed, iterations)
    if key not in _ORACLES:
        _ORACLES[key] = run(case, driver, kernel="record", backend="serial",
                            sampler=sampler, seed=seed,
                            iterations=iterations)
    return _ORACLES[key]


@functools.cache
def local_reference(case: str, iterations: int = 3):
    """``local_cp_als`` from the case's initial factors, with the case's
    regularisation and constraint."""
    spec = CASES[case]
    init = initial(case) if spec.init is None else initial_factors(
        tensor(case), spec.rank, spec.init)
    math = {k: v for k, v in spec.driver_kwargs.items()
            if k in ("nonnegative", "regularization")}
    return local_cp_als(tensor(case), spec.rank, max_iterations=iterations,
                        tol=0.0, initial_factors=list(init), **math)


def table4_rounds(driver: str, order: int, iterations: int = 3) -> int:
    """Shuffle rounds of ``iterations`` CP-ALS iterations (Table 4), set-up
    included: N MTTKRPs of N rounds each for CSTF-COO; of 2 each, after
    N-1 queue-building joins, for CSTF-QCOO."""
    if driver == "qcoo":
        return iterations * order * 2 + (order - 1)
    return iterations * order * order


def shuffle_profile(metrics) -> list[tuple[int, int, int, int]]:
    """Per-stage shuffle traffic, in execution order."""
    return [(st.shuffle_write.bytes_written,
             st.shuffle_write.records_written,
             st.shuffle_read.total_bytes, st.shuffle_read.total_records)
            for job in metrics.jobs for st in job.stages
            if st.is_shuffle_map]


def cache_misses(metrics) -> int:
    """Cached partitions that had to be computed (first use included)."""
    return sum(st.cache_miss_partitions for job in metrics.jobs
               for st in job.stages)


# ----------------------------------------------------------------------
# the grid: scenario x variant x case x driver x kernel x backend x
# sampler
# ----------------------------------------------------------------------
GRID_DRIVERS = ("coo-join", "coo-broadcast", "qcoo")
KERNELS = ("record", "vectorized")
BACKENDS = ("serial", "process")
SAMPLERS = ("exact", "lev")


class Cell(NamedTuple):
    """One point of the grid; ``seed`` seeds its fault plan and, under
    ``lev``, its draws."""

    scenario: str
    variant: str
    case: str
    driver: str
    kernel: str
    backend: str
    sampler: str
    seed: int = 0

    @property
    def id(self) -> str:
        """The test id: every axis value, then the seed."""
        return "-".join(value for value in self[:7] if value) \
            + f"-seed{self.seed}"


def cell(scenario: str, driver: str = "coo-join",
         kernel: str = "vectorized", backend: str = "serial",
         sampler: str = "exact", seed: int = 0, variant: str = "",
         case: str = "order3") -> Cell:
    """A :class:`Cell` with the defaults a hand-written test means."""
    return Cell(scenario, variant, case, driver, kernel, backend, sampler,
                seed)


def _run(c: Cell, **kwargs: Any) -> Run:
    return run(c.case, c.driver, kernel=c.kernel, backend=c.backend,
               sampler=c.sampler, seed=c.seed, **kwargs)


def cell_oracle(c: Cell) -> Run:
    """The oracle a cell's result must equal."""
    return oracle(c.case, c.driver, c.sampler, seed=c.seed)


def _first_attempt_fails(stage_id, partition, attempt):
    if attempt == 0:
        raise RuntimeError("first attempt always dies")


def _clean(c: Cell, monkeypatch) -> tuple[Run, dict]:
    """The paper's invariants on top of bit identity: Table 4's shuffle
    rounds, Fig. 4's byte ordering (from order 3 up: at order 2 QCOO
    reads more), the same per-stage shuffle traffic on every kernel and
    backend, exact oracles equal to ``local_cp_als`` and, under ``lev``,
    draws that a new seed changes."""
    got, ref = _run(c), cell_oracle(c)
    assert shuffle_profile(got.metrics) == shuffle_profile(ref.metrics)
    if c.sampler == "lev":   # (seed 0's oracle is the shared one)
        reseeded = oracle(c.case, c.driver, "lev", seed=int(not c.seed))
        assert ref.result.factors[0].tobytes() \
            != reseeded.result.factors[0].tobytes()
        return got, {}
    # a denied booking evicts cached factors, and recomputing them
    # re-runs shuffles: Table 4's rounds hold only with memory to spare
    if c.driver != "coo-broadcast" and c.case != "denied-booking":
        assert got.metrics.total_shuffle_rounds() == table4_rounds(
            c.driver, tensor(c.case).order)
        if c.case in ("order3", "order4", "order5"):
            coo, qcoo = (oracle(c.case, d).metrics.total_shuffle_read()
                         .total_bytes for d in ("coo-join", "qcoo"))
            assert qcoo < coo
    assert_close(ref.result, local_reference(c.case))
    return got, {}


def _task_faults(c: Cell, monkeypatch) -> tuple[Run, dict]:
    if c.variant == "first-attempt-fails":
        got = _run(c, injector=_first_attempt_fails)
        return got, {"task_failures": got.metrics.faults.task_failures}
    if c.variant == "fetch-failures":
        got = _run(c, plan=FaultPlan(seed=c.seed, fetch_failure_prob=0.01),
                   conf={"stage_max_failures": 16})
        return got, {"fetch_failures": got.metrics.faults.fetch_failures}
    plan = FaultPlan(seed=c.seed, task_failure_prob=0.05)
    got = _run(c, plan=plan)
    failures = got.metrics.faults.task_failures
    # the per-site fault RNG makes even the count independent of the
    # backend and the kernel: every cell counts what the oracle's run
    # under the same plan counts
    key = (c.case, c.driver, c.sampler, c.seed)
    if key not in _FAILURE_COUNTS:
        _FAILURE_COUNTS[key] = _run(
            c._replace(kernel="record", backend="serial"),
            plan=plan).metrics.faults.task_failures
    assert failures == _FAILURE_COUNTS[key]
    return got, {"task_failures": failures}


_FAILURE_COUNTS: dict[tuple, int] = {}


NODE_KILLS = {
    "at-iteration": NodeKillEvent(node_id=1, at_iteration=1),
    # mid-iteration, while the node's map outputs are live
    "after-80": NodeKillEvent(node_id=2, after_tasks=80),
    # late: cached factors whose lineage reaches gc'd shuffles
    "after-300": NodeKillEvent(node_id=2, after_tasks=300),
}


def _node_kill(c: Cell, monkeypatch) -> tuple[Run, dict]:
    """What the node held when it died, and the cached partitions
    lineage rebuilt.  A join re-reads its lost map outputs through a
    fetch failure; the broadcast and sampled map sides re-run as missing
    parent stages, through the broadcasts their factors still name."""
    got = _run(c, plan=FaultPlan(seed=c.seed,
                                 node_kills=(NODE_KILLS[c.variant],)))
    faults = got.metrics.faults
    assert faults.nodes_killed == 1
    held = "map_outputs_lost" if c.variant == "after-80" \
        else "cached_partitions_lost"
    return got, {held: getattr(faults, held),
                 "partitions_recomputed": cache_misses(got.metrics)
                 - cache_misses(cell_oracle(c).metrics)}


SPECULATION = {"speculation": True, "speculative_min_deadline_s": 0.05,
               "speculative_multiplier": 2.0}
DEADLINE = {"task_deadline_s": 0.1, "quarantine_threshold": 2.0,
            "quarantine_decay_s": 1000.0}


def _stragglers(c: Cell, monkeypatch) -> tuple[Run, dict]:
    # node 2 stalls every task placed on it for ~10x a typical task
    plan = FaultPlan(seed=c.seed, task_base_delay_s=0.02,
                     slow_node_budgets={2: 0.2})
    if c.variant == "speculation":
        got = _run(c, plan=plan, conf=SPECULATION)
        return got, {"tasks_speculated":
                     got.metrics.stragglers.tasks_speculated}
    got = _run(c, plan=plan, conf=DEADLINE)
    return got, {"tasks_timed_out": got.metrics.stragglers.tasks_timed_out}


def oom_budget(c: Cell) -> int:
    """Per-node OOM budget in bytes: the exact joins' in-flight keyed
    blocks trip 2,000; the broadcast and sampled map sides' smaller
    blocks need 200."""
    exact_join = c.sampler == "exact" and c.driver != "coo-broadcast"
    return 2_000 if exact_join else 200


def _memory(c: Cell, monkeypatch) -> tuple[Run, dict]:
    if c.variant == "oom-budgets":
        got = _run(c, plan=FaultPlan(seed=c.seed, oom_node_budgets={
            n: oom_budget(c) for n in range(4)}))
        return got, {"oom_kills": got.metrics.memory.oom_kills}
    ref = cell_oracle(c)
    squeeze = {"cache_capacity_bytes":
               max(1, ref.metrics.memory.storage_peak_bytes // 4)}
    if c.variant == "squeezed-disk":
        got = _run(c, conf=squeeze,
                   storage_level=StorageLevel.MEMORY_AND_DISK)
        memory = got.metrics.memory
        return got, {"spill_bytes": memory.spill_bytes,
                     "demotions": memory.demotions}
    got = _run(c, conf=squeeze, storage_level=StorageLevel.MEMORY_RAW)
    return got, {"evictions_recomputed": cache_misses(got.metrics)
                 - cache_misses(ref.metrics)}


INTEGRITY = {"integrity": True}


def _integrity(c: Cell, monkeypatch) -> tuple[Run, dict]:
    if c.variant == "integrity-clean":
        got = _run(c, conf=INTEGRITY)
        assert got.metrics.integrity.corrupted_blocks == 0
        return got, {"blocks_verified": got.metrics.integrity.blocks_verified}
    plan = FaultPlan(seed=c.seed, corrupt_block_prob=0.05)
    if c.variant == "corruption":
        got, fired = _run(c, plan=plan, conf=INTEGRITY), {}
    else:   # torn-checkpoints
        got, torn = _checkpoint_then_resume(c, plan, INTEGRITY)
        fired = {"torn_writes": torn}
    integrity = got.metrics.integrity
    # every injected corruption was detected, none slipped by
    assert integrity.corruptions_injected == integrity.corrupted_blocks
    return got, {"corrupted_blocks": integrity.corrupted_blocks,
                 "recompute_recoveries": integrity.recompute_recoveries,
                 **fired}


def tearing(plan: FaultPlan, snapshots: int = 3) -> FaultPlan:
    """``plan`` plus torn checkpoint writes at the probability halfway
    between its seed's lowest and highest per-snapshot draw, so that of
    a run's ``snapshots`` at least one tears and at least one survives
    whatever the seed."""
    draws = [site_rng(plan.seed, "ckpt-torn", it).random()
             for it in range(snapshots)]
    return dataclasses.replace(
        plan, torn_write_prob=(min(draws) + max(draws)) / 2)


def _checkpoint_then_resume(c: Cell, plan: FaultPlan,
                            conf: dict) -> tuple[Run, int]:
    """A run that checkpoints every iteration through a store tearing
    writes (:func:`tearing`), then one in a fresh context resumed from
    the newest snapshot that verifies, with the same bits.  Returns the
    first run and the number of torn snapshots, as reading each one
    back finds them."""
    plan = tearing(plan)
    with tempfile.TemporaryDirectory() as tmp:
        stored = IntegrityMetrics()
        full = _run(c, plan=plan, conf=conf, checkpoint_every=1,
                    store=FileCheckpointStore(tmp, fault_plan=plan,
                                              metrics=stored))
        read_back = IntegrityMetrics()
        reader = FileCheckpointStore(tmp, metrics=read_back)
        for iteration in reader.iterations():
            try:
                reader.load(iteration)
            except CorruptedDataError:
                pass
        resumed = _run(c, plan=plan, conf=conf, resume_from="latest",
                       store=FileCheckpointStore(tmp, metrics=stored))
    assert_bit_identical(full, resumed)
    assert stored.checkpoint_shards_verified > 0
    return full, read_back.torn_writes_detected


def _resume(c: Cell, monkeypatch) -> tuple[Run, dict]:
    """Checkpoint under the other kernel on the serial backend, resume
    from the first snapshot under the cell's kernel and backend: the
    resumed run rebuilds what the uninterrupted one carried (QCOO's
    queue, the factors' block order) and must still sum the same rows in
    the same order."""
    store = InMemoryCheckpointStore()
    full = _run(c._replace(kernel="record" if c.kernel == "vectorized"
                           else "vectorized", backend="serial"),
                store=store, checkpoint_every=1)
    resumed = _run(c, store=store, resume_from=0)
    assert_bit_identical(full, resumed)
    return resumed, {"snapshots": len(store.iterations())}


def _process(c: Cell, monkeypatch) -> tuple[Run, dict]:
    """Whatever goes wrong between the driver and a worker, the task
    finishes inline with the same bits and nothing is left behind.
    Every operand crosses through shared memory (at test sizes it would
    otherwise ride in the request frame)."""
    from repro.engine import procpool
    monkeypatch.setattr(procpool, "_SHARE_MIN_BYTES", 1)
    served, refused = [], []
    real_run = procpool.OffloadClient.run
    real_receive = procpool._WorkerProcess.receive

    def counted(self, op, *args, **kwargs):
        out = real_run(self, op, *args, **kwargs)
        (refused if out is None else served).append(op)
        return out

    def receive(self):   # a sent request the driver then runs inline
        reply = real_receive(self)
        refused.extend([reply] if reply.get("missing_segment") else [])
        return reply
    monkeypatch.setattr(procpool.OffloadClient, "run", counted)
    monkeypatch.setattr(procpool._WorkerProcess, "receive", receive)
    if c.variant == "worker-killed":
        # the next request to the dead worker fails in transport: that
        # task runs inline, its checkin launches a replacement, and a
        # checkout that finds no idle worker hand-shakes it
        pools = []
        real_drop = Context.drop_shuffle_outputs

        def drop_and_kill(ctx):   # the driver's end-of-iteration call
            real_drop(ctx)
            if not pools:
                pools.append(ctx.backend._workers)
                victim = pools[0]._idle[-1]._proc
                victim.kill()
                victim.wait(timeout=10)
        monkeypatch.setattr(Context, "drop_shuffle_outputs", drop_and_kill)
        got = _run(c)
        assert len(refused) == 1 and pools[0]._stopped
    elif c.variant == "missing-segment":
        # one operand is unlinked between publish and attach (what
        # losing the eviction race looks like to a worker)
        real_publish = procpool.SharedBlockRegistry.publish_cached
        sabotaged = []

        def publish_then_unlink(self, arr):
            desc = real_publish(self, arr)
            if not sabotaged:
                sabotaged.append(desc)
                self.release(desc[0])
            return desc
        monkeypatch.setattr(procpool.SharedBlockRegistry, "publish_cached",
                            publish_then_unlink)
        got = _run(c)
    elif c.variant == "starved-attachments":
        # two segments per cache at either end: every request evicts
        monkeypatch.setattr(procpool, "_ATTACH_CACHE_CAP", 2)
        monkeypatch.setattr(procpool, "_PUBLISH_CACHE_CAP", 2)
        got = _run(c)
    else:   # raise-leaves-no-segment; run() checks none survives stop
        class Boom(Exception):
            pass

        def boom(ctx):   # the end of the first iteration
            raise Boom
        monkeypatch.setattr(Context, "drop_shuffle_outputs", boom)
        live = []
        got = _run(c, raises=Boom,
                   probe=lambda ctx: live.extend(ctx.backend.live_segments()))
        return got, {"segments_live_mid_run": len(live)}
    fired = {"offloaded": len(served)}
    if c.variant != "starved-attachments":
        fired["refused"] = len(refused)
    return got, fired


def composition_plan(c: Cell) -> FaultPlan:
    """Every fault family at once: a node kill mid-stage (the loop's
    order of task attempts is a function of the inputs and the window,
    so which cached partitions it takes is too), OOM budgets, a slow
    node with speculation on, and block corruption; :func:`tearing`
    adds the torn checkpoints."""
    return FaultPlan(
        seed=c.seed,
        node_kills=(NodeKillEvent(node_id=1, after_tasks=80),),
        oom_node_budgets={n: oom_budget(c) for n in range(4)},
        task_base_delay_s=0.02, slow_node_budgets={3: 0.2},
        corrupt_block_prob=0.05)


def _composition(c: Cell, monkeypatch) -> tuple[Run, dict]:
    """The composition across a resume, with integrity on and every
    operand of an offloaded task crossing through shared memory."""
    from repro.engine import procpool
    monkeypatch.setattr(procpool, "_SHARE_MIN_BYTES", 1)
    got, torn = _checkpoint_then_resume(c, composition_plan(c),
                                        {**INTEGRITY, **SPECULATION})
    m = got.metrics
    assert m.faults.nodes_killed == 1
    assert m.integrity.corruptions_injected == m.integrity.corrupted_blocks
    return got, {"nodes_killed": m.faults.nodes_killed,
                 "oom_kills": m.memory.oom_kills,
                 "tasks_speculated": m.stragglers.tasks_speculated,
                 "corrupted_blocks": m.integrity.corrupted_blocks,
                 "torn_writes": torn}


def _offloads(c: Cell) -> bool:
    """Only the broadcast and sampled map sides reach a worker, and only
    under the kernel that offloads."""
    return c.backend == "process" and c.kernel == "vectorized" \
        and (c.sampler == "lev" or c.driver == "coo-broadcast")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One column of the contract: how to run a cell, which cells are
    valid and whether it injects a fault (its counters must read > 0)."""

    execute: Callable[[Cell, Any], tuple[Run, dict]]
    variants: tuple[str, ...] = ("",)
    cases: tuple[str, ...] = ("order3",)
    valid: Callable[[Cell], bool] = lambda c: True
    fault: bool = True
    #: valid cells generated whatever the pairwise cover picks
    always: tuple[Cell, ...] = ()


SCENARIOS: dict[str, Scenario] = {
    "clean": Scenario(_clean, cases=("order2", "order3", "order4",
                                     "order5"), fault=False),
    "variants": Scenario(
        _clean, fault=False,
        cases=("no-map-side-combine", "denied-booking", "nonnegative",
               "ridge", "nvecs", "range-partitioning", "recompute-grams")),
    "task-faults": Scenario(_task_faults, variants=(
        "task-failures", "first-attempt-fails", "fetch-failures")),
    "node-kill": Scenario(_node_kill, variants=tuple(NODE_KILLS)),
    "stragglers": Scenario(_stragglers,
                           variants=("speculation", "deadline-quarantine")),
    "memory": Scenario(_memory, variants=(
        "oom-budgets", "squeezed-disk", "squeezed-memory")),
    "integrity": Scenario(_integrity, variants=(
        "integrity-clean", "corruption", "torn-checkpoints")),
    "resume": Scenario(_resume, fault=False, cases=("order3", "order4")),
    "process": Scenario(
        _process, valid=_offloads, variants=(
            "worker-killed", "missing-segment", "starved-attachments",
            "raise-leaves-no-segment")),
    # the broadcast strategy and lev on the workers, whatever pairs pick
    "composition": Scenario(_composition, always=(
        cell("composition", "coo-broadcast", backend="process",
             sampler="lev"),)),
}


def counters(metrics) -> dict:
    """What two runs of one cell must count alike: the fault, memory,
    straggler and integrity records, per-stage shuffle traffic and the
    shuffle rounds."""
    return {**{name: dataclasses.asdict(getattr(metrics, name))
               for name in ("faults", "memory", "stragglers", "integrity")},
            "shuffles": shuffle_profile(metrics),
            "rounds": metrics.total_shuffle_rounds()}


def check(c: Cell, monkeypatch) -> Run:
    """Run one cell: bit-identical to its oracle (unless its scenario
    makes the decompose raise), every counter that proves its fault
    fired > 0, its scenario's invariants, and nothing left live.  A
    process cell runs twice and counts the same both times: the task
    loop's order of engine work is a function of the inputs and the
    window, so every counter is too."""
    scenario = SCENARIOS[c.scenario]
    ref = cell_oracle(c)   # before the scenario patches anything
    got, fired = scenario.execute(c, monkeypatch)
    if c.backend == "process":
        again, _ = scenario.execute(c, monkeypatch)
        assert counters(again.metrics) == counters(got.metrics)
    if got.result is not None:
        assert_bit_identical(ref, got)
    if scenario.fault:
        assert fired and all(v > 0 for v in fired.values()), \
            f"{c.id}: a fault did not fire: {fired}"
    return got


# ----------------------------------------------------------------------
# the cells the hand-written tests run, by test id
# ----------------------------------------------------------------------
#: the driver a test parametrized by class name runs
DRIVER_OF = {"CstfCOO": "coo-join", "CstfQCOO": "qcoo"}
_POOLED = (("process", 2),)


def _kept() -> dict[str, tuple[Cell, ...]]:
    kept: dict[str, tuple[Cell, ...]] = {}

    def add(test: str, *cells: Cell) -> None:
        kept[f"tests/core/test_{test}"] = cells

    def kernels(*args: Any, **kwargs: Any) -> tuple[Cell, ...]:
        return tuple(cell(*args, kernel=k, **kwargs) for k in KERNELS)

    def backends(*args: Any, **kwargs: Any) -> tuple[Cell, ...]:
        return tuple(cell(*args, backend=b, **kwargs) for b in BACKENDS)

    bd, st = "backend_determinism.py::", "straggler_determinism.py::"
    mp, kn = "memory_pressure.py::", "kernels.py::"
    for (b, w), (cls, d) in itertools.product(_POOLED, DRIVER_OF.items()):
        add(f"{bd}TestCleanRuns::test_pooled_backends_match_serial_bitwise"
            f"[{b}-{w}-{cls}]", cell("clean", d, backend=b))
        add(f"sampled.py::TestSampledDecompose::test_backends_bit_identical"
            f"[{b}-{w}-{cls}]", cell("clean", d, backend=b, sampler="lev"))
    for cls, d in DRIVER_OF.items():
        add(f"{bd}TestUnderFaults::test_injected_task_faults[{cls}]",
            *backends("task-faults", d, variant="task-failures"))
        add(f"{st}TestSpeculationPreservesResults::test_speculation_"
            f"matches_clean_run[{cls}-serial-None]",
            cell("stragglers", d, variant="speculation"))
        add(f"integrity_e2e.py::TestCorruptionTransparency::test_"
            f"corrupted_run_is_bit_identical[serial-{cls}]",
            cell("integrity", d, variant="corruption"))
        add(f"fault_tolerance.py::TestNodeLoss::test_node_killed_mid_"
            f"iteration_recovers_exactly[{cls}]",
            cell("node-kill", d, variant="after-80"))
        for test, variant in (("ConstrainedCache::test_squeezed_cache",
                               "squeezed-disk"),
                              ("ConstrainedCache::test_memory_only_eviction",
                               "squeezed-memory")):
            add(f"{mp}Test{test}_is_bit_identical[{cls}]",
                cell("memory", d, variant=variant))
        add(f"{mp}TestOOMInjection::test_oom_budget_kills_tasks_but_"
            f"converges[{cls}]", cell("memory", d, variant="oom-budgets"))
        for test, case in (("third_order", "order3"),
                           ("fourth_order", "order4")):
            add(f"{kn}TestBitIdentity::test_{test}[{cls}]",
                *kernels("clean", d, case=case))
        add(f"{kn}TestBitIdentity::test_under_injected_faults[{cls}]",
            *kernels("task-faults", d, variant="task-failures"))
    add(f"{bd}TestCleanRuns::test_process_offload_path_matches_serial",
        cell("clean", "coo-broadcast", backend="process"))
    add(f"{bd}TestUnderFaults::test_injected_task_faults_process",
        cell("task-faults", backend="process", sampler="lev",
             variant="task-failures"))
    add(f"{bd}TestUnderFaults::test_injected_fetch_failures",
        *backends("task-faults", variant="fetch-failures"))
    add(f"{bd}TestUnderFaults::test_node_kill_recovery",
        *backends("node-kill", "qcoo", variant="at-iteration"))
    for seed in (0, 10, 20):
        add(f"{bd}TestUnderFaults::test_seed_matrix[{seed}]",
            cell("task-faults", "coo-broadcast", backend="process",
                 seed=seed, variant="task-failures"))
        add(f"{kn}TestBitIdentity::test_fault_seed_matrix[{seed}]",
            *kernels("task-faults", seed=seed, variant="task-failures"))
    for sampler, variant in itertools.product(
            ("lev", "exact"), ("worker-killed", "raise-leaves-no-segment")):
        test = {"worker-killed": "a_worker_killed_between_two_iterations",
                "raise-leaves-no-segment":
                    "no_segment_survives_a_decompose_that_raises"}[variant]
        add(f"{bd}TestProcessWorkerFailures::test_{test}[{sampler}]",
            cell("process", "coo-broadcast", backend="process",
                 sampler=sampler, variant=variant))
    add(f"{bd}TestProcessWorkerFailures::test_a_missing_segment_reply",
        cell("process", "coo-broadcast", backend="process", sampler="lev",
             variant="missing-segment"))
    add(f"{st}TestSpeculationPreservesResults::test_deadline_retries_"
        "match_clean_run[serial-None]",
        cell("stragglers", variant="deadline-quarantine"))
    add("integrity_e2e.py::TestCorruptionTransparency::test_integrity_on_"
        "clean_plan_is_bit_transparent",
        cell("integrity", variant="integrity-clean"))
    add("integrity_e2e.py::TestCorruptionWithTornCheckpoints::test_full_"
        "gauntlet_completes_bit_identically",
        cell("integrity", variant="torn-checkpoints"))
    add("fault_tolerance.py::TestTransientFaults::test_every_first_attempt_"
        "fails", cell("task-faults", variant="first-attempt-fails"))
    add(f"{mp}TestConstrainedCache::test_demoted_queue_block_round_trips_"
        "through_its_frame", cell("memory", "qcoo", variant="squeezed-disk"))
    add(f"{kn}TestSelection::test_record_kernel_counts_no_batches",
        cell("clean", kernel="record"))
    add(f"{kn}TestSelection::test_vectorized_kernel_counts_batches",
        cell("clean"))
    add(f"{kn}TestBitIdentity::test_broadcast_strategy",
        *kernels("clean", "coo-broadcast"))
    add(f"{kn}TestBitIdentity::test_checkpoint_resume_crosses_kernels",
        cell("resume"))
    for case in ("order3", "order4"):
        add(f"{kn}TestBitIdentity::test_qcoo_checkpoint_resume_crosses_"
            f"kernels[{case}]", cell("resume", "qcoo", case=case))
    for (prefix, d), (name, case) in itertools.product(
            (("", "coo-join"), ("qcoo-", "qcoo")), JOIN_CASES.items()):
        add(f"{kn}TestBlockJoin::test_bit_identical_with_equal_shuffles"
            f"[{prefix}{name}]", *kernels("clean", d, case=case))
    for test, d in (("map_side_combine_off", "coo-join"),
                    ("qcoo_map_side_combine_off", "qcoo")):
        add(f"{kn}TestBlockJoin::test_{test}",
            *kernels("variants", d, case="no-map-side-combine"))
    for b, (short, d) in itertools.product(
            BACKENDS, (("coo", "coo-join"), ("qcoo", "qcoo"))):
        for name in FACTOR_SIDE_CASES:
            add(f"{kn}TestFactorSide::test_bit_identical_to_the_record_"
                f"oracle[{name}-{short}-{b}]",
                cell("clean", d, backend=b, case=name))
        for name in ("short-mode", "untouched-row"):
            add(f"{kn}TestFactorSide::test_resume_equals_the_uninterrupted_"
                f"run[{name}-{short}-{b}]",
                cell("resume", d, backend=b, case=name))
    add("sampled.py::TestSampledDecompose::test_kernels_bit_identical",
        *kernels("clean", sampler="lev"))
    add("sampled.py::TestSampledDecompose::test_drivers_bit_identical",
        *(cell("clean", d, sampler="lev") for d in ("coo-join", "qcoo")))
    for name, (b, w), k, faulty in itertools.product(
            TASK_BODY_CASES, (("serial", None), *_POOLED),
            ("vectorized", "record"), ("clean", "fault-seeded")):
        add(f"sampled.py::TestSampledTaskBody::test_bit_identical_wherever_"
            f"it_runs[{name}-{b}-{w}-{k}-{faulty}]",
            cell("clean", kernel=k, backend=b, sampler="lev",
                 case=f"lev-{name}") if faulty == "clean" else
            cell("task-faults", kernel=k, backend=b, sampler="lev",
                 case=f"lev-{name}", variant="task-failures"))
    return kept


#: the factor-side conformance cases (``TestFactorSide``)
FACTOR_SIDE_CASES = ("short-mode", "rank1", "rank>mode", "order2", "order5",
                     "nonnegative", "ridge", "no-map-side-combine",
                     "untouched-row", "denied-booking")
#: block-join test id -> case (``TestBlockJoin``)
JOIN_CASES = {"order2": "order2", "rank1": "rank1", "order4": "join-order4",
              "order5": "order5", "rank>mode": "rank>mode", "empty": "empty"}
#: sampled task-body test id -> case ``lev-<id>`` (``TestSampledTaskBody``)
TASK_BODY_CASES = ("empty-partitions", "pool-passes-through", "pool-draws",
                   "rank1", "order4", "no-map-side-combine")

#: test id -> the cells that hand-written test runs
KEPT: dict[str, tuple[Cell, ...]] = _kept()


def check_kept(request, monkeypatch) -> list[Run]:
    """Run every cell :data:`KEPT` declares for the calling test."""
    return [check(c, monkeypatch) for c in KEPT[request.node.nodeid]]


# ----------------------------------------------------------------------
# the generated cells
# ----------------------------------------------------------------------
def valid_cells(name: str) -> list[Cell]:
    """Every valid cell of scenario ``name`` (seed 0), in grid order."""
    s = SCENARIOS[name]
    grid = itertools.product((name,), s.variants, s.cases, GRID_DRIVERS,
                             KERNELS, BACKENDS, SAMPLERS)
    return [c for c in itertools.starmap(Cell, grid) if s.valid(c)]


def axis_pairs(c: Cell) -> set[tuple]:
    axes = list(enumerate(c[1:7]))
    return set(itertools.combinations(axes, 2))


def _cost(c: Cell) -> int:
    """Relative price of a cell: spawning worker processes dominates."""
    return 4 if _offloads(c) else 1


def seeded(c: Cell) -> Cell:
    """``c`` with the seed its id hashes to: the id shows it, so
    ``pytest -k <id>`` replays the cell."""
    return c._replace(seed=stable_hash(c._replace(seed=0).id) % 1000)


#: the committed cover, one cell id per line: :func:`generate` keeps
#: what it lists, so editing an axis renames no kept cell.  After an
#: axis edit, ``PYTHONPATH=src python -m tests.conformance`` rewrites it
CELLS_FILE = pathlib.Path(__file__).with_name("conformance_cells.txt")


def listed_cells() -> list[str]:
    """The cell ids :data:`CELLS_FILE` lists."""
    return CELLS_FILE.read_text().split()


def generate(listed: list[str] | None = None) -> list[Cell]:
    """Per scenario, the ``listed`` cells (default: :func:`listed_cells`)
    that are still valid and its ``always`` cells, then a deterministic
    pairwise cover of the rest: every pair of axis values some valid
    cell holds is in a generated or a kept cell.  Greedy, most new pairs
    per unit of cost first, ties to the earliest cell in grid order; no
    axis value is dropped."""
    if listed is None:
        listed = listed_cells()
    kept = [c for cells in KEPT.values() for c in cells]
    generated = []
    for name, scenario in SCENARIOS.items():
        candidates = valid_cells(name)
        by_id = {seeded(c).id: seeded(c) for c in candidates}
        cells = [by_id[i] for i in listed if i in by_id]
        cells += [c for c in map(seeded, scenario.always) if c not in cells]
        todo = set().union(*map(axis_pairs, candidates))
        for c in kept + cells:
            if c.scenario == name:
                todo -= axis_pairs(c)
        while todo:
            best = max(candidates,
                       key=lambda c: len(axis_pairs(c) & todo) / _cost(c))
            todo -= axis_pairs(best)
            cells.append(seeded(best))
        generated += cells
    return generated


#: the cells ``tests/core/test_conformance.py`` runs
GENERATED: list[Cell] = generate()


if __name__ == "__main__":
    CELLS_FILE.write_text("".join(f"{c.id}\n" for c in generate()))
