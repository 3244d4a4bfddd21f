"""Structured, seeded fault injection for the engine.

Spark earns the "R" in RDD through lineage-based *recovery*: lost shuffle
outputs and cached partitions are recomputed from their lineage, and
iterative workloads like CP-ALS survive worker loss mid-run.  This module
is the controlled way to exercise that machinery: a :class:`FaultPlan`
declaratively describes which faults fire (per-task failure
probabilities, deterministic node kills, shuffle-fetch failures,
slow and hung tasks), and a :class:`FaultInjector` — owned by the
:class:`~repro.engine.Context` — executes the plan at well-defined
engine hook points:

* ``on_iteration`` — the CP-ALS drivers report iteration boundaries, so
  kills can be pinned to "iteration n";
* ``on_stage_start`` — the scheduler reports each stage execution, so
  kills can be pinned to "stage n";
* ``on_task_attempt`` — called before every task attempt; fires
  ``after_tasks`` kills and broken-node faults;
* ``wrap_task_iterator`` — wraps the task's record stream so injected
  task failures can surface *lazily*, mid-iteration, the way a real map
  function dies halfway through a partition, and injected delays and
  hangs are served inside the attempt;
* ``maybe_fail_fetch`` — called by the shuffle manager per fetched
  block to inject transient fetch failures.

The injector is an :class:`~repro.engine.events.EngineListener`: the
context subscribes it (last, after the metrics collector) and the
schedulers reach it by posting ``StageSubmitted`` / ``TaskStart``
events, never by calling it directly.  Raising from an event handler
fails the task attempt being started — the bus propagates listener
exceptions by design.

Every probabilistic decision draws from its own :func:`site_rng`,
seeded by ``(plan.seed, *site)`` where ``site`` identifies the
decision point — ``(stage, partition, attempt)`` for task faults and
stragglers, ``(shuffle, map, reduce, occurrence)`` for
fetch faults.  Decisions therefore do not depend on the order tasks
happen to execute in, so a given plan replays identically under any
executor backend, serial or process.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TYPE_CHECKING

from .errors import EngineError, FetchFailedError
from .events import EngineListener, StageSubmitted, TaskStart
from .partitioner import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .speculation import CancellationToken


def site_rng(seed: int, *site) -> random.Random:
    """Seeded RNG for one named decision site — fault draws, corruption
    draws, retry-backoff jitter: the draw depends only on the plan seed
    and the site, never on execution order."""
    return random.Random(stable_hash((seed,) + site))


class InjectedFaultError(EngineError):
    """A fault raised by the injection framework (retryable)."""


@dataclass(frozen=True)
class NodeKillEvent:
    """Deterministically kill one node when a trigger fires.

    Exactly one trigger must be set:

    ``at_iteration``
        Kill when a driver reports the start of iteration ``n`` (the
        CP-ALS drivers call :meth:`FaultInjector.on_iteration`).
    ``at_stage``
        Kill when the first stage with ``stage_id >= at_stage`` starts
        (>= rather than == so plans survive small changes in stage
        numbering).
    ``after_tasks``
        Kill once the cluster has started that many task attempts.
    """

    node_id: int
    at_iteration: int | None = None
    at_stage: int | None = None
    after_tasks: int | None = None

    def __post_init__(self) -> None:
        triggers = [t for t in (self.at_iteration, self.at_stage,
                                self.after_tasks) if t is not None]
        if len(triggers) != 1:
            raise ValueError(
                "exactly one of at_iteration/at_stage/after_tasks must "
                f"be set, got {self}")


@dataclass
class FaultPlan:
    """Declarative description of the faults to inject into one context.

    ``seed``
        Seeds every probabilistic decision; identical plans replay
        identically.
    ``task_failure_prob``
        Per task attempt, the probability of raising an
        :class:`InjectedFaultError` from inside the task.  At most
        :data:`MAX_INJECTED_FAILURES_PER_TASK` injections hit any one
        ``(stage, partition)``, so probabilistic faults stay transient
        and are healed by the scheduler's task retries.
    ``task_failure_mode``
        ``"lazy"`` (default) raises mid-way through the partition's
        record stream — the hard case, where a task dies after already
        having produced records; ``"eager"`` raises before the first
        record.
    ``fetch_failure_prob``
        Per fetched shuffle block, the probability of raising a
        :class:`~repro.engine.errors.FetchFailedError`; the scheduler
        answers by resubmitting the parent shuffle-map stage from
        lineage.
    ``task_base_delay_s``
        Uniform cooperative delay added to every task attempt — the
        simulated service time that gives virtual-clock workloads a
        nonzero baseline iteration time.
    ``slow_task_prob`` / ``slow_task_delay_s``
        Seeded per-attempt probability of adding ``slow_task_delay_s``
        of *cooperative* delay (observes deadlines/cancellation, routed
        through the attempt's token) — the transient-straggler model.
    ``slow_node_budgets`` / ``slow_node_prob``
        ``{node_id: delay_s}`` — attempts placed on a listed node stall
        ``delay_s`` cooperative seconds, each with probability
        ``slow_node_prob`` (default 1.0: a persistently slow node;
        lower values model an intermittently slow one).
    ``hang_task_prob`` / ``max_injected_hangs_per_task``
        Seeded per-attempt probability of hanging forever at task
        start.  A hang only terminates via the attempt's deadline or
        cancellation; injecting one into an attempt with neither raises
        :class:`~repro.engine.errors.EngineError` instead of
        deadlocking.  At most ``max_injected_hangs_per_task`` hangs hit
        any one ``(stage, partition)``, so retries heal them.
    ``broken_nodes``
        Node ids whose tasks always fail — models bad hardware; combined
        with ``EngineConf.quarantine_threshold`` this exercises node
        quarantine and re-placement onto healthy nodes.
    ``node_kills``
        Deterministic :class:`NodeKillEvent`\\ s.
    ``oom_node_budgets``
        Per-node memory budget in bytes (``{node_id: budget}``).  A task
        whose working-set footprint — records times the memory factor of
        its storage level — exceeds its node's budget is killed with
        :class:`~repro.engine.errors.OutOfMemoryError`.  The scheduler
        recovers by demoting the persisted RDDs feeding the task
        (RAW -> SER -> DISK, falling back to task spill mode) and
        retrying with seeded-jitter exponential backoff
        (``EngineConf.retry_backoff_base_s``).
    ``corrupt_block_prob``
        Per checksum-verified read of a sealed blob (shuffle block,
        broadcast payload, cached blob, spilled run), the probability of
        flipping one byte of the bytes *in flight* — the reader sees
        corrupt data while the stored copy stays pristine.  Only
        observable with ``EngineConf.integrity`` on: verification
        detects the flip and raises a retryable
        :class:`~repro.engine.errors.CorruptedDataError` which heals
        through lineage recomputation (see
        :class:`~repro.engine.integrity.IntegrityManager`).
    ``corrupt_checkpoint_prob``
        Per checkpoint shard written by
        :class:`~repro.core.checkpoint.FileCheckpointStore`, the
        probability of flipping one byte of the shard file on disk after
        the save completes — silent storage rot.  Resume detects it via
        the per-shard-checksummed manifest and falls back to the newest
        good checkpoint.
    ``torn_write_prob``
        Per checkpoint save, the probability that the save is *torn*:
        one shard file is truncated mid-write (modeling a crash or
        power loss after the rename but before the data hit disk).
        Detected and healed the same way as checkpoint corruption.
    """

    seed: int = 0
    task_failure_prob: float = 0.0
    task_failure_mode: str = "lazy"
    fetch_failure_prob: float = 0.0
    task_base_delay_s: float = 0.0
    slow_task_prob: float = 0.0
    slow_task_delay_s: float = 0.0
    slow_node_budgets: dict[int, float] = field(default_factory=dict)
    slow_node_prob: float = 1.0
    hang_task_prob: float = 0.0
    max_injected_hangs_per_task: int = 1
    broken_nodes: tuple[int, ...] = ()
    node_kills: tuple[NodeKillEvent, ...] = ()
    oom_node_budgets: dict[int, int] = field(default_factory=dict)
    corrupt_block_prob: float = 0.0
    corrupt_checkpoint_prob: float = 0.0
    torn_write_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("task_failure_prob", "fetch_failure_prob",
                     "slow_task_prob", "slow_node_prob", "hang_task_prob",
                     "corrupt_block_prob", "corrupt_checkpoint_prob",
                     "torn_write_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.task_failure_mode not in ("eager", "lazy"):
            raise ValueError(
                f"task_failure_mode must be 'eager' or 'lazy', "
                f"got {self.task_failure_mode!r}")
        if self.max_injected_hangs_per_task < 0:
            raise ValueError("max_injected_hangs_per_task must be >= 0")
        for name in ("task_base_delay_s", "slow_task_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        self.broken_nodes = tuple(self.broken_nodes)
        self.node_kills = tuple(self.node_kills)
        self.oom_node_budgets = dict(self.oom_node_budgets)
        for node, budget in self.oom_node_budgets.items():
            if budget <= 0:
                raise ValueError(
                    f"oom_node_budgets[{node}] must be > 0, got {budget}")
        self.slow_node_budgets = dict(self.slow_node_budgets)
        for node, delay in self.slow_node_budgets.items():
            if delay <= 0:
                raise ValueError(
                    f"slow_node_budgets[{node}] must be > 0, got {delay}")

    @property
    def injects_delays(self) -> bool:
        """True iff the plan can delay or hang task attempts."""
        return bool(self.task_base_delay_s
                    or (self.slow_task_prob and self.slow_task_delay_s)
                    or self.slow_node_budgets
                    or self.hang_task_prob)

    @property
    def is_null(self) -> bool:
        """True iff the plan injects nothing."""
        return (self.task_failure_prob == 0.0
                and self.fetch_failure_prob == 0.0
                and not self.injects_delays
                and not self.broken_nodes
                and not self.node_kills
                and not self.oom_node_budgets
                and self.corrupt_block_prob == 0.0
                and self.corrupt_checkpoint_prob == 0.0
                and self.torn_write_prob == 0.0)


#: injected task failures per ``(stage, partition)``: one, so a
#: probabilistic fault is transient and the first retry heals it
MAX_INJECTED_FAILURES_PER_TASK = 1


class FaultInjector(EngineListener):
    """Executes a :class:`FaultPlan` against one context.

    Subscribed to the engine event bus (last, so that the metrics
    collector observes every event even when the injector raises):
    ``StageSubmitted`` drives :meth:`on_stage_start` and ``TaskStart``
    drives :meth:`on_task_attempt`.  Drivers still call
    :meth:`on_iteration` directly — iteration boundaries are an
    algorithm-level notion the engine has no event for.

    One engine thread (see :mod:`repro.engine.backends`): nothing here
    locks anything, and every random decision is derived from its call
    site (see module docstring), so outcomes do not depend on the order
    tasks run in.
    """

    def __init__(self, plan: FaultPlan, ctx: "Context"):
        self.plan = plan
        self._ctx = ctx
        self._task_attempts_started = 0
        self._injected_per_task: dict[tuple[int, int], int] = {}
        self._hangs_per_task: dict[tuple[int, int], int] = {}
        self._fired_kills: set[int] = set()
        #: per-block fetch occurrence counters: the k-th read of a block
        #: is an independent seeded decision, stable across backends
        self._fetch_reads: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # event subscriptions
    # ------------------------------------------------------------------
    def on_stage_submitted(self, event: StageSubmitted) -> None:
        self.on_stage_start(event.stage_id)

    def on_task_start(self, event: TaskStart) -> None:
        self.on_task_attempt(event.stage_id, event.partition,
                             event.attempt, event.node)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_iteration(self, iteration: int) -> None:
        """Driver-reported iteration boundary (fires iteration kills)."""
        self._fire_kills(
            lambda ev: ev.at_iteration is not None
            and iteration >= ev.at_iteration)

    def on_stage_start(self, stage_id: int) -> None:
        """Scheduler-reported stage execution (fires stage kills)."""
        self._fire_kills(
            lambda ev: ev.at_stage is not None and stage_id >= ev.at_stage)

    def on_task_attempt(self, stage_id: int, partition: int,
                        attempt: int, node: int) -> None:
        """Called before each task attempt runs; may raise to fail it."""
        self._task_attempts_started += 1
        started = self._task_attempts_started
        self._fire_kills(
            lambda ev: ev.after_tasks is not None
            and started >= ev.after_tasks)
        plan = self.plan
        if node in plan.broken_nodes:
            self._faults().injected_task_failures += 1
            raise InjectedFaultError(
                f"node {node} is broken (stage {stage_id}, "
                f"partition {partition}, attempt {attempt})")

    def wrap_task_iterator(
            self, records: Iterable, stage_id: int, partition: int,
            attempt: int, node: int,
            token: "CancellationToken") -> Iterable:
        """Possibly poison and/or delay the task's record stream.

        Failure poisoning (``task_failure_prob``) composes with the
        time-domain injections: the attempt first serves its injected
        delay/hang (cooperatively, through ``token``, so deadlines and
        cancellation interrupt the stall), then streams the
        possibly-poisoned records.
        """
        plan = self.plan
        records = self._poison_iterator(records, stage_id, partition,
                                        attempt)
        if not plan.injects_delays:
            return records
        delay, hang = self._draw_delays(stage_id, partition, attempt,
                                        node)
        if not delay and not hang:
            return records
        return self._delayed_iterator(records, delay, hang, token)

    def _draw_delays(self, stage_id: int, partition: int, attempt: int,
                     node: int) -> tuple[float, bool]:
        """Seeded time-domain decisions for one attempt: total injected
        delay seconds, and whether the attempt hangs."""
        plan = self.plan
        delay = plan.task_base_delay_s
        slow_draws = 0
        if plan.slow_task_prob and plan.slow_task_delay_s:
            rng = site_rng(plan.seed, "slow", stage_id, partition,
                           attempt)
            if rng.random() < plan.slow_task_prob:
                delay += plan.slow_task_delay_s
                slow_draws += 1
        node_delay = plan.slow_node_budgets.get(node)
        if node_delay:
            rng = site_rng(plan.seed, "slownode", node, stage_id,
                           partition, attempt)
            if rng.random() < plan.slow_node_prob:
                delay += node_delay
                slow_draws += 1
        hang = False
        if plan.hang_task_prob:
            key = (stage_id, partition)
            rng = site_rng(plan.seed, "hang", stage_id, partition,
                           attempt)
            if (self._hangs_per_task.get(key, 0)
                    < plan.max_injected_hangs_per_task
                    and rng.random() < plan.hang_task_prob):
                self._hangs_per_task[key] = \
                    self._hangs_per_task.get(key, 0) + 1
                hang = True
        stragglers = self._ctx.metrics.stragglers
        if slow_draws:
            stragglers.injected_slow_tasks += slow_draws
        if delay:
            stragglers.injected_delay_s += delay
        if hang:
            stragglers.injected_hangs += 1
        return delay, hang

    @staticmethod
    def _delayed_iterator(records: Iterable, delay: float, hang: bool,
                          token: "CancellationToken") -> Iterator:
        """Serve the injected delay/hang, then stream ``records``.  The
        stall happens lazily, on first ``next()`` — inside the task's
        retry/timeout scope."""
        if delay:
            token.sleep(delay)
        if hang:
            token.hang()
        yield from records

    def _poison_iterator(self, records: Iterable, stage_id: int,
                         partition: int, attempt: int) -> Iterable:
        """Possibly poison the task's record stream per the plan."""
        plan = self.plan
        if not plan.task_failure_prob:
            return records
        key = (stage_id, partition)
        rng = site_rng(plan.seed, "task", stage_id, partition, attempt)
        if (self._injected_per_task.get(key, 0)
                >= MAX_INJECTED_FAILURES_PER_TASK):
            return records
        if rng.random() >= plan.task_failure_prob:
            return records
        self._injected_per_task[key] = \
            self._injected_per_task.get(key, 0) + 1
        self._faults().injected_task_failures += 1
        message = (f"injected task failure (stage {stage_id}, "
                   f"partition {partition}, attempt {attempt})")
        if plan.task_failure_mode == "eager":
            def eager() -> Iterator:
                raise InjectedFaultError(message)
                yield  # pragma: no cover
            return eager()
        # lazy: die after a seeded number of records (or at stream end
        # for short partitions) — mid-iteration, as real map faults do
        poison_after = rng.randrange(1, 8)

        def lazy() -> Iterator:
            for i, record in enumerate(records):
                if i >= poison_after:
                    raise InjectedFaultError(message)
                yield record
            raise InjectedFaultError(message)
        return lazy()

    def maybe_fail_fetch(self, shuffle_id: int, map_partition: int,
                         reduce_partition: int) -> None:
        """Injected transient fetch failure for one shuffle block."""
        plan = self.plan
        if not plan.fetch_failure_prob:
            return
        block = (shuffle_id, map_partition, reduce_partition)
        occurrence = self._fetch_reads.get(block, 0)
        self._fetch_reads[block] = occurrence + 1
        rng = site_rng(plan.seed, "fetch", shuffle_id, map_partition,
                       reduce_partition, occurrence)
        if rng.random() < plan.fetch_failure_prob:
            raise FetchFailedError(
                f"injected fetch failure: shuffle {shuffle_id} map "
                f"partition {map_partition} -> reduce partition "
                f"{reduce_partition}",
                shuffle_id=shuffle_id, reduce_partition=reduce_partition,
                missing_map_partitions=(map_partition,))

    # ------------------------------------------------------------------
    def _faults(self):
        return self._ctx.metrics.faults

    def _fire_kills(self, should_fire: Callable[[NodeKillEvent], bool]) -> None:
        due = [(i, event)
               for i, event in enumerate(self.plan.node_kills)
               if i not in self._fired_kills and should_fire(event)]
        self._fired_kills.update(i for i, _ in due)
        for _, event in due:
            self._ctx.kill_node(event.node_id)
