"""Task scheduler: the middle layer between the DAG scheduler and the
executor backends.

The :class:`~repro.engine.scheduler.DAGScheduler` decides *what* runs
(the stage graph, lineage recovery, the retry-by-demotion policy); the
:class:`TaskScheduler` decides *how one stage's tasks run*: it builds a
:class:`TaskSet`, places every task on a node via the cluster, runs the
per-task retry loop (fault admission, node health and quarantine,
OOM relief, retry backoff), and hands the per-partition thunks to the
configured :class:`~repro.engine.backends.ExecutorBackend`.

A stage with no offloading node (``RDD.offloads``) runs inline on the
calling thread, as ``SerialBackend.run`` would; only the others go to
the backend, whose threads then wait on worker processes.

Determinism contract (what makes ``ProcessPoolBackend`` bit-identical
to ``SerialBackend``): results are returned in partition order regardless
of completion order; every task attempt mutates only a private scratch
:class:`~repro.engine.metrics.StageMetrics` that is merged additively
into the stage's record (integer counters commute); and all shared
engine state the tasks touch (cache, shuffle outputs, memory pools,
fault injector) has order-independent semantics.  Pooled tasks take
turns at it under the one engine lock (see
:mod:`repro.engine.backends`); nothing here locks anything itself.

Straggler resilience (all opt-in, see
:class:`~repro.engine.conf.EngineConf`): when ``task_deadline_s`` or
``speculation`` is configured, every attempt carries a
:class:`~repro.engine.speculation.CancellationToken` whose cooperative
checkpoints observe deadlines and cancellation.  An attempt past its
*speculative* deadline (a multiple of the stage's median task runtime)
is cancelled and a backup attempt runs inline, on a different node and
the same thread, on every backend; only a completed attempt reaches
the output side, so speculation never changes committed bits.  Task
failures, hard-deadline expiries
(:class:`~repro.engine.errors.TaskTimedOutError`) and speculated
attempts feed a decayed per-node health score that can *quarantine* a
bad or persistently slow node for a while (see
:class:`~repro.engine.cluster.NodeHealthTracker`) — the one node-health
policy.

Instrumentation flows through the
:class:`~repro.engine.events.EngineEventBus` (``TaskStart`` /
``TaskEnd`` / ``TaskFailure`` / ``TaskTimedOut`` / ``TaskSpeculated`` /
``TaskAttemptCancelled`` / ``NodeQuarantined`` / ``NodeReadmitted``);
the fault injector subscribes to ``TaskStart`` and may raise from it to
fail the attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, TYPE_CHECKING

from .blocks import is_block
from .cluster import NodeHealthTracker
from .errors import (CancelledAttempt, CorruptedBlockError, FetchFailedError,
                     OutOfMemoryError, TaskFailedError, TaskTimedOutError)
from .events import (NodeQuarantined, NodeReadmitted, TaskAttemptCancelled,
                     TaskEnd, TaskFailure, TaskSpeculated, TaskStart,
                     TaskTimedOut)
from .metrics import StageMetrics
from .speculation import (SPECULATIVE_ATTEMPT_OFFSET, AttemptOutcome,
                          CancellationGroup, CancellationToken,
                          StageRuntimes, backoff_delay, guard_iterator)

if TYPE_CHECKING:  # pragma: no cover
    from .backends import ExecutorBackend
    from .context import Context
    from .rdd import ShuffleDependency
    from .scheduler import MemoryPressurePolicy, Stage
    from .shuffle import Aggregator

#: completed tasks a stage needs before its median runtime sets a
#: speculative deadline
_SPECULATIVE_MIN_TASKS = 3
#: with speculation on and no ``task_deadline_s``, an attempt is
#: hard-killed at this multiple of its speculative deadline — what
#: rescues a task whose *backup* hangs forever
_SPECULATIVE_HARD_CAP = 16.0
#: cap (seconds) and seeded jitter fraction of the doubling retry
#: backoff (see ``speculation.backoff_delay``)
_RETRY_BACKOFF_MAX_S = 1.0
_RETRY_BACKOFF_JITTER = 0.5


@dataclass
class TaskContext:
    """Handed to every RDD ``compute``: identifies the running task and
    carries the metrics sink for its stage (a per-attempt scratch that
    the task scheduler merges into the stage's record).  ``token`` is
    the attempt's cancellation token when time-domain features are
    active (long-running compute may call ``token.check()`` at its own
    safepoints)."""

    partition: int
    stage_metrics: StageMetrics
    attempt: int = 0
    token: CancellationToken | None = None


@dataclass
class TaskRunResult:
    """Outcome of one successfully completed task."""

    partition: int
    #: node the task's output is attributed to (resolved after the task
    #: ran, so a mid-task node kill re-places attribution correctly)
    node: int
    #: records the task emitted (shuffle records written, or result
    #: records consumed by the partition function)
    count: int
    #: the partition function's return value (result stages only)
    value: Any = None


@dataclass
class TaskSet:
    """One stage execution's worth of tasks plus their shared sinks.

    ``shuffle_dep`` set: shuffle-map tasks (each task writes its records
    into the dependency's shuffle).  ``process`` set: result tasks (each
    task feeds its records through the job's partition function).
    """

    stage: "Stage"
    metrics: StageMetrics
    policy: "MemoryPressurePolicy"
    shuffle_dep: "ShuffleDependency | None" = None
    aggregator: "Aggregator | None" = None
    process: Callable[[int, Iterable], Any] | None = None

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None


class TaskScheduler:
    """Runs task sets against one executor backend."""

    def __init__(self, ctx: "Context", backend: "ExecutorBackend"):
        self.ctx = ctx
        self.backend = backend
        #: per-stage runtime samples feeding adaptive spec deadlines
        self.runtimes = StageRuntimes()
        #: decayed per-node badness scores feeding quarantine
        self.health = NodeHealthTracker(
            decay_s=ctx.conf.quarantine_decay_s)

    @property
    def _wants_tokens(self) -> bool:
        """Whether attempts carry cancellation tokens (any time-domain
        feature configured).  Off by default: the legacy path has zero
        per-record overhead and byte-identical scheduling behaviour."""
        conf = self.ctx.conf
        return conf.speculation or conf.task_deadline_s is not None

    # ------------------------------------------------------------------
    def run_task_set(self, task_set: TaskSet) -> list[TaskRunResult]:
        """Execute every partition of the set on the backend; returns
        results in partition order.  Raises the (deterministically
        chosen) failing task's error when the set cannot complete."""
        group = CancellationGroup() if self._wants_tokens else None
        thunks = [
            (lambda p=p: self._run_task(task_set, p, group))
            for p in range(task_set.stage.num_tasks)
        ]
        if not any(rdd.offloads
                   for rdd in task_set.stage.rdd.narrow_chain()):
            # no task of this stage will block on a worker process, so
            # pool threads would only take turns at the GIL: the serial
            # backend's semantics (partition order, the first — lowest —
            # failure aborts the set, nothing to cancel)
            return [thunk() for thunk in thunks]
        return self.backend.run(thunks, cancel=group)

    # ------------------------------------------------------------------
    def _run_task(self, ts: TaskSet, partition: int,
                  group: CancellationGroup | None = None) -> TaskRunResult:
        """One task's retry loop (runs on a backend worker).

        Failed and timed-out attempts are charged to the node the task
        ran on; once a node's decayed score crosses
        ``conf.quarantine_threshold`` it is quarantined and the next
        attempt runs on a healthy node.  Every retry backs off with
        seeded-jitter exponential delay (``conf.retry_backoff_base_s``).
        Fetch failures propagate to the stage level — retrying in place
        cannot recover lost shuffle outputs.
        """
        ctx = self.ctx
        conf = ctx.conf
        cluster = ctx.cluster
        bus = ctx.event_bus
        stage = ts.stage
        max_attempts = conf.task_max_failures
        last_error: Exception | None = None
        for attempt in range(max_attempts):
            self._readmit_due_nodes()
            node = cluster.node_of_partition(partition)
            try:
                outcome = self._execute_attempt(ts, partition, attempt,
                                                node, group)
            except CorruptedBlockError as exc:
                # a checksum mismatch on a shuffle read is charged to
                # the *writer* node's quarantine health (that node
                # produced the corrupt bytes), then heals at stage
                # level exactly like a fetch failure
                self._note_health(exc.node)
                raise
            except (TaskFailedError, FetchFailedError):
                raise
            except CancelledAttempt:
                # control flow, never a task fault: a speculative
                # deadline is resolved inside _execute_attempt, so what
                # reaches here is a task-set cancellation — propagate,
                # exactly like KeyboardInterrupt/SystemExit (all
                # BaseExceptions the retry clause below cannot swallow)
                raise
            except TaskTimedOutError as exc:
                last_error = exc
                will_retry = attempt + 1 < max_attempts
                backoff = self._backoff(stage.stage_id, partition,
                                        attempt) if will_retry else 0.0
                bus.post(TaskTimedOut(stage.stage_id, partition, attempt,
                                      node, exc.elapsed_s, exc.deadline_s,
                                      will_retry, backoff))
                self._note_health(node)
                if backoff > 0:
                    ctx.clock.sleep(backoff)
                continue
            except Exception as exc:  # noqa: BLE001 - retry task faults
                last_error = exc
                will_retry = attempt + 1 < max_attempts
                backoff = self._backoff(stage.stage_id, partition,
                                        attempt) if will_retry else 0.0
                bus.post(TaskFailure(stage.stage_id, partition, attempt,
                                     node, exc, will_retry, backoff))
                self._note_health(node)
                if will_retry and isinstance(exc, OutOfMemoryError):
                    # degrade before retrying: demote the persisted RDDs
                    # feeding the task one storage level (or fall back
                    # to spill mode), then back off
                    ts.policy.relieve(stage, partition)
                if backoff > 0:
                    ctx.clock.sleep(backoff)
                continue
            return self._commit(ts, partition, outcome)
        raise TaskFailedError(
            f"task for partition {partition} of stage {stage.stage_id} "
            f"failed {max_attempts} times: {last_error}",
            partition=partition, attempts=max_attempts,
            stage_id=stage.stage_id)

    # ------------------------------------------------------------------
    # attempt execution (token-free fast path, deadlines, speculation)
    # ------------------------------------------------------------------
    def _execute_attempt(self, ts: TaskSet, partition: int, attempt: int,
                         node: int,
                         group: CancellationGroup | None) -> AttemptOutcome:
        """Run one attempt, applying whichever time-domain features are
        configured: no token at all (the legacy fast path), a hard
        deadline only, or speculation: past its speculative deadline
        the attempt is cancelled and a backup attempt runs inline on
        another node, from the same thread, on every backend."""
        if not self._wants_tokens:
            return self._attempt_compute(ts, partition, attempt, node,
                                         None)
        ctx = self.ctx
        conf = ctx.conf
        stage_id = ts.stage.stage_id
        hard = conf.task_deadline_s
        spec: float | None = None
        if conf.speculation:
            med = self.runtimes.median(stage_id, _SPECULATIVE_MIN_TASKS)
            if med is not None:
                spec = max(conf.speculative_min_deadline_s,
                           conf.speculative_multiplier * med)
                if hard is not None and spec >= hard:
                    # the hard deadline fires first anyway
                    spec = None
                elif hard is None:
                    # safety net: a hung *backup* must still die
                    hard = spec * _SPECULATIVE_HARD_CAP
        token = CancellationToken(ctx.clock, partition, stage_id,
                                  group=group, hard_deadline_s=hard,
                                  spec_deadline_s=spec)
        try:
            return self._attempt_compute(ts, partition, attempt, node,
                                         token)
        except CancelledAttempt as exc:
            if exc.kind != "speculation-deadline":
                raise
        backup_node = self._backup_node(partition, node)
        bus = ctx.event_bus
        bus.post(TaskSpeculated(stage_id, partition, attempt, node,
                                backup_node, spec))
        bus.post(TaskAttemptCancelled(stage_id, partition, attempt, node,
                                      token.elapsed()))
        self._note_health(node)
        backup_token = CancellationToken(ctx.clock, partition, stage_id,
                                         group=group, hard_deadline_s=hard)
        return self._attempt_compute(ts, partition,
                                     attempt + SPECULATIVE_ATTEMPT_OFFSET,
                                     backup_node, backup_token)

    def _attempt_compute(self, ts: TaskSet, partition: int, attempt: int,
                         node: int,
                         token: CancellationToken | None) -> AttemptOutcome:
        """One attempt's compute phase: post ``TaskStart`` (the fault
        injector may raise from it), materialize the record stream
        through the fault injector's delay/poison wrappers and the
        token's per-record guard, and admit the working set.  The
        output side (shuffle write / partition function) is *not* run
        here — a speculated primary never reaches it."""
        ctx = self.ctx
        stage = ts.stage
        scratch = StageMetrics(
            stage_id=ts.metrics.stage_id, job_id=ts.metrics.job_id,
            phase=ts.metrics.phase,
            is_shuffle_map=ts.metrics.is_shuffle_map,
            name=ts.metrics.name)
        task = TaskContext(partition=partition, stage_metrics=scratch,
                           attempt=attempt, token=token)
        started = (token.started_s if token is not None
                   else ctx.clock.time())
        try:
            # the fault injector subscribes to TaskStart and may raise
            # from it; materialize inside the try so faults raised
            # lazily (mid-iteration) are still retried
            ctx.event_bus.post(TaskStart(stage.stage_id, partition,
                                         attempt, node))
            records = list(guard_iterator(
                ctx.faults.wrap_task_iterator(
                    stage.rdd.iterator(partition, task),
                    stage.stage_id, partition, attempt, node=node,
                    token=token),
                token))
            ts.policy.admit(stage, partition, node, records)
        except BaseException:
            # failed and cancelled attempts merge too: their partial
            # reads and cache hits are real work
            ts.metrics.merge_task(scratch)
            raise
        self.runtimes.record(stage.stage_id, ctx.clock.time() - started)
        return AttemptOutcome(records, scratch, node, attempt)

    def _commit(self, ts: TaskSet, partition: int,
                outcome: AttemptOutcome) -> TaskRunResult:
        """Commit the winning attempt's records: shuffle write or
        partition function, then ``TaskEnd``.  The output side is not
        retried — its errors propagate raw, matching the old
        stage-loop structure — and runs exactly once per task."""
        ctx = self.ctx
        cluster = ctx.cluster
        bus = ctx.event_bus
        stage = ts.stage
        records = outcome.records
        scratch = outcome.scratch
        try:
            if ts.shuffle_dep is not None:
                dep = ts.shuffle_dep
                before = scratch.shuffle_write.records_written
                ctx._shuffle_manager.write(
                    dep.shuffle_id, partition, records,
                    dep.partitioner, scratch.shuffle_write,
                    ts.aggregator)
                count = scratch.shuffle_write.records_written - before
                value = None
            else:
                assert ts.process is not None
                counted = _CountingIterator(records)
                value = ts.process(partition, counted)
                count = counted.count
            # re-resolve placement after execution: output of a task
            # that outlived its node belongs to the replacement node
            node = cluster.node_of_partition(partition)
        finally:
            ts.metrics.merge_task(scratch)
        bus.post(TaskEnd(stage.stage_id, partition, outcome.attempt, node,
                         count))
        return TaskRunResult(partition=partition, node=node,
                             count=count, value=value)

    # ------------------------------------------------------------------
    # node health: quarantine, backoff
    # ------------------------------------------------------------------
    def _backoff(self, stage_id: int, partition: int,
                 attempt: int) -> float:
        """Seeded-jitter exponential backoff before retrying this
        task's next attempt (identical across backends — the site, not
        the schedule, drives the draw)."""
        return backoff_delay(self.ctx.conf.retry_backoff_base_s,
                             _RETRY_BACKOFF_MAX_S, _RETRY_BACKOFF_JITTER,
                             self.ctx.fault_plan.seed,
                             (stage_id, partition, attempt))

    def _backup_node(self, partition: int, node: int) -> int:
        """Deterministically pick a different available node for the
        backup attempt (falls back to the same node when it is the only
        one left)."""
        available = self.ctx.cluster.available_nodes
        candidates = [n for n in available if n != node]
        if not candidates:
            return node
        return candidates[partition % len(candidates)]

    def _note_health(self, node: int) -> None:
        """Charge one incident (a task failure, a straggle or a corrupt
        write) to ``node`` and quarantine it when its decayed score
        crosses ``conf.quarantine_threshold``."""
        conf = self.ctx.conf
        if conf.quarantine_threshold is None:
            return
        now = self.ctx.clock.time()
        score = self.health.record(node, 1.0, now)
        if score < conf.quarantine_threshold:
            return
        cluster = self.ctx.cluster
        if not cluster.is_available(node):
            return
        until = now + conf.quarantine_duration_s
        if cluster.quarantine_node(node, until):
            self.ctx.event_bus.post(NodeQuarantined(node, score, until))

    def _readmit_due_nodes(self) -> None:
        """Probationally readmit quarantined nodes whose term expired
        (lazy — checked before each attempt's placement).  A readmitted
        node restarts at half the quarantine threshold, so one more
        incident sends a repeat offender straight back."""
        conf = self.ctx.conf
        if conf.quarantine_threshold is None:
            return
        cluster = self.ctx.cluster
        now = self.ctx.clock.time()
        for node in cluster.quarantine_expired(now):
            if cluster.readmit_node(node):
                self.health.reset(node, conf.quarantine_threshold / 2.0,
                                  now)
                self.ctx.event_bus.post(NodeReadmitted(node))


class _CountingIterator:
    """Wraps an iterable, counting consumed records: a block counts as
    its rows (the rule of ``blocks.record_count`` and the shuffle's
    ``records_written``), so a stage's ``output_records`` does not
    depend on how its partitions are held."""

    def __init__(self, it: Iterable):
        self._it = iter(it)
        self.count = 0

    def __iter__(self) -> "_CountingIterator":
        return self

    def __next__(self) -> Any:
        item = next(self._it)
        self.count += len(item) if is_block(item) else 1
        return item
