"""Task scheduler: the middle layer between the DAG scheduler and the
executor backends.

The :class:`~repro.engine.scheduler.DAGScheduler` decides *what* runs
(the stage graph, lineage recovery, the retry-by-demotion policy); the
:class:`TaskScheduler` decides *how one stage's tasks run*: it builds a
:class:`TaskSet`, places every task on a node via the cluster, and runs
the per-task retry loop (fault admission, node health and quarantine,
OOM relief, retry backoff).

One engine thread, one loop.  Every task is a generator that runs on
the calling thread and suspends once per attempt, after its records
are materialized (:meth:`TaskScheduler._attempt_compute`).  A record
may then be a :class:`~repro.engine.procpool.Pending` offload: the
vectorized kernel's body of a stage whose final RDD offloads
(``RDD.offloads``), sent to an idle worker process of the backend and
not yet answered.  :meth:`TaskScheduler.run_task_set` keeps up to W =
``backend.num_workers`` such tasks suspended and finishes them in
partition order (FIFO); a task that holds no request in flight
finishes at once, after those before it.  So the serial backend (W =
1, no workers) and every stage that offloads nothing run exactly one
task after another, and the process backend's order of engine work is
a function of the inputs and W — as is every counter.

Every attempt takes one path: ``_execute_attempt`` (its token) →
``_attempt_compute`` (its records) → ``_commit`` (its output).
Determinism contract (what makes ``ProcessPoolBackend`` bit-identical
to the serial backend): results are returned in partition order;
every attempt — failed, cancelled and closed ones included — counts
straight into its stage's :class:`~repro.engine.metrics.StageMetrics`,
whose counters are additive integers, so the order suspended tasks
resume in cannot change a total; all shared engine state the tasks
touch (cache, shuffle outputs, memory pools, fault injector) has
order-independent semantics; and the first failure in partition order
is the one raised.

Straggler resilience (all opt-in, see
:class:`~repro.engine.conf.EngineConf`): every attempt carries a
:class:`~repro.engine.speculation.CancellationToken` whose cooperative
checkpoints observe the deadlines ``task_deadline_s`` and
``speculation`` set; with neither configured it has none and checks
nothing.  An attempt past its *speculative* deadline (a multiple of
the stage's median task runtime) is cancelled and a backup attempt
runs inline, on a different node and the same thread, on every
backend; only a completed attempt reaches the output side, so
speculation never changes committed bits.  Task failures,
hard-deadline expiries (``TaskTimedOutError``) and speculated attempts
feed a decayed per-node health score that can *quarantine* a bad or
persistently slow node for a while (see
:class:`~repro.engine.cluster.NodeHealthTracker`) — the one node-health
policy.

Instrumentation flows through the
:class:`~repro.engine.events.EngineEventBus` (``TaskStart`` /
``TaskEnd`` / ``TaskFailure`` / ``TaskTimedOut`` / ``TaskSpeculated`` /
``TaskAttemptCancelled`` / ``NodeQuarantined`` / ``NodeReadmitted``).
A listener — the fault injector, or any other subscribed
:class:`~repro.engine.events.EngineListener` — fails an attempt from
outside by raising from ``on_task_start``; that is the one hook.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, TYPE_CHECKING

from .blocks import is_block
from .cluster import NodeHealthTracker
from .errors import (CancelledAttempt, CorruptedBlockError, FetchFailedError,
                     OutOfMemoryError, TaskFailedError, TaskTimedOutError)
from .events import (NodeQuarantined, NodeReadmitted, TaskAttemptCancelled,
                     TaskEnd, TaskFailure, TaskSpeculated, TaskStart,
                     TaskTimedOut)
from .metrics import StageMetrics
from .procpool import Pending
from .speculation import (SPECULATIVE_ATTEMPT_OFFSET, CancellationToken,
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
    carries its stage's metrics record, which every attempt counts
    into.  ``deferred`` is a list when the stage's final RDD offloads:
    that node leaves its body's request in flight, as a ``Pending``
    record it also appends here."""

    partition: int
    stage_metrics: StageMetrics
    attempt: int = 0
    deferred: list | None = None


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

    # ------------------------------------------------------------------
    def run_task_set(self, task_set: TaskSet) -> list[TaskRunResult]:
        """Execute every partition of the set (see the module
        docstring); returns results in partition order.  A failing
        task first lets the suspended tasks before it finish, so the
        lowest failing partition's error is the one raised; the tasks
        after it are closed, which drains their in-flight replies."""
        width = self.backend.num_workers
        window: deque[Generator] = deque()
        results: list[TaskRunResult] = []

        def finish(left: int) -> None:
            """Finish the oldest tasks until ``left`` stay suspended."""
            while len(window) > left:
                results.append(_run_to_end(window.popleft()))
        try:
            for partition in range(task_set.stage.num_tasks):
                task = self._run_task(task_set, partition)
                try:
                    in_flight = next(task)
                except BaseException:
                    finish(0)
                    raise
                window.append(task)
                # room for the next task's request, or none to wait for
                finish(width - 1 if in_flight else 0)
            finish(0)
        finally:
            for task in window:
                task.close()
        return results

    # ------------------------------------------------------------------
    def _run_task(self, ts: TaskSet, partition: int
                  ) -> Generator[bool, None, TaskRunResult]:
        """One task's retry loop, suspended once per attempt (see
        :meth:`_attempt_compute`).

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
                records, winner = yield from self._execute_attempt(
                    ts, partition, attempt, node)
            except CorruptedBlockError as exc:
                # a checksum mismatch on a shuffle read is charged to
                # the *writer* node's quarantine health (that node
                # produced the corrupt bytes), then heals at stage
                # level exactly like a fetch failure
                self._note_health(exc.node)
                raise
            except (TaskFailedError, FetchFailedError):
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
            return self._commit(ts, partition, records, winner)
        raise TaskFailedError(
            f"task for partition {partition} of stage {stage.stage_id} "
            f"failed {max_attempts} times: {last_error}",
            partition=partition, attempts=max_attempts,
            stage_id=stage.stage_id)

    # ------------------------------------------------------------------
    # attempt execution (deadlines, speculation)
    # ------------------------------------------------------------------
    def _execute_attempt(self, ts: TaskSet, partition: int, attempt: int,
                         node: int
                         ) -> Generator[bool, None, tuple[list, int]]:
        """Run one attempt under a token carrying whichever deadlines
        are configured (none, a hard one, or a speculative one: past it
        the attempt is cancelled and a backup attempt runs inline on
        another node); ``(records, attempt)`` of the attempt that
        completed."""
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
                                  hard_deadline_s=hard,
                                  spec_deadline_s=spec)
        try:
            return (yield from self._attempt_compute(
                ts, partition, attempt, node, token))
        except CancelledAttempt:
            pass   # past the speculative deadline: fail over
        backup_node = self._backup_node(partition, node)
        bus = ctx.event_bus
        bus.post(TaskSpeculated(stage_id, partition, attempt, node,
                                backup_node, spec))
        bus.post(TaskAttemptCancelled(stage_id, partition, attempt, node,
                                      token.elapsed()))
        self._note_health(node)
        backup_token = CancellationToken(ctx.clock, partition, stage_id,
                                         hard_deadline_s=hard)
        return (yield from self._attempt_compute(
            ts, partition, attempt + SPECULATIVE_ATTEMPT_OFFSET,
            backup_node, backup_token))

    def _attempt_compute(self, ts: TaskSet, partition: int, attempt: int,
                         node: int, token: CancellationToken
                         ) -> Generator[bool, None, tuple[list, int]]:
        """One attempt's compute phase: post ``TaskStart`` (the fault
        injector may raise from it), materialize the record stream
        through the fault injector's delay/poison wrappers and the
        token's per-record guard, suspend (yielding whether a request
        is in flight), resolve any ``Pending`` record and admit the
        working set.  The output side (shuffle write / partition
        function) is *not* run here — a speculated primary never
        reaches it.  Closed while suspended, it drains its requests."""
        ctx = self.ctx
        stage = ts.stage
        task = TaskContext(partition=partition, stage_metrics=ts.metrics,
                           attempt=attempt,
                           deferred=[] if stage.rdd.offloads else None)
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
            yield bool(task.deferred)
            if task.deferred:
                records = [record.resolve() if isinstance(record, Pending)
                           else record for record in records]
            ts.policy.admit(stage, partition, node, records)
        except BaseException:
            for pending in task.deferred or ():
                pending.discard()
            raise
        self.runtimes.record(stage.stage_id, token.elapsed())
        return records, attempt

    def _commit(self, ts: TaskSet, partition: int, records: list,
                attempt: int) -> TaskRunResult:
        """Commit the winning attempt's records: shuffle write or
        partition function, then ``TaskEnd``.  The output side is not
        retried — its errors propagate raw, matching the old
        stage-loop structure — and runs exactly once per task."""
        ctx = self.ctx
        cluster = ctx.cluster
        bus = ctx.event_bus
        stage = ts.stage
        if ts.shuffle_dep is not None:
            dep = ts.shuffle_dep
            written = ts.metrics.shuffle_write
            before = written.records_written
            ctx._shuffle_manager.write(
                dep.shuffle_id, partition, records, dep.partitioner,
                written, ts.aggregator)
            count = written.records_written - before
            value = None
        else:
            assert ts.process is not None
            counted = _CountingIterator(records)
            value = ts.process(partition, counted)
            count = counted.count
        # re-resolve placement after execution: output of a task that
        # outlived its node belongs to the replacement node
        node = cluster.node_of_partition(partition)
        bus.post(TaskEnd(stage.stage_id, partition, attempt, node, count))
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


def _run_to_end(task: Generator) -> Any:
    """Run a suspended task to its end (resolving each retry's
    requests at once); its return value."""
    try:
        while True:
            next(task)
    except StopIteration as done:
        return done.value


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
