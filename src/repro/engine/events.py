"""Engine event bus — the analogue of Spark's ``LiveListenerBus``.

The layered execution stack (``DAGScheduler`` -> ``TaskScheduler`` ->
``ExecutorBackend``) does not call cross-cutting services directly.
Instead, schedulers *post* typed events and every interested service —
metrics collection, fault accounting, memory accounting, Hadoop-mode
HDFS charging, the cost-model timeline and the
:class:`~repro.engine.faults.FaultInjector` itself — *subscribes* to the
bus.  That keeps the scheduler layers free of instrumentation and makes
the services swappable, exactly like Spark's ``SparkListener`` API.

Differences from Spark's bus, both deliberate:

* dispatch is **synchronous** and in subscription order (Spark's bus is
  an async queue).  Determinism matters more than throughput in an
  in-process simulation, and some listeners are *active* — the fault
  injector may raise from ``on_task_start`` to kill a task attempt;
* listener exceptions **propagate** to the poster (Spark logs and drops
  them).  That is what turns the injector's subscription into a fault
  path.

Thread safety: posting is serialized by one reentrant lock, so listeners
may assume single-threaded execution (and may post further events while
handling one — e.g. a node kill fired from ``on_task_start`` posts
``NodeLost``).  Data-plane components (cache, shuffle, memory pools)
never post while holding their own locks, which keeps the lock order
acyclic: bus lock first, component locks second.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsCollector, StageMetrics
    from .storage import StorageLevel


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobStart:
    """A job (one action) began executing."""

    job_id: int
    description: str
    handler = "on_job_start"


@dataclass(frozen=True)
class JobShuffleRounds:
    """The job's parent stages all ran: its paper-style shuffle-round
    count (new shuffle dependencies grouped by consuming wide RDD) is
    known.  Posted before the result stage runs."""

    job_id: int
    rounds: int
    handler = "on_job_shuffle_rounds"


@dataclass(frozen=True)
class JobEnd:
    """The job finished (``succeeded=False`` on abort)."""

    job_id: int
    succeeded: bool
    handler = "on_job_end"


@dataclass(frozen=True)
class StageSubmitted:
    """A stage execution (initial or re-run after recovery) starts."""

    stage_id: int
    name: str
    num_tasks: int
    handler = "on_stage_submitted"


@dataclass(frozen=True)
class StageCompleted:
    """A stage execution finished; ``metrics`` is its final record.
    ``recomputation`` marks recovery re-executions (their shuffle
    records count as recomputed work, not new work)."""

    job_id: int
    metrics: "StageMetrics"
    recomputation: bool = False
    handler = "on_stage_completed"


@dataclass(frozen=True)
class TaskStart:
    """A task attempt is about to run on ``node``.  Active listeners
    (the fault injector) may raise here to fail the attempt."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    handler = "on_task_start"


@dataclass(frozen=True)
class TaskEnd:
    """A task attempt succeeded, producing ``records`` records."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    records: int
    handler = "on_task_end"


@dataclass(frozen=True)
class TaskFailure:
    """A task attempt failed with a retryable error.  ``backoff_s`` is
    the seeded-jitter delay the scheduler will sleep before the retry
    (0 when not retrying or backoff is disabled)."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    error: Exception
    will_retry: bool
    backoff_s: float = 0.0
    handler = "on_task_failure"


@dataclass(frozen=True)
class TaskTimedOut:
    """A task attempt overran its hard deadline and was abandoned at a
    cooperative checkpoint (counted as a straggle, not a failure, for
    node-health purposes).  ``backoff_s`` is the seeded-jitter delay
    the scheduler will sleep before the retry (0 when not retrying or
    backoff is disabled)."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    elapsed_s: float
    deadline_s: float
    will_retry: bool
    backoff_s: float = 0.0
    handler = "on_task_timed_out"


@dataclass(frozen=True)
class TaskSpeculated:
    """A task attempt overran its speculative deadline; a backup
    attempt was launched on ``backup_node``."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    backup_node: int
    deadline_s: float
    handler = "on_task_speculated"


@dataclass(frozen=True)
class TaskAttemptCancelled:
    """A task attempt passed its speculative deadline and was cancelled
    in favour of an inline backup (:class:`TaskSpeculated`).
    ``elapsed_s`` is the abandoned work's wasted time."""

    stage_id: int
    partition: int
    attempt: int
    node: int
    elapsed_s: float
    handler = "on_task_attempt_cancelled"


@dataclass(frozen=True)
class NodeQuarantined:
    """A node's decayed failure/straggle score crossed the quarantine
    threshold; it receives no tasks until ``until_s`` (context-clock
    time)."""

    node: int
    score: float
    until_s: float
    handler = "on_node_quarantined"


@dataclass(frozen=True)
class NodeReadmitted:
    """A quarantined node's penalty expired; it is probationally back
    in placement with its health score halved to the threshold."""

    node: int
    handler = "on_node_readmitted"


@dataclass(frozen=True)
class FetchFailed:
    """A stage observed a reduce-side fetch failure and is entering
    lineage recovery (one event per recovery attempt, including the
    terminal one that aborts the job)."""

    stage_id: int
    shuffle_id: int
    reduce_partition: int
    handler = "on_fetch_failed"


@dataclass(frozen=True)
class StagesResubmitted:
    """Lineage recovery for ``stage_id`` resubmitted ``count`` missing
    parent shuffle-map stages."""

    stage_id: int
    count: int
    handler = "on_stages_resubmitted"


@dataclass(frozen=True)
class BlockCorrupted:
    """A shuffle block failed checksum verification and the stage is
    entering lineage recovery (the corrupt writer's map output was
    dropped; posted by the scheduler alongside :class:`FetchFailed`)."""

    stage_id: int
    shuffle_id: int
    reduce_partition: int
    #: node whose map output served the corrupt bytes
    node: int
    handler = "on_block_corrupted"


@dataclass(frozen=True)
class NodeLost:
    """A worker node died; its shuffle outputs and cached partitions
    are gone."""

    node_id: int
    map_outputs_lost: int
    cached_partitions_lost: int
    handler = "on_node_lost"


@dataclass(frozen=True)
class OOMKill:
    """A task attempt was killed by an injected per-node memory budget."""

    stage_id: int
    partition: int
    node: int
    requested_bytes: int
    budget_bytes: int
    handler = "on_oom_kill"


@dataclass(frozen=True)
class TaskSpill:
    """A spill-mode task streamed its working set through disk."""

    stage_id: int
    partition: int
    nbytes: int
    handler = "on_task_spill"


@dataclass(frozen=True)
class RDDDemoted:
    """OOM pressure demoted a persisted RDD one storage level."""

    rdd_id: int
    rdd_name: str
    from_level: "StorageLevel"
    to_level: "StorageLevel"
    handler = "on_rdd_demoted"


# ----------------------------------------------------------------------
# bus
# ----------------------------------------------------------------------
class EngineListener:
    """Base class with a no-op hook per event type.  Subclass and
    override the hooks you care about, then
    :meth:`EngineEventBus.subscribe`."""

    def on_job_start(self, event: JobStart) -> None:
        """Handle :class:`JobStart`."""

    def on_job_shuffle_rounds(self, event: JobShuffleRounds) -> None:
        """Handle :class:`JobShuffleRounds`."""

    def on_job_end(self, event: JobEnd) -> None:
        """Handle :class:`JobEnd`."""

    def on_stage_submitted(self, event: StageSubmitted) -> None:
        """Handle :class:`StageSubmitted`."""

    def on_stage_completed(self, event: StageCompleted) -> None:
        """Handle :class:`StageCompleted`."""

    def on_task_start(self, event: TaskStart) -> None:
        """Handle :class:`TaskStart` (may raise to fail the attempt)."""

    def on_task_end(self, event: TaskEnd) -> None:
        """Handle :class:`TaskEnd`."""

    def on_task_failure(self, event: TaskFailure) -> None:
        """Handle :class:`TaskFailure`."""

    def on_task_timed_out(self, event: TaskTimedOut) -> None:
        """Handle :class:`TaskTimedOut`."""

    def on_task_speculated(self, event: TaskSpeculated) -> None:
        """Handle :class:`TaskSpeculated`."""

    def on_task_attempt_cancelled(
            self, event: TaskAttemptCancelled) -> None:
        """Handle :class:`TaskAttemptCancelled`."""

    def on_node_quarantined(self, event: NodeQuarantined) -> None:
        """Handle :class:`NodeQuarantined`."""

    def on_node_readmitted(self, event: NodeReadmitted) -> None:
        """Handle :class:`NodeReadmitted`."""

    def on_fetch_failed(self, event: FetchFailed) -> None:
        """Handle :class:`FetchFailed`."""

    def on_stages_resubmitted(self, event: StagesResubmitted) -> None:
        """Handle :class:`StagesResubmitted`."""

    def on_block_corrupted(self, event: BlockCorrupted) -> None:
        """Handle :class:`BlockCorrupted`."""

    def on_node_lost(self, event: NodeLost) -> None:
        """Handle :class:`NodeLost`."""

    def on_oom_kill(self, event: OOMKill) -> None:
        """Handle :class:`OOMKill`."""

    def on_task_spill(self, event: TaskSpill) -> None:
        """Handle :class:`TaskSpill`."""

    def on_rdd_demoted(self, event: RDDDemoted) -> None:
        """Handle :class:`RDDDemoted`."""


class EngineEventBus:
    """Synchronous, ordered, thread-safe event dispatch (see module
    docstring for how it deliberately differs from Spark's bus)."""

    def __init__(self) -> None:
        self._listeners: list[EngineListener] = []
        self._lock = threading.RLock()

    def subscribe(self, listener: EngineListener) -> None:
        """Append ``listener``; dispatch order is subscription order.
        Active listeners that may raise (the fault injector) belong
        last, so passive accounting listeners always observe the
        event first."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: EngineListener) -> None:
        """Remove ``listener``; raises ``ValueError`` if absent."""
        with self._lock:
            self._listeners.remove(listener)

    def post(self, event) -> None:
        """Dispatch ``event`` to every listener, in order.  Listener
        exceptions propagate to the caller."""
        with self._lock:
            for listener in list(self._listeners):
                getattr(listener, event.handler)(event)


# ----------------------------------------------------------------------
# standard listeners (the cross-cutting services, as subscriptions)
# ----------------------------------------------------------------------
class MetricsListener(EngineListener):
    """Feeds the job/stage structure of a
    :class:`~repro.engine.metrics.MetricsCollector`."""

    def __init__(self, collector: "MetricsCollector"):
        self._collector = collector
        self._open_jobs: dict[int, object] = {}

    def on_job_start(self, event: JobStart) -> None:
        """Open a :class:`~repro.engine.metrics.JobMetrics` record."""
        self._open_jobs[event.job_id] = self._collector.start_job(
            event.job_id, event.description)

    def on_job_shuffle_rounds(self, event: JobShuffleRounds) -> None:
        """Record the job's paper-style shuffle-round count."""
        job = self._open_jobs.get(event.job_id)
        if job is not None:
            job.shuffle_rounds = event.rounds

    def on_stage_completed(self, event: StageCompleted) -> None:
        """Append the stage's metrics to its job's record."""
        job = self._open_jobs.get(event.job_id)
        if job is not None:
            job.stages.append(event.metrics)

    def on_job_end(self, event: JobEnd) -> None:
        """Close the job's record."""
        self._open_jobs.pop(event.job_id, None)


class FaultMetricsListener(EngineListener):
    """Feeds :class:`~repro.engine.metrics.FaultMetrics` from scheduler
    and recovery events."""

    def __init__(self, collector: "MetricsCollector"):
        self._collector = collector

    @property
    def _faults(self):
        return self._collector.faults

    def on_task_failure(self, event: TaskFailure) -> None:
        """Count the failure against the task and its node."""
        f = self._faults
        f.task_failures += 1
        f.record_node_failure(event.node)
        if event.will_retry:
            f.tasks_retried += 1

    def on_fetch_failed(self, event: FetchFailed) -> None:
        """Count a reduce-side fetch failure."""
        self._faults.fetch_failures += 1

    def on_stages_resubmitted(self, event: StagesResubmitted) -> None:
        """Count lineage-recovery stage resubmissions."""
        self._faults.stages_resubmitted += event.count

    def on_stage_completed(self, event: StageCompleted) -> None:
        """Charge recovery re-executions as recomputed records."""
        if event.recomputation:
            self._faults.records_recomputed += \
                event.metrics.shuffle_write.records_written

    def on_node_lost(self, event: NodeLost) -> None:
        """Account a node death and the data it took down."""
        f = self._faults
        f.nodes_killed += 1
        f.map_outputs_lost += event.map_outputs_lost
        f.cached_partitions_lost += event.cached_partitions_lost


class IntegrityEventListener(EngineListener):
    """Feeds :class:`~repro.engine.metrics.IntegrityMetrics` from
    scheduler-level integrity events.

    Detection counters (blocks verified/corrupt) are written directly
    by the :class:`~repro.engine.integrity.IntegrityManager` — the data
    plane must not post events from under its own locks — so this
    listener only accounts the *recoveries* the scheduler performs:
    each :class:`BlockCorrupted` means a corrupt shuffle block was
    healed by resubmitting its map stage from lineage."""

    def __init__(self, collector) -> None:
        self._collector = collector

    @property
    def _integrity(self):
        # late-bound: collector.reset() replaces the metrics object
        return self._collector.integrity

    def on_block_corrupted(self, event: BlockCorrupted) -> None:
        """Count one corruption healed by lineage recomputation."""
        self._integrity.add("recompute_recoveries")


class StragglerEventListener(EngineListener):
    """Feeds :class:`~repro.engine.metrics.StragglerMetrics` from the
    time-domain events: timeouts, speculation launches/outcomes,
    quarantine transitions and retry backoff."""

    def __init__(self, collector: "MetricsCollector"):
        self._collector = collector

    @property
    def _stragglers(self):
        return self._collector.stragglers

    def on_task_timed_out(self, event: TaskTimedOut) -> None:
        """Count a hard-deadline expiry, its wasted attempt time and
        the retry's backoff sleep."""
        s = self._stragglers
        s.add("tasks_timed_out", 1)
        s.add("wasted_attempt_s", event.elapsed_s)
        if event.backoff_s > 0:
            s.add("backoff_sleeps", 1)
            s.add("backoff_total_s", event.backoff_s)

    def on_task_speculated(self, event: TaskSpeculated) -> None:
        """Count a backup-attempt launch."""
        self._stragglers.add("tasks_speculated", 1)

    def on_task_attempt_cancelled(
            self, event: TaskAttemptCancelled) -> None:
        """Count one attempt abandoned at its speculative deadline."""
        s = self._stragglers
        s.add("attempts_cancelled", 1)
        s.add("wasted_attempt_s", event.elapsed_s)

    def on_task_end(self, event: TaskEnd) -> None:
        """Recognize committed backup attempts as speculative wins."""
        from .speculation import SPECULATIVE_ATTEMPT_OFFSET
        if event.attempt >= SPECULATIVE_ATTEMPT_OFFSET:
            self._stragglers.add("speculative_wins", 1)

    def on_task_failure(self, event: TaskFailure) -> None:
        """Account the retry's backoff sleep."""
        if event.backoff_s > 0:
            s = self._stragglers
            s.add("backoff_sleeps", 1)
            s.add("backoff_total_s", event.backoff_s)

    def on_node_quarantined(self, event: NodeQuarantined) -> None:
        """Count a node entering quarantine."""
        self._stragglers.add("nodes_quarantined", 1)

    def on_node_readmitted(self, event: NodeReadmitted) -> None:
        """Count a probational readmission."""
        self._stragglers.add("nodes_readmitted", 1)


class MemoryEventListener(EngineListener):
    """Feeds the OOM/demotion/task-spill counters of
    :class:`~repro.engine.metrics.MemoryMetrics` (pool peaks and shuffle
    spills are accounted by the pools themselves)."""

    def __init__(self, collector: "MetricsCollector"):
        self._collector = collector

    def on_oom_kill(self, event: OOMKill) -> None:
        """Count an injected-budget OOM kill."""
        self._collector.memory.add("oom_kills", 1)

    def on_task_spill(self, event: TaskSpill) -> None:
        """Account a spill-mode task's streamed bytes."""
        self._collector.memory.add("task_spill_bytes", event.nbytes)

    def on_rdd_demoted(self, event: RDDDemoted) -> None:
        """Record the demotion in the human-readable event log."""
        self._collector.memory.record_demotion(
            f"oom: rdd {event.rdd_id} ({event.rdd_name}) "
            f"{event.from_level.value} -> {event.to_level.value}")


class HadoopAccountingListener(EngineListener):
    """Hadoop-mode accounting: MapReduce materializes every job boundary
    through HDFS, so each shuffle round is a separate job and each map
    output is written to and read back from HDFS."""

    def __init__(self, collector: "MetricsCollector"):
        self._collector = collector

    def on_job_shuffle_rounds(self, event: JobShuffleRounds) -> None:
        """One MapReduce job per shuffle round."""
        self._collector.hadoop.jobs_launched += event.rounds

    def on_stage_completed(self, event: StageCompleted) -> None:
        """Charge map-stage output as an HDFS write + read-back."""
        if not event.metrics.is_shuffle_map:
            return
        hadoop = self._collector.hadoop
        write = event.metrics.shuffle_write
        hadoop.hdfs_bytes_written += write.bytes_written
        hadoop.hdfs_bytes_read += write.bytes_written
        hadoop.hdfs_records_written += write.records_written


@dataclass
class StageSpan:
    """One stage execution on the timeline."""

    stage_id: int
    name: str
    phase: str
    num_tasks: int
    duration_s: float
    shuffle_read_bytes: int
    shuffle_write_bytes: int
    recomputation: bool


class TimelineListener(EngineListener):
    """Keeps an ordered record of stage executions — the live feed the
    cost model (and debugging) reads instead of poking scheduler
    internals."""

    def __init__(self) -> None:
        self.spans: list[StageSpan] = []
        self.task_spill_bytes = 0

    def on_stage_completed(self, event: StageCompleted) -> None:
        """Append a :class:`StageSpan` for the finished stage."""
        m = event.metrics
        self.spans.append(StageSpan(
            stage_id=m.stage_id, name=m.name, phase=m.phase,
            num_tasks=m.num_tasks, duration_s=m.duration_s,
            shuffle_read_bytes=m.shuffle_read.total_bytes,
            shuffle_write_bytes=m.shuffle_write.bytes_written,
            recomputation=event.recomputation))

    def on_task_spill(self, event: TaskSpill) -> None:
        """Accumulate spill-mode bytes streamed through disk."""
        self.task_spill_bytes += event.nbytes

    def clear(self) -> None:
        """Forget all recorded spans (e.g. between benchmark phases)."""
        self.spans.clear()
        self.task_spill_bytes = 0
