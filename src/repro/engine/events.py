"""Engine event bus — the analogue of Spark's ``LiveListenerBus``.

The layered execution stack (``DAGScheduler`` -> ``TaskScheduler`` ->
``ExecutorBackend``) does not call cross-cutting services directly.
Instead, schedulers *post* typed events and a context's two services
*subscribe* to the bus: the
:class:`~repro.engine.metrics.MetricsCollector`, which turns events into
the job records and the fault, straggler, memory, integrity and
Hadoop-mode HDFS counters, and the
:class:`~repro.engine.faults.FaultInjector`.  That keeps the scheduler
layers free of instrumentation, like Spark's ``SparkListener`` API.

Differences from Spark's bus, both deliberate:

* dispatch is **synchronous** and in subscription order (Spark's bus is
  an async queue).  Determinism matters more than throughput in an
  in-process simulation, and some listeners are *active* — the fault
  injector may raise from ``on_task_start`` to kill a task attempt;
* listener exceptions **propagate** to the poster (Spark logs and drops
  them).  That is what turns the injector's subscription into a fault
  path.

One engine thread (see :mod:`repro.engine.backends`): events are
posted only by engine code on that thread, so listeners may assume
single-threaded execution (and may post further events while handling
one — e.g. a node kill fired from ``on_task_start`` posts
``NodeLost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import StageMetrics
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
    """Synchronous, ordered event dispatch (see module docstring for
    how it deliberately differs from Spark's bus)."""

    def __init__(self) -> None:
        self._listeners: list[EngineListener] = []

    def subscribe(self, listener: EngineListener) -> None:
        """Append ``listener``; dispatch order is subscription order.
        Active listeners that may raise (the fault injector) belong
        last, so passive accounting listeners always observe the
        event first."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: EngineListener) -> None:
        """Remove ``listener``; raises ``ValueError`` if absent."""
        self._listeners.remove(listener)

    def post(self, event) -> None:
        """Dispatch ``event`` to every listener, in order.  Listener
        exceptions propagate to the caller."""
        for listener in list(self._listeners):
            getattr(listener, event.handler)(event)
