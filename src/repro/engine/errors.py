"""Exception types raised by the dataflow engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-level failures."""


class JobExecutionError(EngineError):
    """A job failed while executing one of its stages.

    Carries the failing stage id and partition so that test harnesses can
    assert on *where* a failure-injection fault surfaced.  Raised by the
    scheduler when a task exhausts ``conf.task_max_failures`` (wrapping
    the terminal :class:`TaskFailedError` as ``__cause__``) or when a
    stage exhausts ``conf.stage_max_failures`` fetch-failure recoveries.
    """

    def __init__(self, message: str, stage_id: int | None = None,
                 partition: int | None = None):
        super().__init__(message)
        self.stage_id = stage_id
        self.partition = partition


class TaskFailedError(EngineError):
    """A single task exhausted its retry budget."""

    def __init__(self, message: str, partition: int, attempts: int,
                 stage_id: int | None = None):
        super().__init__(message)
        self.partition = partition
        self.attempts = attempts
        self.stage_id = stage_id


class FetchFailedError(EngineError):
    """A reduce task could not fetch one or more shuffle map outputs.

    Raised when map outputs are missing (their writer node died and its
    blocks were invalidated) or when the fault plan injects a transient
    fetch failure.  The scheduler reacts by resubmitting the parent
    shuffle-map stage from lineage, not by retrying the task in place —
    retrying cannot conjure data that is gone.
    """

    def __init__(self, message: str, shuffle_id: int,
                 reduce_partition: int,
                 missing_map_partitions: tuple[int, ...] = ()):
        super().__init__(message)
        self.shuffle_id = shuffle_id
        self.reduce_partition = reduce_partition
        self.missing_map_partitions = tuple(missing_map_partitions)


class CorruptedDataError(EngineError):
    """A checksum verification failed on a serialized blob.

    Raised when integrity mode (``EngineConf.integrity``) detects that a
    shuffle block, broadcast payload, spilled run, cached blob or
    checkpoint shard no longer matches the CRC-32 recorded when it was
    sealed.  Retryable: every raise site has a lineage-recovery path —
    broadcast and spill corruption heal through the task retry loop
    (the retry re-reads the pristine driver copy / recomputes the run),
    cache corruption is treated as a miss and recomputed, shuffle block
    corruption is the :class:`CorruptedBlockError` subclass below, and
    checkpoint corruption falls back to the newest good checkpoint.

    ``kind`` names the corrupted blob class (``"shuffle"``,
    ``"broadcast"``, ``"cache"``, ``"spill"``, ``"checkpoint"``) and
    ``site`` identifies the blob within it.
    """

    def __init__(self, message: str, kind: str = "block",
                 site: tuple = ()):
        EngineError.__init__(self, message)
        self.kind = kind
        self.site = tuple(site)


class CorruptedBlockError(CorruptedDataError, FetchFailedError):
    """A shuffle block failed checksum verification on fetch.

    Subclasses :class:`FetchFailedError` deliberately: a corrupt block
    is healed exactly like a missing one — the reader drops the writer's
    map output and the scheduler resubmits the parent map stage from
    lineage.  The distinct type lets the task scheduler additionally
    charge the corruption to the writer ``node``'s health score so a
    node that keeps serving bad bytes ends up quarantined (PR 6).
    """

    def __init__(self, message: str, shuffle_id: int,
                 reduce_partition: int,
                 missing_map_partitions: tuple[int, ...] = (),
                 node: int = 0):
        CorruptedDataError.__init__(
            self, message, kind="shuffle",
            site=(shuffle_id, reduce_partition))
        self.shuffle_id = shuffle_id
        self.reduce_partition = reduce_partition
        self.missing_map_partitions = tuple(missing_map_partitions)
        self.node = node


class NumericalIntegrityError(EngineError):
    """The numerical watchdog found a non-finite value (NaN/Inf) in an
    MTTKRP result, a factor matrix or the fit, with integrity mode on.

    Not retryable: a non-finite value in otherwise-deterministic
    arithmetic means the inputs or the algorithm state are bad, and
    recomputing the same lineage would reproduce it.  The error carries
    the ALS ``stage`` (``"mttkrp"``, ``"normalize"``, ``"fit"``,
    ``"collect"``), the tensor ``mode`` and the ``iteration`` so the
    failure is diagnosable without a debugger.
    """

    def __init__(self, message: str, stage: str, mode: int | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.mode = mode
        self.iteration = iteration


class OutOfMemoryError(EngineError):
    """A task's working set exceeded its node's injected memory budget
    (:attr:`~repro.engine.faults.FaultPlan.oom_node_budgets`).

    Retryable: the scheduler reacts by demoting the storage level of the
    persisted RDDs feeding the task (RAW -> SER -> DISK) — or, when
    nothing is left to demote, by re-running the task in spill mode —
    and retrying with per-attempt backoff.
    """

    def __init__(self, message: str, node: int, requested_bytes: int,
                 budget_bytes: int):
        super().__init__(message)
        self.node = node
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes


class TaskTimedOutError(EngineError):
    """A task attempt overran its hard deadline
    (``EngineConf.task_deadline_s``, or the speculative safety cap).

    Retryable: the scheduler counts it as a straggle against the node,
    backs off and re-runs the task.  Only cooperative checkpoints
    observe deadlines — injected delay/hang sleeps and the per-record
    guard — so a deadline can only fire where the task can be safely
    abandoned.
    """

    def __init__(self, message: str, partition: int, elapsed_s: float,
                 deadline_s: float, stage_id: int | None = None):
        super().__init__(message)
        self.partition = partition
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        self.stage_id = stage_id


class CancelledAttempt(BaseException):
    """Cooperative-cancellation signal raised from a task attempt's
    checkpoints (see
    :class:`~repro.engine.speculation.CancellationToken`).

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): a
    cancelled attempt is control flow, not a task fault, and must never
    be swallowed by the task retry loop's ``except Exception`` — that
    is exactly the satellite fix in ``TaskScheduler._run_task``.

    ``kind`` says why the attempt ended: ``"speculation-deadline"``,
    the attempt overran its speculative deadline and the scheduler
    fails over to a backup attempt on another node, inline.
    """

    def __init__(self, message: str, kind: str = "cancelled"):
        super().__init__(message)
        self.kind = kind


class BackendError(EngineError):
    """An executor backend could not be resolved or configured (unknown
    ``EngineConf.backend`` / ``REPRO_BACKEND`` name, bad worker count)."""


class KernelError(EngineError):
    """A compute kernel could not be resolved (unknown
    ``EngineConf.kernel`` / ``REPRO_KERNEL`` name)."""


class CacheEvictedError(EngineError):
    """A cached partition was requested after eviction and the RDD's
    lineage had been truncated, making recomputation impossible."""


class ContextStoppedError(EngineError):
    """An operation was attempted on a stopped :class:`~repro.engine.Context`."""
