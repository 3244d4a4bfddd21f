"""Cooperative cancellation, speculative failover and retry backoff.

The primitives behind the task scheduler's straggler defences:

:class:`CancellationToken`
    Carried by every task attempt when time-domain features are active.
    Checkpoints inside the attempt (injected delay/hang sleeps, the
    per-record guard) call :meth:`CancellationToken.check`, which
    raises :class:`~repro.engine.errors.CancelledAttempt` when the
    attempt's task set was aborted or the attempt passed its
    *speculative* deadline (the scheduler then runs a backup attempt
    on another node, inline), and
    :class:`~repro.engine.errors.TaskTimedOutError` when the attempt
    overran its hard deadline.  Only the attempt's own thread touches
    its token.
:class:`CancellationGroup`
    One per task set, and the one flag shared across threads.  The
    process backend cancels the group when any task fails terminally,
    so in-flight sibling attempts abort at their next checkpoint
    instead of running to completion.
:class:`StageRuntimes`
    Per-stage runtime quantile tracker feeding the adaptive speculative
    deadline (``speculative_multiplier`` x the stage's median task
    runtime).
:func:`backoff_delay`
    Seeded-jitter exponential backoff, unified for every retry class
    (task faults, OOM kills, timeouts).

All shared state here is guarded by monitored
:class:`~repro.engine.linthooks.HookLock` proxies so the lockset race
detector covers the speculation machinery.  The one deliberate
exception: the group's cancelled *flag* is read lock-free on the
checkpoint fast path (a single attribute load, atomic in CPython — the
volatile pattern) and mutated under the lock; the annotated accesses
all happen inside locked regions.
"""

from __future__ import annotations

import random

from statistics import median
from typing import Any, TYPE_CHECKING

from . import linthooks
from .errors import CancelledAttempt, EngineError, TaskTimedOutError
from .partitioner import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from .clock import Clock
    from .metrics import StageMetrics

#: attempt-number offset of backup (speculative) attempts.  Keeps the
#: backup's seeded fault-injection sites disjoint from every regular
#: retry of the same task, and makes speculative wins recognizable in
#: ``TaskEnd`` events (``attempt >= SPECULATIVE_ATTEMPT_OFFSET``).
SPECULATIVE_ATTEMPT_OFFSET = 1000

#: upper bound on a single cooperative sleep chunk: keeps real-clock
#: sleepers responsive to their task set's cancellation
_MAX_SLEEP_CHUNK_S = 0.05


class CancellationGroup:
    """Shared cancel flag for one task set's attempts."""

    __slots__ = ("_lock", "_cancelled", "_reason")

    def __init__(self) -> None:
        self._lock = linthooks.make_lock("CancellationGroup")
        self._cancelled = False
        self._reason = ""

    @property
    def cancelled(self) -> bool:
        """Lock-free read of the cancel flag (volatile pattern)."""
        return self._cancelled

    def cancel(self, reason: str) -> None:
        """Cancel every attempt of the set (first reason wins)."""
        with self._lock:
            linthooks.access(self, "state", write=True)
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def reason(self) -> str:
        """Why the set was cancelled (empty when it was not)."""
        with self._lock:
            linthooks.access(self, "state", write=False)
            return self._reason


class CancellationToken:
    """Cooperative cancellation + deadlines for one task attempt.

    The token is *cooperative*: nothing preempts the attempt — it
    observes cancellation and deadlines only at its checkpoints
    (:meth:`check`, called per record and inside injected sleeps).
    Sleeps are chunked so that the chunk boundary lands exactly on the
    next deadline, which makes elapsed-time-at-expiry deterministic
    under the virtual clock.
    """

    def __init__(self, clock: "Clock", partition: int,
                 stage_id: int | None = None,
                 group: CancellationGroup | None = None,
                 hard_deadline_s: float | None = None,
                 spec_deadline_s: float | None = None):
        self.clock = clock
        self.partition = partition
        self.stage_id = stage_id
        self.group = group
        self.hard_deadline_s = hard_deadline_s
        self.spec_deadline_s = spec_deadline_s
        self.started_s = clock.time()

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the attempt started, on the attempt's clock."""
        return self.clock.time() - self.started_s

    @property
    def can_expire(self) -> bool:
        """Whether any deadline can terminate a blocked attempt."""
        return (self.hard_deadline_s is not None
                or self.spec_deadline_s is not None)

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Checkpoint: raise if cancelled or past a deadline.

        Order matters: the task-set group first (a sibling's terminal
        failure must not surface as a timeout), then the hard
        deadline, then the speculative deadline.
        """
        group = self.group
        if group is not None and group.cancelled:
            raise CancelledAttempt(
                f"task set cancelled: {group.reason}",
                kind="task-set-cancelled")
        if not self.can_expire:
            return
        elapsed = self.elapsed()
        hard = self.hard_deadline_s
        if hard is not None and elapsed >= hard:
            raise TaskTimedOutError(
                f"task attempt for partition {self.partition} exceeded "
                f"its deadline ({elapsed:.3f}s >= {hard:.3f}s)",
                partition=self.partition, elapsed_s=elapsed,
                deadline_s=hard, stage_id=self.stage_id)
        spec = self.spec_deadline_s
        if spec is not None and elapsed >= spec:
            raise CancelledAttempt(
                f"task attempt for partition {self.partition} passed its "
                f"speculative deadline ({elapsed:.3f}s >= {spec:.3f}s)",
                kind="speculation-deadline")

    # ------------------------------------------------------------------
    def _next_chunk(self, remaining: float) -> float:
        """Length of the next sleep chunk: never sleep past the next
        unexpired deadline (so expiry times are exact), never longer
        than ``_MAX_SLEEP_CHUNK_S`` (so cancellation stays responsive)."""
        chunk = min(remaining, _MAX_SLEEP_CHUNK_S)
        now = self.clock.time()
        for deadline in (self.spec_deadline_s, self.hard_deadline_s):
            if deadline is None:
                continue
            gap = (self.started_s + deadline) - now
            if 0 < gap < chunk:
                chunk = gap
        return chunk

    def sleep(self, seconds: float) -> None:
        """Cooperative sleep: like ``clock.sleep`` but checkpointing at
        every chunk boundary, so cancellation and deadlines interrupt
        the wait."""
        end = self.clock.time() + seconds
        while True:
            self.check()
            remaining = end - self.clock.time()
            if remaining <= 0:
                return
            self.clock.sleep(self._next_chunk(remaining))

    def hang(self) -> None:
        """Cooperative hang: sleep forever, terminable only by a
        deadline or cancellation.  Refuses to start when nothing could
        ever end it (a misconfigured plan must not deadlock the run)."""
        if not self.can_expire:
            raise EngineError(
                "injected hang cannot terminate: the attempt has no "
                "task deadline and speculation is off (set "
                "EngineConf.task_deadline_s or enable speculation)")
        while True:
            self.check()
            self.clock.sleep(self._next_chunk(_MAX_SLEEP_CHUNK_S))


def guard_iterator(records: Any,
                   token: CancellationToken | None) -> Any:
    """Wrap a task's record stream with a per-record checkpoint (the
    cancellation token's hook into real compute).  With no token the
    stream is returned untouched — the zero-overhead default path."""
    if token is None:
        return records

    def guarded():
        for record in records:
            token.check()
            yield record
    return guarded()


# ----------------------------------------------------------------------
# attempt outcome
# ----------------------------------------------------------------------
class AttemptOutcome:
    """One attempt's computed (not yet committed) result."""

    __slots__ = ("records", "scratch", "node", "attempt")

    def __init__(self, records: list, scratch: "StageMetrics", node: int,
                 attempt: int):
        self.records = records
        self.scratch = scratch
        self.node = node
        self.attempt = attempt


# ----------------------------------------------------------------------
# stage runtime quantiles
# ----------------------------------------------------------------------
class StageRuntimes:
    """Successful task runtimes per stage, for adaptive deadlines.

    Fed by the task scheduler on every successful attempt; read when a
    new attempt starts to derive its speculative deadline.  Bounded per
    stage (old samples are dropped FIFO) — the median of recent tasks
    is what Spark's speculation quantile tracks too.
    """

    #: samples kept per stage
    WINDOW = 64

    def __init__(self) -> None:
        self._lock = linthooks.make_lock("StageRuntimes")
        self._samples: dict[int, list[float]] = {}

    def record(self, stage_id: int, duration_s: float) -> None:
        """Record one successful attempt's runtime."""
        with self._lock:
            linthooks.access(self, "samples", write=True)
            window = self._samples.setdefault(stage_id, [])
            window.append(duration_s)
            if len(window) > self.WINDOW:
                del window[0]

    def median(self, stage_id: int,
               min_samples: int = 1) -> float | None:
        """Median recorded runtime of ``stage_id``, or ``None`` when
        fewer than ``min_samples`` tasks have completed."""
        with self._lock:
            linthooks.access(self, "samples", write=False)
            window = self._samples.get(stage_id, ())
            if len(window) < max(1, min_samples):
                return None
            return median(window)


# ----------------------------------------------------------------------
# retry backoff
# ----------------------------------------------------------------------
def backoff_delay(base_s: float, max_s: float, jitter: float,
                  seed: int, site: tuple) -> float:
    """Exponential backoff with seeded jitter for one retry decision.

    ``base_s * 2**attempt`` capped at ``max_s``, then scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1 + jitter]``
    using the same site-derived RNG scheme as the fault injector
    (``stable_hash((seed, "backoff") + site)``), so the delay — like
    every other injected decision — is independent of execution order.
    ``site`` ends with the attempt number, which drives the exponent.
    """
    if base_s <= 0:
        return 0.0
    attempt = site[-1]
    delay = min(max_s, base_s * (2 ** attempt))
    if jitter > 0:
        rng = random.Random(stable_hash((seed, "backoff") + tuple(site)))
        delay *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return delay
