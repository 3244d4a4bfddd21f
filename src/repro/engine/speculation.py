"""Cooperative cancellation, speculative failover and retry backoff.

The primitives behind the task scheduler's straggler defences:

:class:`CancellationToken`
    Carried by every task attempt; one with no deadline checks nothing.
    Checkpoints inside the attempt (injected delay/hang sleeps, the
    per-record guard) call :meth:`CancellationToken.check`, which
    raises :class:`~repro.engine.errors.CancelledAttempt` when the
    attempt passed its *speculative* deadline (the scheduler then runs
    a backup attempt on another node, inline), and
    :class:`~repro.engine.errors.TaskTimedOutError` when the attempt
    overran its hard deadline.
:class:`StageRuntimes`
    Per-stage runtime quantile tracker feeding the adaptive speculative
    deadline (``speculative_multiplier`` x the stage's median task
    runtime).
:func:`backoff_delay`
    Seeded-jitter exponential backoff, unified for every retry class
    (task faults, OOM kills, timeouts).

One engine thread (see :mod:`repro.engine.backends`): nothing here
locks anything.
"""

from __future__ import annotations

from statistics import median
from typing import Any, TYPE_CHECKING

from .errors import CancelledAttempt, EngineError, TaskTimedOutError
from .faults import site_rng

if TYPE_CHECKING:  # pragma: no cover
    from .clock import Clock

#: attempt-number offset of backup (speculative) attempts.  Keeps the
#: backup's seeded fault-injection sites disjoint from every regular
#: retry of the same task, and makes speculative wins recognizable in
#: ``TaskEnd`` events (``attempt >= SPECULATIVE_ATTEMPT_OFFSET``).
SPECULATIVE_ATTEMPT_OFFSET = 1000

#: upper bound on a single cooperative sleep chunk (an injected hang
#: sleeps chunk by chunk until a deadline ends it)
_MAX_SLEEP_CHUNK_S = 0.05


class CancellationToken:
    """Deadlines for one task attempt.

    The token is *cooperative*: nothing preempts the attempt — it
    observes its deadlines only at its checkpoints
    (:meth:`check`, called per record and inside injected sleeps).
    Sleeps are chunked so that the chunk boundary lands exactly on the
    next deadline, which makes elapsed-time-at-expiry deterministic
    under the virtual clock.
    """

    def __init__(self, clock: "Clock", partition: int,
                 stage_id: int | None = None,
                 hard_deadline_s: float | None = None,
                 spec_deadline_s: float | None = None):
        self.clock = clock
        self.partition = partition
        self.stage_id = stage_id
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
        """Checkpoint: raise if past a deadline, the hard one first."""
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
        than ``_MAX_SLEEP_CHUNK_S``."""
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
        every chunk boundary, so deadlines interrupt the wait (one
        plain ``clock.sleep`` when no deadline can)."""
        if not self.can_expire:
            self.clock.sleep(seconds)
            return
        end = self.clock.time() + seconds
        while True:
            self.check()
            remaining = end - self.clock.time()
            if remaining <= 0:
                return
            self.clock.sleep(self._next_chunk(remaining))

    def hang(self) -> None:
        """Cooperative hang: sleep forever, terminable only by a
        deadline.  Refuses to start when nothing could
        ever end it (a misconfigured plan must not deadlock the run)."""
        if not self.can_expire:
            raise EngineError(
                "injected hang cannot terminate: the attempt has no "
                "task deadline and speculation is off (set "
                "EngineConf.task_deadline_s or enable speculation)")
        while True:
            self.check()
            self.clock.sleep(self._next_chunk(_MAX_SLEEP_CHUNK_S))


def guard_iterator(records: Any, token: CancellationToken) -> Any:
    """Wrap a task's record stream with a per-record checkpoint (the
    cancellation token's hook into real compute).  A token that cannot
    expire returns the stream untouched — no per-record overhead."""
    if not token.can_expire:
        return records

    def guarded():
        for record in records:
            token.check()
            yield record
    return guarded()


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
        self._samples: dict[int, list[float]] = {}

    def record(self, stage_id: int, duration_s: float) -> None:
        """Record one successful attempt's runtime."""
        window = self._samples.setdefault(stage_id, [])
        window.append(duration_s)
        if len(window) > self.WINDOW:
            del window[0]

    def median(self, stage_id: int,
               min_samples: int = 1) -> float | None:
        """Median recorded runtime of ``stage_id``, or ``None`` when
        fewer than ``min_samples`` tasks have completed."""
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
    from the fault injector's :func:`~repro.engine.faults.site_rng` at
    site ``("backoff", *site)``, so the delay — like
    every other injected decision — is independent of execution order.
    ``site`` ends with the attempt number, which drives the exponent.
    """
    if base_s <= 0:
        return 0.0
    attempt = site[-1]
    delay = min(max_s, base_s * (2 ** attempt))
    if jitter > 0:
        rng = site_rng(seed, "backoff", *site)
        delay *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return delay
