"""Engine time source: real (monotonic) and virtual clocks.

The straggler-resilience layer is all about *time* — injected delays,
task deadlines, retry backoff, quarantine expiry.  Every one of those
paths reads and sleeps through a :class:`Clock` owned by the
:class:`~repro.engine.context.Context` instead of calling
``time.perf_counter`` / ``time.sleep`` directly, so tests and
benchmarks can substitute a :class:`VirtualClock` and simulate minutes
of injected latency without sleeping wall-clock time.

``MonotonicClock``
    The default.  ``time()`` is ``time.perf_counter`` and ``sleep()``
    really sleeps — production semantics.
``VirtualClock``
    ``time()`` reads a process-local virtual counter and ``sleep()``
    advances it and returns immediately.  This makes injected-delay
    runs fully deterministic on every backend: a task that "sleeps" ten
    virtual seconds costs microseconds of wall time but still trips
    deadlines, backoff accounting and quarantine expiry exactly as a
    real slow task would.  Every sleeper runs on the one engine thread
    (task bodies sent to worker processes never sleep), so the order
    of advances is a function of the inputs and the backend's worker
    count.

Which one a context gets is ``ctx.conf.clock`` (resolved in
:mod:`repro.engine.conf`).
"""

from __future__ import annotations

import time

from abc import ABC, abstractmethod

from .errors import EngineError


class Clock(ABC):
    """Time source the engine's time-domain features read and sleep on."""

    #: canonical clock name (what ``Context.clock.name`` reports)
    name: str = "abstract"

    @abstractmethod
    def time(self) -> float:
        """Current time in seconds (monotonic, arbitrary epoch)."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Advance ``seconds`` into the future (really sleeping, or
        advancing virtual time).  Negative/zero amounts are no-ops."""


class MonotonicClock(Clock):
    """Real time: ``time.perf_counter`` + ``time.sleep``."""

    name = "monotonic"

    def time(self) -> float:
        """Wall-clock ``time.perf_counter()``."""
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        """Really sleep ``seconds`` of wall-clock time."""
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Simulated time: ``sleep`` advances a counter and returns.

    The counter is shared by every task of the owning context, all on
    one engine thread (see :mod:`repro.engine.backends`), so a task's
    ``sleep`` is seen by the tasks after it at once.
    """

    name = "virtual"

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def time(self) -> float:
        """Current virtual time."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` (no waiting)."""
        if seconds <= 0:
            return
        self._now += seconds

    def advance(self, seconds: float) -> float:
        """Explicitly advance virtual time (test hook); returns the new
        time.  Unlike :meth:`sleep`, negative amounts raise."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self._now += seconds
        return self._now


def create_clock(name: str) -> Clock:
    """Instantiate the clock with the canonical name ``name``.  Unknown
    names raise :class:`~repro.engine.errors.EngineError`."""
    if name == "monotonic":
        return MonotonicClock()
    if name == "virtual":
        return VirtualClock()
    raise EngineError(
        f"unknown clock {name!r}; expected one of monotonic, virtual")
