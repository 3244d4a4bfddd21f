"""Instrumentation points the static-analysis layer hangs off the engine.

The :mod:`repro.lint` passes need eyes *inside* the engine — which
closures reach RDD transformations, which contexts are created and
stopped, which shared structures are touched under which locks.  Rather
than monkeypatching, the engine calls into this module at a handful of
well-defined points; every hook is a no-op (one ``is None`` check) until
a lint session installs itself, so the instrumented engine costs nothing
in normal runs.

Hook points
-----------
``context_created`` / ``context_stopping``
    :class:`~repro.engine.context.Context` lifecycle, feeding the
    lifecycle auditor (the audit must run *before* ``stop()`` clears the
    cache, or every leak would self-destruct the evidence).
``closure_created``
    Every function object handed to an RDD transformation or
    aggregation, feeding the closure capture analyzer.
``access``
    A read or write of a shared engine structure's state, recorded from
    *inside* the structure's locked region, feeding the lockset race
    detector.  The call sites double as documentation of the engine's
    locking discipline: removing a ``with lock`` around one of them is
    exactly the regression the detector exists to catch.
``make_lock`` / ``make_rlock``
    Lock constructors for the shared structures.  The returned
    :class:`HookLock` notifies the installed lockset monitor on
    acquire/release so the monitor knows the candidate lockset of every
    access.  Every constructed lock name is also recorded in a process
    inventory (:func:`lock_inventory`) so the lock-order auditor can
    report coverage: which engine locks exist vs. which were ever seen
    acquired under the monitor.
``job_submitted``
    The DAG scheduler is about to run a job over an RDD.  A
    plan-auditing session exports the lineage as a typed plan graph
    *here*, before execution — normal runs pay one ``is None`` test.

Only one session may be installed at a time (lint sessions are
process-global by nature); nesting raises.
"""

from __future__ import annotations

import threading

from typing import Any, Callable, Protocol


class LintSessionHooks(Protocol):  # pragma: no cover - structural type
    """What an installed lint session must provide."""

    def context_created(self, ctx: Any) -> None:
        """A ``Context`` was constructed."""
        ...

    def context_stopping(self, ctx: Any) -> None:
        """A ``Context`` is about to release its caches."""
        ...

    def closure_created(self, fn: Callable, operation: str) -> None:
        """A user callable was handed to RDD ``operation``."""
        ...

    def job_submitted(self, rdd: Any, description: str) -> None:
        """The scheduler is about to run a job over ``rdd``."""
        ...


class LocksetProbe(Protocol):  # pragma: no cover - structural type
    """What an installed lockset monitor must provide."""

    def acquired(self, lock: "HookLock") -> None:
        """The calling thread took ``lock``."""
        ...

    def released(self, lock: "HookLock") -> None:
        """The calling thread dropped ``lock``."""
        ...

    def access(self, owner: Any, field: str, write: bool) -> None:
        """``owner.field`` was read or written by the calling thread."""
        ...

    def pooled_run(self, backend_name: str, num_workers: int,
                   num_tasks: int) -> None:
        """A concurrent backend is about to run a task batch."""
        ...


#: the installed session (closure + lifecycle hooks); None = lint off
_session: LintSessionHooks | None = None
#: the installed lockset monitor; None = race detection off
_lockset: LocksetProbe | None = None
_install_lock = threading.Lock()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def install_session(session: LintSessionHooks) -> None:
    """Install the process-global lint session; raises if one is active."""
    global _session
    with _install_lock:
        if _session is not None:
            raise RuntimeError("a lint session is already installed")
        _session = session


def uninstall_session(session: LintSessionHooks) -> None:
    """Remove ``session`` (no-op when a different one is installed)."""
    global _session
    with _install_lock:
        if _session is session:
            _session = None


def install_lockset(monitor: LocksetProbe) -> None:
    """Install the process-global lockset monitor; raises if active."""
    global _lockset
    with _install_lock:
        if _lockset is not None:
            raise RuntimeError("a lockset monitor is already installed")
        _lockset = monitor


def uninstall_lockset(monitor: LocksetProbe) -> None:
    """Remove ``monitor`` (no-op when a different one is installed)."""
    global _lockset
    with _install_lock:
        if _lockset is monitor:
            _lockset = None


def session_active() -> bool:
    """Whether a lint session is currently installed."""
    return _session is not None


# ----------------------------------------------------------------------
# engine-side call points
# ----------------------------------------------------------------------
def context_created(ctx: Any) -> None:
    """Notify the installed session (if any) of a new ``Context``."""
    s = _session
    if s is not None:
        s.context_created(ctx)


def context_stopping(ctx: Any) -> None:
    """Notify the installed session that ``ctx`` is shutting down.

    Called by ``Context.stop()`` *before* caches are cleared so the
    session can audit live handles."""
    s = _session
    if s is not None:
        s.context_stopping(ctx)


def closure_created(fn: Callable, operation: str) -> None:
    """Hand a user callable to the installed session for analysis."""
    s = _session
    if s is not None:
        s.closure_created(fn, operation)


def job_submitted(rdd: Any, description: str) -> None:
    """Notify the installed session that a job is about to run over
    ``rdd``.  Called by ``DAGScheduler.run_job`` before building stages;
    older sessions without the hook are skipped."""
    s = _session
    if s is not None:
        hook = getattr(s, "job_submitted", None)
        if hook is not None:
            hook(rdd, description)


def access(owner: Any, field: str, write: bool) -> None:
    """Record one shared-state access.  MUST be called from inside the
    locked region protecting the state, so the monitor sees the lock in
    the access's candidate lockset."""
    m = _lockset
    if m is not None:
        m.access(owner, field, write)


def pooled_run(backend_name: str, num_workers: int,
               num_tasks: int) -> None:
    """A concurrent backend is about to run a task batch.  Lets the
    monitor distinguish 'no races found' from 'no concurrency ever
    happened' when rendering its report."""
    m = _lockset
    if m is not None:
        m.pooled_run(backend_name, num_workers, num_tasks)


# ----------------------------------------------------------------------
# monitored locks
# ----------------------------------------------------------------------
class HookLock:
    """A thin proxy over ``threading.Lock``/``RLock`` that reports
    acquisitions to the installed lockset monitor.

    The proxy always wraps (structures are long-lived, the monitor may
    be installed after they are built), but the per-acquisition overhead
    with no monitor installed is a single global load and ``is None``
    test.
    """

    __slots__ = ("_lock", "name")

    def __init__(self, lock: Any, name: str):
        self._lock = lock
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the wrapped lock, notifying the monitor on success."""
        got = self._lock.acquire(blocking, timeout)
        if got:
            m = _lockset
            if m is not None:
                m.acquired(self)
        return got

    def release(self) -> None:
        """Notify the monitor, then release the wrapped lock."""
        m = _lockset
        if m is not None:
            m.released(self)
        self._lock.release()

    def __enter__(self) -> "HookLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"HookLock({self.name})"


#: every HookLock name ever constructed in this process, with a count
#: of live constructions — the engine's lock inventory.  The lock-order
#: auditor reports coverage against this registry so "no cycles found"
#: can be distinguished from "most locks never monitored".
_lock_inventory: dict[str, int] = {}


def _register_lock(name: str) -> None:
    with _install_lock:
        _lock_inventory[name] = _lock_inventory.get(name, 0) + 1


def lock_inventory() -> dict[str, int]:
    """Snapshot of lock name -> construction count for this process."""
    with _install_lock:
        return dict(_lock_inventory)


def make_lock(name: str) -> HookLock:
    """A monitored non-reentrant lock for a shared engine structure."""
    _register_lock(name)
    return HookLock(threading.Lock(), name)


def make_rlock(name: str) -> HookLock:
    """A monitored reentrant lock for a shared engine structure."""
    _register_lock(name)
    return HookLock(threading.RLock(), name)
