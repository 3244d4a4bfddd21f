"""Lockset race detector (the Eraser algorithm, scoped to the engine).

The engine's shared structures — Accumulator, MemoryMetrics,
ShuffleManager, CacheManager, MemoryManager, Cluster — annotate every
guarded state access with :func:`repro.engine.linthooks.access`, called
from *inside* the ``with lock:`` region.  With a monitor installed,
those annotations feed the classic lockset state machine
[Savage et al., SOSP 1997]:

- ``VIRGIN``: never accessed.
- ``EXCLUSIVE(t)``: only thread ``t`` has touched it; no locking needed
  yet (initialization is single-threaded by construction).
- ``SHARED``: read by multiple threads; candidate lockset intersected
  on each access but races not yet reported (read-sharing immutable
  state is fine).
- ``SHARED_MODIFIED``: written by more than one thread; an access that
  empties the candidate lockset is a race.

Because annotations live inside locked regions, a correctly locked
engine keeps every candidate lockset non-empty and the detector stays
silent — no false positives from the driver thread's documented
unlocked reads, which are simply not annotated.  Deleting a ``with
lock:`` while leaving the annotation (the realistic regression: someone
"simplifies" the locking) makes the very next cross-thread access
report.  ``tests/lint`` holds such a deliberately broken structure as a
fixture.

One report per ``(structure type, field)`` — a race on a hot counter
would otherwise print thousands of identical lines.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from typing import Any

from repro.engine import linthooks

from .lockorder import LockOrderGraph
from .model import Finding, LintReport

PASS_NAME = "lockset"

_VIRGIN = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MODIFIED = 3

_STATE_NAMES = {_VIRGIN: "virgin", _EXCLUSIVE: "exclusive",
                _SHARED: "shared", _SHARED_MODIFIED: "shared-modified"}


@dataclass
class _Location:
    """Per-(owner, field) lockset state."""

    owner_type: str
    field_name: str
    state: int = _VIRGIN
    first_thread: int = 0
    #: candidate lockset: ids of locks held at *every* shared access
    candidate: frozenset[int] | None = None
    #: names for the candidate locks (diagnostics)
    lock_names: dict[int, str] = field(default_factory=dict)
    threads: set[int] = field(default_factory=set)
    writes: int = 0
    reads: int = 0


class LocksetMonitor:
    """Collects lock acquisitions and annotated accesses; reports races.

    Install with :meth:`start` (or via
    :class:`~repro.lint.runner.LintSession`); the engine's
    :class:`~repro.engine.linthooks.HookLock` and ``access`` hooks route
    here while installed.  Thread-safe: state transitions happen under
    an internal (plain, unmonitored) lock.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._mu = threading.Lock()
        self._threads_seen = 0
        self._locations: dict[tuple[int, str], _Location] = {}
        self._races = LintReport()
        self._reported: set[tuple[str, str]] = set()
        #: lock-acquisition-order graph fed from first acquisitions
        self.lock_order = LockOrderGraph()
        self.pooled_runs = 0
        self.max_pool_workers = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def start(self) -> "LocksetMonitor":
        """Install this monitor as the process-global lockset probe."""
        linthooks.install_lockset(self)
        return self

    def stop(self) -> None:
        """Uninstall this monitor from the engine hooks."""
        linthooks.uninstall_lockset(self)

    def __enter__(self) -> "LocksetMonitor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # LocksetProbe interface (called from engine hooks)
    # ------------------------------------------------------------------
    def _held(self) -> dict[int, list]:
        """This thread's held locks: id(lock) -> [lock, depth]."""
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = {}
        return held

    def _thread_token(self) -> int:
        """This thread's identity for the state machine: a number the
        monitor issues on the thread's first access and keeps in its
        thread-local.  ``threading.get_ident()`` will not do — CPython
        recycles the ident of a finished thread, so short threads that
        run back to back would look like one thread and their shared
        state would stay ``exclusive`` forever."""
        token = getattr(self._tls, "token", None)
        if token is None:
            with self._mu:
                self._threads_seen += 1
                token = self._tls.token = self._threads_seen
        return token

    def acquired(self, lock: Any) -> None:
        """The calling thread took ``lock`` (reentrancy counted)."""
        held = self._held()
        entry = held.get(id(lock))
        if entry is None:
            # a first (non-reentrant) acquisition is an ordering
            # observation: every already-held lock precedes this one
            self.lock_order.record(
                [getattr(item[0], "name", repr(item[0]))
                 for item in held.values()],
                getattr(lock, "name", repr(lock)))
            held[id(lock)] = [lock, 1]
        else:  # reentrant re-acquisition
            entry[1] += 1

    def released(self, lock: Any) -> None:
        """The calling thread dropped ``lock``."""
        held = self._held()
        entry = held.get(id(lock))
        if entry is None:  # acquired before the monitor installed
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del held[id(lock)]

    def pooled_run(self, backend_name: str, num_workers: int,
                   num_tasks: int) -> None:
        """Count a concurrent task batch (proof concurrency happened)."""
        with self._mu:
            self.pooled_runs += 1
            self.max_pool_workers = max(self.max_pool_workers,
                                        num_workers)

    def access(self, owner: Any, field_name: str, write: bool) -> None:
        """Run one Eraser state transition for ``owner.field_name``."""
        tid = self._thread_token()
        held = self._held()
        held_ids = frozenset(held)
        key = (id(owner), field_name)
        owner_type = type(owner).__name__
        with self._mu:
            loc = self._locations.get(key)
            if loc is None:
                loc = self._locations[key] = _Location(
                    owner_type=owner_type, field_name=field_name)
            loc.threads.add(tid)
            if write:
                loc.writes += 1
            else:
                loc.reads += 1

            if loc.state == _VIRGIN:
                loc.state = _EXCLUSIVE
                loc.first_thread = tid
                return
            if loc.state == _EXCLUSIVE:
                if tid == loc.first_thread:
                    return
                # first cross-thread access: start lockset tracking
                loc.state = _SHARED_MODIFIED if write else _SHARED
                loc.candidate = held_ids
                self._note_names(loc, held)
                self._maybe_report(loc)
                return
            # SHARED / SHARED_MODIFIED: refine the candidate set
            assert loc.candidate is not None
            loc.candidate &= held_ids
            self._note_names(loc, held)
            if write:
                loc.state = _SHARED_MODIFIED
            self._maybe_report(loc)

    # ------------------------------------------------------------------
    def _note_names(self, loc: _Location, held: dict[int, list]) -> None:
        for lock_id, (lock, _depth) in held.items():
            loc.lock_names.setdefault(
                lock_id, getattr(lock, "name", repr(lock)))

    def _maybe_report(self, loc: _Location) -> None:
        """Already holding ``self._mu``."""
        if loc.state != _SHARED_MODIFIED or loc.candidate:
            return
        if len(loc.threads) < 2:
            return
        report_key = (loc.owner_type, loc.field_name)
        if report_key in self._reported:
            return
        self._reported.add(report_key)
        self._races.add(Finding(
            rule="lockset-race", severity="error",
            message=f"{loc.owner_type}.{loc.field_name} accessed by "
                    f"{len(loc.threads)} threads with an empty "
                    f"candidate lockset ({loc.writes} writes, "
                    f"{loc.reads} reads); no single lock protects "
                    f"every access",
            location=loc.owner_type, pass_name=PASS_NAME))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def races(self) -> list[Finding]:
        """Race findings recorded so far, in discovery order."""
        with self._mu:
            return list(self._races)

    def report_into(self, report: LintReport) -> None:
        """Merge race and lock-order-cycle findings into ``report``."""
        with self._mu:
            report.extend(self._races)
        self.lock_order.report_into(report)

    def summary(self) -> str:
        """One-line human summary of monitored state and races."""
        with self._mu:
            shared = sum(1 for loc in self._locations.values()
                         if loc.state >= _SHARED)
            head = (f"{len(self._locations)} monitored locations "
                    f"({shared} cross-thread), "
                    f"{len(self._races)} race"
                    f"{'s' if len(self._races) != 1 else ''}, "
                    f"{self.pooled_runs} pooled task batches")
        return f"{head}; lock order: {self.lock_order.summary()}"

    def location_states(self) -> dict[tuple[str, str], str]:
        """(owner type, field) -> most-advanced state name seen across
        instances, for introspection tests."""
        with self._mu:
            best: dict[tuple[str, str], int] = {}
            for loc in self._locations.values():
                key = (loc.owner_type, loc.field_name)
                best[key] = max(best.get(key, _VIRGIN), loc.state)
            return {key: _STATE_NAMES[state]
                    for key, state in best.items()}
