"""Instrumentation points the static-analysis layer hangs off the engine.

The :mod:`repro.lint` passes need eyes *inside* the engine — which
closures reach RDD transformations, which contexts are created and
stopped, which jobs are submitted.  Rather than monkeypatching, the
engine calls into this module at a handful of well-defined points;
every hook is a no-op (one ``is None`` check) until a lint session
installs itself, so the instrumented engine costs nothing in normal
runs.

Hook points
-----------
``context_created`` / ``context_stopping``
    :class:`~repro.engine.context.Context` lifecycle, feeding the
    lifecycle auditor (the audit must run *before* ``stop()`` clears the
    cache, or every leak would self-destruct the evidence).
``closure_created``
    Every function object handed to an RDD transformation or
    aggregation, feeding the closure capture analyzer.
``job_submitted``
    The DAG scheduler is about to run a job over an RDD.  A
    plan-auditing session exports the lineage as a typed plan graph
    *here*, before execution — normal runs pay one ``is None`` test.

Only one session may be installed at a time (lint sessions are
process-global by nature); nesting raises.
"""

from __future__ import annotations

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


#: the installed session (closure + lifecycle hooks); None = lint off
_session: LintSessionHooks | None = None


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def install_session(session: LintSessionHooks) -> None:
    """Install the process-global lint session; raises if one is active."""
    global _session
    if _session is not None:
        raise RuntimeError("a lint session is already installed")
    _session = session


def uninstall_session(session: LintSessionHooks) -> None:
    """Remove ``session`` (no-op when a different one is installed)."""
    global _session
    if _session is session:
        _session = None


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
