"""Lint session: hook installation, program running, strict mode.

:class:`LintSession` is the dynamic half of ``repro lint``.  While
active it is installed into :mod:`repro.engine.linthooks`, so every
Context built anywhere in the process is tracked, every closure handed
to an RDD transformation flows through the capture analyzer, and —
with ``plan=True`` — every job's lineage is audited before it runs.

Audit timing matters: a program that calls ``ctx.stop()`` is audited at
the stop hook (before the cache is cleared); a program that *leaks the
whole context* is audited at session exit, where its broadcasts and
cached partitions are still observable.  Each context is audited
exactly once.

Strict mode defers the raise to session exit so one leaky context
cannot shadow findings from the rest of the run; the exception carries
every error-severity finding.  The test suite's shared fixture instead
calls :meth:`LintSession.audit_now` per test, keeping failures
attributed to the test that leaked.
"""

from __future__ import annotations

import runpy
import sys

from typing import Any, Callable

from repro.engine import linthooks

from .closures import LARGE_CAPTURE_BYTES, analyze_callable
from .lifecycle import audit_context
from .model import LintError, LintReport
from .plan import PlanAuditor


class LintSession:
    """Process-global dynamic lint collector (a context manager).

    Parameters
    ----------
    strict:
        Raise :class:`~repro.lint.model.LintError` at session exit when
        error-severity findings exist.
    plan:
        Also install a :class:`~repro.lint.plan.PlanAuditor`: every
        job the scheduler runs has its lineage exported as a typed
        plan graph and audited *before* execution (plan findings merge
        into the report at exit).  Without this flag the scheduler's
        ``job_submitted`` hook is routed nowhere and no graphs are
        built.
    keep_plans:
        Retain the exported plan graphs on ``session.plans`` (implies
        memory proportional to jobs run; used by ``repro plan
        --explain``).
    large_capture_bytes:
        Threshold for the closure analyzer's large-ndarray-capture
        warning.
    """

    def __init__(self, *, strict: bool = False, plan: bool = False, keep_plans: bool = False,
                 large_capture_bytes: int = LARGE_CAPTURE_BYTES) -> None:
        self.report = LintReport()
        self.strict = strict
        self.large_capture_bytes = large_capture_bytes
        self.plan_auditor: PlanAuditor | None = (
            PlanAuditor(keep_graphs=keep_plans)
            if plan or keep_plans else None)
        self._contexts: list[Any] = []
        self._audited: set[int] = set()
        #: code objects already analyzed (one user fn reaches the hook
        #: once per wrapping transformation; analyze once)
        self._closure_seen: set[int] = set()

    # ------------------------------------------------------------------
    # LintSessionHooks interface
    # ------------------------------------------------------------------
    def context_created(self, ctx: Any) -> None:
        """Engine hook: track ``ctx`` for the audit-at-exit sweep."""
        self._contexts.append(ctx)

    def context_stopping(self, ctx: Any) -> None:
        """Engine hook: audit ``ctx`` before its caches are cleared."""
        self._audit(ctx)

    def closure_created(self, fn: Callable, operation: str) -> None:
        """Engine hook: analyze a user callable handed to an RDD op."""
        code = getattr(fn, "__code__", None)
        if code is not None:
            if id(code) in self._closure_seen:
                return
            self._closure_seen.add(id(code))
        analyze_callable(fn, operation, report=self.report,
                         large_capture_bytes=self.large_capture_bytes)

    def job_submitted(self, rdd: Any, description: str) -> None:
        """Engine hook: audit a job's plan graph before it runs."""
        if self.plan_auditor is not None:
            self.plan_auditor.job_submitted(rdd, description)

    @property
    def plans(self) -> list[tuple[str, Any]]:
        """Retained ``(description, PlanGraph)`` pairs (``keep_plans``)."""
        if self.plan_auditor is None:
            return []
        return self.plan_auditor.graphs

    # ------------------------------------------------------------------
    def _audit(self, ctx: Any) -> None:
        if id(ctx) in self._audited:
            return
        self._audited.add(id(ctx))
        audit_context(ctx, report=self.report)

    def audit_now(self, ctx: Any) -> LintReport:
        """Audit one context immediately (for per-test teardown); the
        stop-time hook will not re-audit it."""
        fresh = audit_context(ctx)
        self._audited.add(id(ctx))
        self.report.merge(fresh)
        return fresh

    def finalize(self) -> LintReport:
        """Audit never-stopped contexts, fold in plan findings;
        idempotent."""
        for ctx in self._contexts:
            self._audit(ctx)
        if self.plan_auditor is not None:
            self.plan_auditor.report_into(self.report)
        return self.report

    # ------------------------------------------------------------------
    def __enter__(self) -> "LintSession":
        linthooks.install_session(self)
        return self

    def __exit__(self, exc_type: type | None, exc: BaseException | None,
                 tb: object) -> None:
        linthooks.uninstall_session(self)
        self.finalize()
        if self.strict and exc_type is None:
            errors = self.report.errors()
            if errors:
                raise LintError(errors)


def run_program(path: str, argv: list[str] | None = None, *,
                session: LintSession) -> LintReport:
    """Execute ``path`` as ``__main__`` under an *already entered*
    lint session (``runpy`` semantics: the program's own
    ``if __name__ == "__main__"`` block runs).

    ``SystemExit`` from the program is swallowed — a program that
    exits non-zero can still be audited; other exceptions propagate
    after the session has captured what it saw so far.
    """
    old_argv = sys.argv
    sys.argv = [path] + list(argv or [])
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = old_argv
    return session.report
