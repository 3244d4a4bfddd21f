"""Lifecycle auditor: resource handles that outlive their usefulness.

The engine hands out three kinds of long-lived handles — broadcasts
(``ctx.broadcast``), persisted RDDs (``rdd.persist``/``cache``), and the
cached partitions behind them.  Each pins memory until its owner calls
``destroy()`` / ``unpersist()`` or the ``Context.release_scope()`` it
was created in ends.  The drivers run inside such a scope; this pass
covers everything else — user programs, tests, code outside a scope —
by reading the same ledger the scope releases from: at context stop (or
lint-session teardown for contexts never stopped at all), anything
still live is reported.

The audit *must* run before ``Context.stop`` clears the cache and
broadcast list — ``stop()`` calls :func:`repro.engine.linthooks.\
context_stopping` first for exactly this reason.  In strict mode the
session turns the findings into a raised :class:`~repro.lint.model.\
LintError`, which is the teardown invariant the test suite's shared
``ctx`` fixture enforces.
"""

from __future__ import annotations

from typing import Any

from .model import Finding, LintReport

PASS_NAME = "lifecycle"


def _ctx_label(ctx: Any) -> str:
    return f"Context(nodes={ctx.cluster.num_nodes})"


def audit_context(ctx: Any, *,
                  report: LintReport | None = None) -> LintReport:
    """Report every live broadcast and persisted-RDD cache on ``ctx``.

    Safe to call on an already-stopped context (both registries are
    empty by then — which is why the hooks call it *before* stop).
    """
    if report is None:
        report = LintReport()
    label = _ctx_label(ctx)

    for bc in ctx.live_broadcasts():
        report.add(Finding(
            rule="leaked-broadcast", severity="error",
            message=f"broadcast {bc.broadcast_id} "
                    f"({bc.size_bytes:,} B) was never destroy()ed; "
                    f"it pins replicated memory on every node",
            location=label, pass_name=PASS_NAME))

    for rdd_id, name, nbytes in ctx.live_persisted():
        report.add(Finding(
            rule="leaked-rdd-cache", severity="error",
            message=f"RDD {rdd_id} ({name}) is still persisted with "
                    f"{nbytes:,} B cached; unpersist() it when the "
                    f"result no longer depends on it",
            location=label, pass_name=PASS_NAME))

    # shared-memory segments (process backend) are owned by the backend
    # and legitimately live until its shutdown, which runs *after* the
    # context_stopping hook — so only an already-stopped context can
    # have leaked them
    backend = getattr(ctx, "backend", None)
    if getattr(ctx, "_stopped", False) and \
            hasattr(backend, "live_segments"):
        for seg in backend.live_segments():
            report.add(Finding(
                rule="leaked-shm-segment", severity="error",
                message=f"shared-memory segment {seg!r} survived "
                        f"backend shutdown; every segment must be "
                        f"unlinked when the context stops",
                location=label, pass_name=PASS_NAME))
    return report
