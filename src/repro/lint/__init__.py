"""Static + dynamic analysis for engine programs (``repro lint``).

Passes behind one report model:

- :mod:`~repro.lint.closures` — closure capture analyzer (runtime
  function objects; nondeterminism, engine-handle capture, large
  captures, unsynchronized shared-state mutation).
- :mod:`~repro.lint.lifecycle` — broadcast/persist handle leak audit at
  context teardown.
- :mod:`~repro.lint.plan` — plan-time dataflow auditor: exports each
  job's lineage as a typed plan graph (schemas, partitioners, storage
  levels) and flags schema mismatches, block churn, uncached reuse and
  redundant shuffles before any task runs.
- :mod:`~repro.lint.static` — the one source scan: each file is
  parsed once; closures passed to RDD operations get the closure
  checks, the rest of the file the determinism rules.
- :mod:`~repro.lint.determinism` — the one nondeterminism classifier
  both scopes ask, and the driver-code rules (global/unseeded/
  unstably-seeded RNGs, unordered set iteration).

Dynamic passes hang off :mod:`repro.engine.linthooks`;
:class:`~repro.lint.runner.LintSession` installs them and
:func:`~repro.lint.runner.run_program` executes a target script under
the session.  ``python -m repro lint`` is the CLI front end;
``python -m repro plan --explain`` renders the exported plan graphs.
"""

from .closures import LARGE_CAPTURE_BYTES, analyze_callable
from .lifecycle import audit_context
from .model import Finding, LintError, LintReport
from .plan import BlockSchema, PlanAuditor, PlanGraph, audit_graph
from .runner import LintSession, run_program
from .static import scan_paths, scan_source

__all__ = [
    "LARGE_CAPTURE_BYTES",
    "BlockSchema",
    "Finding",
    "LintError",
    "LintReport",
    "LintSession",
    "PlanAuditor",
    "PlanGraph",
    "analyze_callable",
    "audit_context",
    "audit_graph",
    "run_program",
    "scan_paths",
    "scan_source",
]
