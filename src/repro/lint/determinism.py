"""Determinism linter: source-level reproducibility hazards.

The engine goes to some length to make runs bit-reproducible —
site-seeded sampling via ``stable_hash``, deterministic reduce
orders, content-addressed checkpoints.  One stray ``np.random.rand()``
in a task closure undoes all of it, and does so silently: the run
*works*, it just can never be reproduced.  This pass walks Python
source (the same file set ``repro lint`` already scans statically) and
flags the constructs that feed nondeterminism into task code:

``determinism-global-rng``
    A call through the process-global RNG state (``np.random.rand``,
    ``random.random``, ...).  Global state is shared across tasks and
    draw order depends on scheduling, so results differ run to run
    even with a fixed seed.  Use a per-site generator seeded from
    ``stable_hash``.
``determinism-unseeded-rng``
    A generator constructed with no seed (``default_rng()``,
    ``random.Random()``, ``RandomState()``): OS entropy each run.
``determinism-unstable-seed``
    A generator or ``seed()`` call seeded from a value that differs
    across runs or processes: ``time.*``, builtin ``hash()`` (salted
    per process via ``PYTHONHASHSEED``), ``id()``, ``uuid4``,
    ``os.getpid``.  ``stable_hash`` from
    :mod:`repro.engine.partitioner` is the blessed replacement.
``determinism-set-iteration``
    A ``for`` loop directly over a set literal, set comprehension or
    ``set(...)`` call.  Set iteration order follows the salted string
    hash, so records feed downstream reduces in a different order each
    process — wrap the set in ``sorted(...)``.

All four are warnings: each has rare legitimate uses (true entropy for
nonce generation, order-insensitive folds), and ``--strict`` promotes
them for CI.
"""

from __future__ import annotations

import ast

from pathlib import Path
from typing import Iterable

from .closures import _dotted_name as _dotted
from .model import Finding, LintReport
from .static import iter_python_files

PASS_NAME = "determinism"

#: RNG constructors whose argument list decides seeded vs. unseeded
_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Random", "RandomState", "SeedSequence",
    "Generator", "PCG64", "Philox",
})

#: module-level functions of ``random`` that draw from global state
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
})

#: dotted prefixes that denote the NumPy global RNG namespace
_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

#: dotted calls producing values that differ across runs/processes
_UNSTABLE_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "os.getpid", "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now",
    "datetime.datetime.utcnow",
})

#: bare builtins whose value is process-dependent
_UNSTABLE_BUILTINS = frozenset({"hash", "id"})


def _seed_args(call: ast.Call) -> list[ast.expr]:
    """Positional and keyword argument expressions of an RNG call."""
    args: list[ast.expr] = list(call.args)
    args.extend(kw.value for kw in call.keywords
                if kw.value is not None)
    return args


def _unstable_in(expr: ast.expr) -> str | None:
    """Name of an unstable value source inside ``expr``, if any."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        if dotted in _UNSTABLE_BUILTINS or dotted in _UNSTABLE_SOURCES:
            return f"{dotted}()"
    return None


class _DeterminismVisitor(ast.NodeVisitor):
    """One file's determinism walk."""

    def __init__(self, path: str, report: LintReport) -> None:
        self.path = path
        self.report = report

    # ------------------------------------------------------------------
    def _flag(self, rule: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.report.add(Finding(
            rule=rule, severity="warning", message=message,
            location=f"{self.path}:{line}", pass_name=PASS_NAME))

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check_global_rng(node, dotted)
            self._check_constructor(node, dotted)
        self.generic_visit(node)

    def _check_global_rng(self, node: ast.Call, dotted: str) -> None:
        if any(dotted.startswith(p) for p in _NP_RANDOM_PREFIXES):
            tail = dotted.split(".", 2)[-1]
            if tail.split(".")[0] not in _RNG_CONSTRUCTORS \
                    and tail != "seed":
                self._flag(
                    "determinism-global-rng",
                    f"call to NumPy global RNG state ({dotted}); "
                    f"draw order depends on task scheduling — use a "
                    f"generator seeded per site via stable_hash",
                    node)
            elif tail == "seed":
                self._flag(
                    "determinism-global-rng",
                    f"seeding the NumPy *global* RNG ({dotted}) does "
                    f"not make concurrent tasks reproducible; seed a "
                    f"local default_rng per site instead",
                    node)
            return
        head, _, tail = dotted.rpartition(".")
        if head == "random" and tail in _RANDOM_MODULE_FUNCS:
            self._flag(
                "determinism-global-rng",
                f"call to the random module's global state ({dotted}); "
                f"use a random.Random(stable_hash(...)) instance",
                node)

    def _check_constructor(self, node: ast.Call, dotted: str) -> None:
        name = dotted.split(".")[-1]
        is_seed_call = dotted.split(".")[-1] == "seed" \
            and not any(dotted.startswith(p)
                        for p in _NP_RANDOM_PREFIXES)
        if name not in _RNG_CONSTRUCTORS and not is_seed_call:
            return
        args = _seed_args(node)
        if name in _RNG_CONSTRUCTORS and not args:
            self._flag(
                "determinism-unseeded-rng",
                f"{dotted}() constructed without a seed draws OS "
                f"entropy; pass an explicit seed (e.g. "
                f"stable_hash(site, index))",
                node)
            return
        for arg in args:
            source = _unstable_in(arg)
            if source is not None:
                self._flag(
                    "determinism-unstable-seed",
                    f"{dotted}(...) is seeded from {source}, which "
                    f"differs across runs/processes; derive the seed "
                    f"with stable_hash instead",
                    node)
                break

    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.expr) -> None:
        is_set = isinstance(iter_node, (ast.Set, ast.SetComp))
        if not is_set and isinstance(iter_node, ast.Call):
            callee = _dotted(iter_node.func)
            is_set = callee in ("set", "frozenset")
        if is_set:
            self._flag(
                "determinism-set-iteration",
                "iterating directly over a set: element order follows "
                "the per-process string hash salt, so downstream "
                "reduces see records in a different order each run — "
                "wrap it in sorted(...)",
                iter_node)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def scan_determinism_source(source: str, path: str = "<string>",
                            report: LintReport | None = None
                            ) -> LintReport:
    """Run the determinism rules over one Python source string."""
    if report is None:
        report = LintReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.add(Finding(
            rule="determinism-parse-error", severity="warning",
            message=f"could not parse: {exc.msg}",
            location=f"{path}:{exc.lineno or 0}",
            pass_name=PASS_NAME))
        return report
    _DeterminismVisitor(path, report).visit(tree)
    return report


def scan_determinism_paths(paths: Iterable[str | Path],
                           report: LintReport | None = None
                           ) -> LintReport:
    """Run the determinism rules over files/directories of sources."""
    if report is None:
        report = LintReport()
    for file in iter_python_files(paths):
        scan_determinism_source(file.read_text(), str(file), report)
    return report
