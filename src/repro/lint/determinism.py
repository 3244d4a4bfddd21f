"""Determinism rules: the one decision of which call is nondeterministic.

The engine goes to some length to make runs bit-reproducible —
site-seeded sampling via ``stable_hash``, deterministic reduce
orders, content-addressed checkpoints — and lineage recovery relies on
it: a recomputed partition must hold the same records, and a sampled
draw must replay exactly.  One stray ``np.random.rand()`` undoes all
of it, and does so silently: the run *works*, it just can never be
reproduced.

:func:`classify_call` is the one catalog.  It sorts a call into one of
four kinds:

``global-rng``
    A call through the process-global RNG state (``np.random.rand``,
    ``random.random``, ``random.seed``, ``np.random.seed``, ...).
    Global state is shared across tasks and draw order depends on
    scheduling, so results differ run to run even with a fixed seed.
``unseeded-rng``
    A generator constructed (or reseeded) with no seed
    (``default_rng()``, ``random.Random()``, ``rng.seed()``): OS
    entropy each run.
``unstable-seed``
    A generator or ``seed()`` call seeded from an entropy call.
``entropy``
    A value that differs across runs or processes: a clock, the pid,
    ``uuid``, ``os.urandom``, ``datetime``, ``secrets.*``,
    ``random.SystemRandom``, builtin ``hash()`` (salted per process via
    ``PYTHONHASHSEED``) or ``id()``.

Inside a closure handed to an RDD operation every kind is a
``closure-nondeterminism`` finding (:mod:`~repro.lint.closures`).
Everywhere else :class:`DeterminismVisitor` reports the first three as
``determinism-<kind>`` and stays silent on entropy, because drivers
time themselves; it also reports ``determinism-set-iteration``, a
``for`` loop directly over a set literal, set comprehension or
``set(...)`` call, whose order follows the salted string hash.
``stable_hash`` from :mod:`repro.engine.partitioner` is the blessed
seed source, ``sorted(...)`` the fix for set order.

All rules are warnings: each has rare legitimate uses, and
``--strict`` promotes them for CI.  A flagged call's arguments are not
classified again, so ``random.Random(os.getpid())`` is one finding.
"""

from __future__ import annotations

import ast

from typing import Collection

from .model import Finding, LintReport

PASS_NAME = "determinism"

#: calls whose argument list decides seeded vs. unseeded
_SEEDED_CALLS = frozenset({
    "default_rng", "Random", "RandomState", "SeedSequence",
    "Generator", "PCG64", "Philox", "seed",
})

#: module-level functions of ``random`` that use its global state
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
    "seed",
})

#: dotted prefixes that denote the NumPy global RNG namespace
_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

#: dotted calls producing values that differ across runs/processes
_ENTROPY = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "os.getpid", "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "random.SystemRandom", "hash", "id",
})


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_entropy(dotted: str) -> bool:
    return dotted in _ENTROPY or dotted.startswith("secrets.")


def _entropy_in(expr: ast.expr) -> str | None:
    """Dotted name of an entropy call inside ``expr``, if any."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None and _is_entropy(dotted):
                return dotted
    return None


def classify_call(call: ast.Call) -> tuple[str, str] | None:
    """``(kind, message)`` when ``call`` is nondeterministic, else None.

    ``kind`` is ``global-rng``, ``unseeded-rng``, ``unstable-seed`` or
    ``entropy`` (see the module docstring).
    """
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    if _is_entropy(dotted):
        return ("entropy", f"{dotted}() differs across runs and "
                           f"processes")
    name = dotted.rpartition(".")[2]
    if dotted.startswith(_NP_RANDOM_PREFIXES):
        is_global = name == "seed" or name not in _SEEDED_CALLS
    else:
        is_global = dotted == f"random.{name}" \
            and name in _RANDOM_MODULE_FUNCS
    if is_global:
        return ("global-rng",
                f"{dotted}() uses the process-global RNG state, which "
                f"concurrent tasks share in scheduling order — use a "
                f"local generator seeded per site via stable_hash")
    if name not in _SEEDED_CALLS:
        return None
    args = [*call.args, *(kw.value for kw in call.keywords)]
    if not args:
        return ("unseeded-rng",
                f"{dotted}() without a seed draws OS entropy; pass an "
                f"explicit seed (e.g. stable_hash(site, index))")
    for arg in args:
        source = _entropy_in(arg)
        if source is not None:
            return ("unstable-seed",
                    f"{dotted}(...) is seeded from {source}(), which "
                    f"differs across runs and processes; derive the "
                    f"seed with stable_hash instead")
    return None


class DeterminismVisitor(ast.NodeVisitor):
    """One file's ``determinism-*`` walk outside ``closures``.

    ``closures`` are the function nodes the closure checks already
    cover: calls inside them are not classified here, so each call is
    reported once.  Set iteration is checked everywhere.
    """

    def __init__(self, path: str, report: LintReport,
                 closures: Collection[ast.AST] = ()) -> None:
        self.path = path
        self.report = report
        self.closures = closures
        self._quiet = 0

    def _flag(self, rule: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.report.add(Finding(
            rule=rule, severity="warning", message=message,
            location=f"{self.path}:{line}", pass_name=PASS_NAME))

    def _visit_quietly(self, node: ast.AST, quiet: bool) -> None:
        self._quiet += quiet
        self.generic_visit(node)
        self._quiet -= quiet

    def visit_Call(self, node: ast.Call) -> None:
        """Report a nondeterministic call, unless it is entropy."""
        found = None if self._quiet else classify_call(node)
        if found is not None and found[0] != "entropy":
            self._flag(f"determinism-{found[0]}", found[1], node)
        self._visit_quietly(node, found is not None)

    def visit_function(self, node: ast.AST) -> None:
        """Skip call checks inside a closure the closure checks cover."""
        self._visit_quietly(node, node in self.closures)

    visit_Lambda = visit_FunctionDef = visit_AsyncFunctionDef = \
        visit_function

    def visit_For(self, node: ast.For) -> None:
        """Report a loop directly over a set."""
        it = node.iter
        if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and dotted_name(it.func) in ("set", "frozenset")):
            self._flag(
                "determinism-set-iteration",
                "iterating directly over a set: element order follows "
                "the per-process string hash salt, so downstream "
                "reduces see records in a different order each run — "
                "wrap it in sorted(...)", it)
        self.generic_visit(node)
