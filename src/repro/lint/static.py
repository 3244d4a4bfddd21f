"""Static dataflow scan: closure checks without running the program.

The runtime analyzer sees real function objects; this pass gets the
same coverage from source alone so CI can lint ``examples/`` and the
drivers without executing them.  It parses each file, finds call sites
of RDD operations that take user functions (``rdd.map(f)``,
``reduce_by_key``...), resolves each function argument — an inline
lambda, a ``def`` in the same module, or a ``functools.partial`` over
one — and runs the shared
:class:`~repro.lint.closures.ClosureIssueVisitor` over its body with
statically computed free names standing in for ``co_freevars``.

Two scopes per file:

- *closure scope*: bodies of functions passed to RDD ops get the full
  check set (nondeterminism + shared-state mutation).
- *module scope*: everything else only gets structural checks that are
  unconditionally wrong (nothing today — kept deliberately empty so
  driver code that legitimately calls ``time.perf_counter`` for metrics
  is never flagged).

The operation-name catalog is derived from the RDD API; ``self``-style
receivers are not tracked, so a method named ``map`` on an unrelated
class would be scanned too — acceptable for a lint pass whose findings
are reviewed, and zero-cost on this codebase where the names are
engine-specific.
"""

from __future__ import annotations

import ast

from pathlib import Path
from typing import Iterable

from .closures import analyze_function_node, compute_free_names
from .model import Finding, LintReport

PASS_NAME = "static"

#: RDD methods whose positional callable arguments run inside tasks:
#: method name -> indices of callable-taking positional parameters
RDD_OP_FUNCTION_ARGS: dict[str, tuple[int, ...]] = {
    "map": (0,),
    "map_partitions": (0,),
    "map_values": (0,),
    "flat_map_values": (0,),
    "reduce": (0,),
    "tree_aggregate": (1, 2),
    "reduce_by_key": (0,),
    "combine_by_key": (0, 1, 2),
}


def _lambda_assignments(tree: ast.Module) -> dict[str, ast.Lambda]:
    """Module-level ``name = lambda ...`` bindings."""
    out: dict[str, ast.Lambda] = {}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Lambda)):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.value
    return out


def _function_defs(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    """Every ``def`` in the file keyed by name (innermost wins — good
    enough for resolving ``rdd.map(helper)`` references)."""
    out: dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
    return out


def _resolve_callable_arg(arg: ast.AST,
                          defs: dict[str, ast.FunctionDef],
                          lambdas: dict[str, ast.Lambda]) -> ast.AST | None:
    """The function node behind one call argument, if recoverable."""
    if isinstance(arg, ast.Lambda):
        return arg
    if isinstance(arg, ast.Name):
        return defs.get(arg.id) or lambdas.get(arg.id)
    if isinstance(arg, ast.Call):
        # functools.partial(f, ...) -> analyze f
        dotted = None
        if isinstance(arg.func, ast.Name):
            dotted = arg.func.id
        elif isinstance(arg.func, ast.Attribute):
            dotted = arg.func.attr
        if dotted == "partial" and arg.args:
            return _resolve_callable_arg(arg.args[0], defs, lambdas)
    return None


def scan_source(source: str, path: str = "<string>",
                report: LintReport | None = None) -> LintReport:
    """Scan one file's source text."""
    if report is None:
        report = LintReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.add(Finding(
            rule="syntax-error", severity="error",
            message=f"cannot parse: {exc.msg}",
            location=f"{path}:{exc.lineno or 1}", pass_name=PASS_NAME))
        return report

    defs = _function_defs(tree)
    lambdas = _lambda_assignments(tree)
    analyzed: set[int] = set()

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        op = node.func.attr
        arg_indices = RDD_OP_FUNCTION_ARGS.get(op)
        if arg_indices is None:
            continue
        for index in arg_indices:
            if index >= len(node.args):
                continue
            fn_node = _resolve_callable_arg(node.args[index], defs,
                                            lambdas)
            if fn_node is None or id(fn_node) in analyzed:
                continue
            analyzed.add(id(fn_node))
            # linenos are absolute in a whole-file parse; the visitor
            # computes line_offset + lineno - 1, so offset 1 is identity
            analyze_function_node(
                fn_node, report,
                captured_names=compute_free_names(fn_node),
                file=path, line_offset=1,
                operation=op, pass_name=PASS_NAME)
    return report


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def scan_paths(paths: Iterable[str | Path],
               report: LintReport | None = None) -> LintReport:
    """Scan every ``.py`` file under ``paths`` (files or directories)."""
    if report is None:
        report = LintReport()
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.add(Finding(
                rule="unreadable-file", severity="error",
                message=f"cannot read: {exc}", location=str(path),
                pass_name=PASS_NAME))
            continue
        scan_source(source, str(path), report)
    return report
