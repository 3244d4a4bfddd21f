"""The one source scan behind ``repro lint PATH``.

The runtime analyzer sees real function objects; this pass gets the
same coverage from source alone so CI can lint ``examples/`` and the
drivers without executing them.  Each file is read and parsed once,
and gets two scopes:

- *closure scope*: call sites of RDD operations that take user
  functions (``rdd.map(f)``, ``reduce_by_key``...) are found, each
  function argument is resolved — an inline lambda, a ``def`` in the
  same module, or a ``functools.partial`` over one — and the shared
  :class:`~repro.lint.closures.ClosureIssueVisitor` runs over its body
  with statically computed free names standing in for ``co_freevars``
  (nondeterminism + shared-state mutation).
- *driver scope*: the rest of the file gets the ``determinism-*``
  rules of :class:`~repro.lint.determinism.DeterminismVisitor`; entropy
  such as ``time.perf_counter`` stays silent there, because drivers
  time themselves.

Both scopes ask :func:`~repro.lint.determinism.classify_call`, so a
call is flagged or clean the same way in either, and reported once.

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
from .determinism import DeterminismVisitor, dotted_name
from .model import Finding, LintReport

PASS_NAME = "static"

#: RDD methods whose callable arguments run inside tasks: method name
#: -> {positional index: parameter name} of each callable parameter
RDD_OP_FUNCTION_ARGS: dict[str, dict[int, str]] = {
    "map": {0: "f"},
    "map_partitions": {0: "f"},
    "map_values": {0: "f"},
    "flat_map_values": {0: "f"},
    "block_join": {1: "fold"},
    "reduce": {0: "f"},
    "tree_aggregate": {1: "seq_op", 2: "comb_op"},
    "top": {1: "key"},
    "reduce_by_key": {0: "f"},
    "combine_by_key": {0: "create_combiner", 1: "merge_value",
                       2: "merge_combiners"},
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
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
    return out


def _resolve_callable_arg(arg: ast.AST,
                          defs: dict[str, ast.FunctionDef],
                          lambdas: dict[str, ast.Lambda]
                          ) -> ast.Lambda | ast.FunctionDef | None:
    """The function node behind one call argument, if recoverable."""
    if isinstance(arg, ast.Lambda):
        return arg
    if isinstance(arg, ast.Name):
        return defs.get(arg.id) or lambdas.get(arg.id)
    if isinstance(arg, ast.Call) and arg.args \
            and dotted_name(arg.func) in ("partial", "functools.partial"):
        return _resolve_callable_arg(arg.args[0], defs, lambdas)
    return None


def _rdd_closures(tree: ast.Module
                  ) -> dict[ast.Lambda | ast.FunctionDef, str]:
    """Function nodes passed to RDD operations -> operation name."""
    defs = _function_defs(tree)
    lambdas = _lambda_assignments(tree)
    out: dict[ast.Lambda | ast.FunctionDef, str] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        op = node.func.attr
        params = RDD_OP_FUNCTION_ARGS.get(op, {})
        keywords = {kw.arg: kw.value for kw in node.keywords}
        for index, name in params.items():
            arg = node.args[index] if index < len(node.args) \
                else keywords.get(name)
            fn_node = None if arg is None \
                else _resolve_callable_arg(arg, defs, lambdas)
            if fn_node is not None:
                out.setdefault(fn_node, op)
    return out


def scan_source(source: str, path: str = "<string>",
                report: LintReport | None = None, *,
                closure_checks: bool = True) -> LintReport:
    """Scan one file's source text: closures passed to RDD operations
    get the closure checks, the rest of the file the determinism rules.

    ``closure_checks=False`` treats the whole file as driver code, for
    a program whose closures are analysed at runtime instead.
    """
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
    closures = _rdd_closures(tree) if closure_checks else {}
    for fn_node, op in closures.items():
        # linenos are absolute in a whole-file parse; the visitor
        # computes line_offset + lineno - 1, so offset 1 is identity
        analyze_function_node(
            fn_node, report, captured_names=compute_free_names(fn_node),
            file=path, line_offset=1, operation=op, pass_name=PASS_NAME)
    DeterminismVisitor(path, report, closures).visit(tree)
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
               report: LintReport | None = None, *,
               closure_checks: bool = True) -> LintReport:
    """:func:`scan_source` over every ``.py`` file under ``paths``
    (files or directories)."""
    if report is None:
        report = LintReport()
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.add(Finding(
                rule="unreadable-file", severity="error",
                message=f"cannot read: {exc}", location=str(path),
                pass_name=PASS_NAME))
            continue
        scan_source(source, str(path), report,
                    closure_checks=closure_checks)
    return report
