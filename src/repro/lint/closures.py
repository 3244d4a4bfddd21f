"""Closure capture analyzer.

Every function handed to an RDD transformation runs on backend workers,
possibly many times, possibly concurrently, possibly *again* when
lineage recovery recomputes a lost partition.  That execution model
makes three closure shapes bugs:

nondeterminism
    A closure calling ``time.time()`` or unseeded ``random``/
    ``np.random`` produces different records on recomputation, silently
    corrupting lineage recovery and cache/recompute equivalence.  Every
    kind :func:`~repro.lint.determinism.classify_call` names is a
    ``closure-nondeterminism`` finding; seeded instance RNGs
    (``random.Random(seed)``, ``np.random.default_rng(s)``) are fine.
engine-handle capture
    Capturing an :class:`~repro.engine.rdd.RDD` or
    :class:`~repro.engine.context.Context` inside a task closure is the
    classic Spark serialization bug: tasks must not drive the driver.
    Capturing a destroyed :class:`~repro.engine.broadcast.Broadcast`
    fails at first use.  Capturing a *large* ndarray by value re-ships
    it with every task — that is what ``ctx.broadcast`` is for.
shared-state mutation
    A closure writing a captured dict/list/set (``d[k] = v``,
    ``xs.append(...)``) double-counts on lineage recomputation — under
    a lock or not.  The mutating-method catalog leaves out ``.add``
    (Accumulator use).

The runtime entry point is :func:`analyze_callable`: it unwraps
``functools.partial`` chains and bound methods, inspects ``__closure__``
cells and defaults for handle/size problems, recurses into captured
callables (the engine's own wrapper lambdas capture the user function —
recursion is what lets a hook on the wrapper see the user code), and
AST-checks the source when it is recoverable.  The AST machinery is
shared with :mod:`repro.lint.static`, which applies it to call sites
found by scanning files instead of live function objects.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import textwrap

from typing import Any, Callable

from .determinism import classify_call
from .model import Finding, LintReport

PASS_NAME = "closures"

#: captured ndarrays at or above this size should be broadcasts
LARGE_CAPTURE_BYTES = 1 << 20

#: ``x.<method>(...)`` calls that mutate ``x`` in place.  ``add`` is
#: deliberately absent: ``Accumulator.add`` is the supported way to
#: aggregate from tasks and must not be flagged.
_MUTATING_METHODS = {"append", "extend", "update", "setdefault",
                     "insert", "remove", "pop", "popitem", "clear"}

_BUILTIN_NAMES = frozenset(dir(builtins))


def _base_name(node: ast.AST) -> str | None:
    """The root Name of an Attribute/Subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def compute_free_names(node: ast.Lambda | ast.FunctionDef) -> set[str]:
    """Names a function node reads but does not bind — its captures.

    A static approximation of ``co_freevars`` + globals: parameter
    names, local assignments, comprehension targets, inner defs and
    imports are bound; every other loaded name is free.  Builtins are
    excluded.
    """
    bound: set[str] = set()
    args = node.args
    for a in (list(args.posonlyargs) + list(args.args)
              + list(args.kwonlyargs)):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)

    loaded: set[str] = set()
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loaded.add(sub.id)
                else:
                    bound.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                bound.add(sub.name)
            elif isinstance(sub, ast.alias):
                bound.add((sub.asname or sub.name).split(".")[0])
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                bound.add(sub.name)
    return loaded - bound - _BUILTIN_NAMES


class ClosureIssueVisitor(ast.NodeVisitor):
    """Walks one function body, reporting nondeterministic calls and
    mutations of captured state.

    ``captured_names`` scopes the mutation check (mutating a parameter
    or local is fine); the nondeterminism check is unconditional, and a
    flagged call's arguments are not classified again.
    ``known_values`` (runtime path only) maps captured names to their
    live objects so the mutation check can skip non-container values.
    """

    def __init__(self, captured_names: set[str], report: LintReport, *,
                 file: str = "", line_offset: int = 0,
                 operation: str = "", pass_name: str = PASS_NAME,
                 known_values: dict[str, Any] | None = None) -> None:
        self.captured = captured_names
        self.report = report
        self.file = file
        self.line_offset = line_offset
        self.operation = operation
        self.pass_name = pass_name
        self.known_values = known_values
        self._quiet = 0

    # ------------------------------------------------------------------
    def _loc(self, node: ast.AST) -> str:
        line = self.line_offset + getattr(node, "lineno", 1) - 1
        return f"{self.file}:{line}" if self.file else f"line {line}"

    def _ctx(self) -> str:
        return f" in closure for {self.operation}" if self.operation \
            else ""

    def _add(self, rule: str, severity: str, message: str,
             node: ast.AST) -> None:
        self.report.add(Finding(rule=rule, severity=severity,
                                message=message + self._ctx(),
                                location=self._loc(node),
                                pass_name=self.pass_name))

    def _mutation_target_is_shared(self, name: str) -> bool:
        if name not in self.captured:
            return False
        if self.known_values is not None and name in self.known_values:
            return isinstance(self.known_values[name],
                              (dict, list, set, bytearray))
        return True

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Flag nondeterministic calls and mutating-method calls."""
        found = None if self._quiet else classify_call(node)
        if found is not None:
            self._add("closure-nondeterminism", "warning", found[1], node)
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS):
            base = _base_name(node.func.value)
            if base is not None and self._mutation_target_is_shared(base):
                self._add(
                    "closure-shared-mutation", "error",
                    f"closure mutates captured {base!r} via "
                    f".{node.func.attr}(); double-counted on lineage "
                    f"recomputation", node)
        self._quiet += found is not None
        self.generic_visit(node)
        self._quiet -= found is not None

    def _check_subscript_store(self, target: ast.AST,
                               node: ast.AST) -> None:
        if not isinstance(target, ast.Subscript):
            return
        base = _base_name(target.value)
        if base is not None and self._mutation_target_is_shared(base):
            self._add(
                "closure-shared-mutation", "error",
                f"closure writes captured {base!r} by subscript; "
                f"double-counted on lineage recomputation", node)

    def visit_Assign(self, node: ast.Assign) -> None:
        """Flag subscript stores into captured shared containers."""
        for target in node.targets:
            self._check_subscript_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag augmented subscript stores into captured containers."""
        self._check_subscript_store(node.target, node)
        self.generic_visit(node)


def analyze_function_node(node: ast.Lambda | ast.FunctionDef,
                          report: LintReport, *,
                          captured_names: set[str] | None = None,
                          file: str = "", line_offset: int = 0,
                          operation: str = "",
                          pass_name: str = PASS_NAME,
                          known_values: dict[str, Any] | None = None
                          ) -> None:
    """AST-check one function node (shared by runtime + static paths)."""
    if captured_names is None:
        captured_names = compute_free_names(node)
    visitor = ClosureIssueVisitor(
        captured_names, report, file=file, line_offset=line_offset,
        operation=operation, pass_name=pass_name,
        known_values=known_values)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        visitor.visit(stmt)


# ----------------------------------------------------------------------
# runtime path
# ----------------------------------------------------------------------
def _engine_types() -> tuple[type, type, type]:
    from repro.engine.broadcast import Broadcast
    from repro.engine.context import Context
    from repro.engine.rdd import RDD
    return RDD, Context, Broadcast


def _location_of(fn: Callable) -> str:
    code = getattr(fn, "__code__", None)
    if code is not None:
        return f"{code.co_filename}:{code.co_firstlineno}"
    return getattr(fn, "__qualname__", "") or repr(fn)


def _check_captured_value(name: str, value: Any, fn: Callable,
                          operation: str, report: LintReport, *,
                          large_capture_bytes: int) -> None:
    """Handle/size checks on one captured (or default/partial) value."""
    RDD, Context, Broadcast = _engine_types()
    loc = _location_of(fn)
    ctx = f" in closure for {operation}" if operation else ""
    if isinstance(value, (RDD, Context)):
        kind = "RDD" if isinstance(value, RDD) else "Context"
        report.add(Finding(
            rule="closure-handle-capture", severity="error",
            message=f"closure {getattr(fn, '__qualname__', fn)!r} "
                    f"captures a {kind} as {name!r}{ctx}; task closures "
                    f"must not hold driver handles",
            location=loc, pass_name=PASS_NAME))
        return
    if isinstance(value, Broadcast):
        if value.destroyed:
            report.add(Finding(
                rule="closure-destroyed-broadcast", severity="error",
                message=f"closure captures destroyed broadcast "
                        f"{value.broadcast_id} as {name!r}{ctx}; "
                        f"its .value raises at first task use",
                location=loc, pass_name=PASS_NAME))
        return  # capturing a live broadcast handle is the point
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int) and nbytes >= large_capture_bytes:
        report.add(Finding(
            rule="closure-large-capture", severity="warning",
            message=f"closure captures ndarray {name!r} "
                    f"({nbytes:,} B){ctx}; re-shipped with every task — "
                    f"use ctx.broadcast() instead",
            location=loc, pass_name=PASS_NAME))


def _source_tree(fn: Callable) -> tuple[ast.AST, int] | None:
    """Parse ``fn``'s source; returns (tree, first line) or None.

    ``inspect.getsource`` of a lambda returns the whole statement it
    appears in, which may not parse standalone (continuation lines,
    dangling commas); parse failures just disable the AST checks for
    that function — the value checks above still ran.
    """
    try:
        src = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError, IndentationError):
        return None
    first_line = fn.__code__.co_firstlineno
    for candidate in (src, f"({src.strip()})", src.strip() + "\n"):
        try:
            return ast.parse(candidate), first_line
        except SyntaxError:
            continue
    return None


def _matching_function_nodes(tree: ast.AST, fn: Callable) -> list:
    """Function nodes in ``tree`` that plausibly are ``fn``: same
    parameter names, preferring same relative line."""
    code = fn.__code__
    argcount = (code.co_argcount + code.co_kwonlyargcount
                + bool(code.co_flags & inspect.CO_VARARGS)
                + bool(code.co_flags & inspect.CO_VARKEYWORDS))
    params = set(code.co_varnames[:argcount])
    nodes = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        names = {a.arg for a in (list(node.args.posonlyargs)
                                 + list(node.args.args)
                                 + list(node.args.kwonlyargs))}
        if node.args.vararg:
            names.add(node.args.vararg.arg)
        if node.args.kwarg:
            names.add(node.args.kwarg.arg)
        if names == params:
            nodes.append(node)
    return nodes


def analyze_callable(fn: Callable, operation: str = "", *,
                     report: LintReport | None = None,
                     large_capture_bytes: int = LARGE_CAPTURE_BYTES,
                     max_depth: int = 5,
                     _seen: set[int] | None = None) -> LintReport:
    """Analyze one function bound for task execution.

    Unwraps ``functools.partial`` and bound methods, checks captured
    cells and defaults, AST-checks the body, and recurses into captured
    callables (bounded by ``max_depth`` and a seen-set keyed on code
    objects, so wrapper chains and recursive closures terminate).
    """
    if report is None:
        report = LintReport()
    if _seen is None:
        _seen = set()
    if max_depth < 0:
        return report

    # -- unwrap partials ------------------------------------------------
    if isinstance(fn, functools.partial):
        for i, value in enumerate(fn.args):
            _check_captured_value(
                f"partial arg {i}", value, fn.func, operation, report,
                large_capture_bytes=large_capture_bytes)
        for key, value in fn.keywords.items():
            _check_captured_value(
                f"partial kwarg {key!r}", value, fn.func, operation,
                report, large_capture_bytes=large_capture_bytes)
        return analyze_callable(
            fn.func, operation, report=report,
            large_capture_bytes=large_capture_bytes,
            max_depth=max_depth, _seen=_seen)

    # -- unwrap bound methods -------------------------------------------
    self_obj = getattr(fn, "__self__", None)
    if self_obj is not None:
        RDD, Context, _ = _engine_types()
        if isinstance(self_obj, (RDD, Context)):
            kind = "RDD" if isinstance(self_obj, RDD) else "Context"
            report.add(Finding(
                rule="closure-handle-capture", severity="error",
                message=f"bound method "
                        f"{getattr(fn, '__qualname__', fn)!r} carries a "
                        f"{kind} as its receiver"
                        + (f" in closure for {operation}"
                           if operation else ""),
                location=_location_of(getattr(fn, "__func__", fn)),
                pass_name=PASS_NAME))
        inner = getattr(fn, "__func__", None)
        if inner is not None:
            return analyze_callable(
                inner, operation, report=report,
                large_capture_bytes=large_capture_bytes,
                max_depth=max_depth, _seen=_seen)

    code = getattr(fn, "__code__", None)
    if code is None:  # builtin / C function: nothing to inspect
        return report
    if id(code) in _seen:
        return report
    _seen.add(id(code))

    # -- captured cells and defaults ------------------------------------
    known_values: dict[str, Any] = {}
    cells = getattr(fn, "__closure__", None) or ()
    for name, cell in zip(code.co_freevars, cells):
        try:
            value = cell.cell_contents
        except ValueError:  # still-unset cell (recursive def)
            continue
        known_values[name] = value
        _check_captured_value(name, value, fn, operation, report,
                              large_capture_bytes=large_capture_bytes)
    for i, value in enumerate(getattr(fn, "__defaults__", None) or ()):
        _check_captured_value(f"default {i}", value, fn, operation,
                              report,
                              large_capture_bytes=large_capture_bytes)

    # module-level names reachable from the body are captures too: a
    # global results dict written from tasks is shared state, and a
    # global RDD/Context/Broadcast handle is as unshippable as a cell
    RDD, Context, Broadcast = _engine_types()
    globals_ns = getattr(fn, "__globals__", {})
    for name in code.co_names:
        if name not in globals_ns:
            continue
        value = globals_ns[name]
        if isinstance(value, (dict, list, set, bytearray)):
            known_values.setdefault(name, value)
        elif isinstance(value, (RDD, Context, Broadcast)):
            known_values.setdefault(name, value)
            _check_captured_value(name, value, fn, operation, report,
                                  large_capture_bytes=large_capture_bytes)

    # -- AST checks -----------------------------------------------------
    parsed = _source_tree(fn)
    if parsed is not None:
        tree, first_line = parsed
        nodes = _matching_function_nodes(tree, fn)
        captured = set(code.co_freevars) | set(known_values)
        for node in nodes:
            # the parsed fragment's line 1 is the file's first_line, so
            # file line = first_line + fragment-relative line - 1; the
            # visitor receives the file line of the function node and
            # adds body-node offsets relative to it
            analyze_function_node(
                node, report, captured_names=captured,
                file=code.co_filename, line_offset=first_line,
                operation=operation, known_values=known_values)

    # -- recurse into captured callables --------------------------------
    for value in known_values.values():
        if callable(value) and not isinstance(value, type):
            analyze_callable(
                value, operation, report=report,
                large_capture_bytes=large_capture_bytes,
                max_depth=max_depth - 1, _seen=_seen)
    return report
