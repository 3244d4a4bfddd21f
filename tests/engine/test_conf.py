"""The one configuration surface: ``repro.engine.conf``.

Table-driven: every env-backed ``EngineConf`` field goes through the
same five checks — default, environment fallback, explicit conf beats
environment, malformed environment raises the documented type with the
variable named, and the resolved conf is concrete and frozen.  AST
guards keep ``conf.py`` the only library module that reads the
environment, and ``tests/conftest.py`` the only test module.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro.engine import (BackendError, Context, EngineConf, EngineError,
                          KernelError)
from repro.engine.conf import check, resolve

class Case(NamedTuple):
    """One env-backed field's row of expectations."""

    field: str
    var: str
    default: object
    env_text: str          # a valid spelling of the variable ...
    env_value: object      # ... and what it parses to
    other: object          # a second valid value, for the conf
    malformed: str
    error: type


CASES = [
    Case("backend", "REPRO_BACKEND", "serial", " Process ", "process",
         "serial", "mpi", BackendError),
    Case("backend_workers", "REPRO_BACKEND_WORKERS",
         min(8, os.cpu_count() or 4), "3", 3, 5, "many", BackendError),
    Case("kernel", "REPRO_KERNEL", "vectorized", "RECORD", "record",
         "vectorized", "simd", KernelError),
    Case("sampler", "REPRO_SAMPLER", "exact", "lev", "lev", "exact",
         "bogus", KernelError),
    Case("sample_count", "REPRO_SAMPLE_COUNT", 1024, "33", 33, 7, "abc",
         KernelError),
    Case("clock", "REPRO_CLOCK", "monotonic", "virtual", "virtual",
         "monotonic", "sundial", EngineError),
    Case("speculation", "REPRO_SPECULATION", False, "YES", True, False,
         "ture", EngineError),
    Case("integrity", "REPRO_INTEGRITY", False, "on", True, False,
         "ture", EngineError),
    Case("task_deadline_s", "REPRO_TASK_DEADLINE_S", None, "2.5", 2.5,
         9.0, "soon", EngineError),
]
IDS = [case.field for case in CASES]
VARIABLES = [case.var for case in CASES]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Start every case from an environment with no ``REPRO_*`` set (CI
    jobs drive whole suites through these variables)."""
    for var in VARIABLES:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestEnvBackedField:
    def test_default(self, monkeypatch, case):
        assert getattr(resolve(), case.field) == case.default
        # an empty variable reads as unset
        monkeypatch.setenv(case.var, " ")
        assert getattr(resolve(), case.field) == case.default

    def test_env_fallback(self, monkeypatch, case):
        monkeypatch.setenv(case.var, case.env_text)
        value = getattr(resolve(EngineConf()), case.field)
        assert value == case.env_value
        assert type(value) is type(case.env_value)

    def test_conf_beats_env(self, monkeypatch, case):
        conf = EngineConf(**{case.field: case.other})
        monkeypatch.setenv(case.var, case.env_text)
        assert getattr(resolve(conf), case.field) == case.other
        # even a malformed variable is never consulted
        monkeypatch.setenv(case.var, case.malformed)
        assert getattr(resolve(conf), case.field) == case.other

    def test_malformed_env_is_loud_and_located(self, monkeypatch, case):
        monkeypatch.setenv(case.var, case.malformed)
        with pytest.raises(case.error) as exc:
            Context(num_nodes=2)
        message = str(exc.value)
        assert case.field in message and f"${case.var}" in message
        assert repr(case.malformed) in message

    def test_malformed_conf_names_the_conf(self, case):
        with pytest.raises(case.error,
                           match=f"EngineConf.{case.field}"):
            resolve(EngineConf(**{case.field: case.malformed}))


class TestResolvedConf:
    def test_concrete_and_frozen(self):
        with Context(num_nodes=2) as ctx:
            conf = ctx.conf
        for field in IDS:
            if field != "task_deadline_s":   # None means "no deadline"
                assert getattr(conf, field) is not None, field
        with pytest.raises(dataclasses.FrozenInstanceError):
            conf.backend = "process"

    def test_resolve_is_idempotent_and_keeps_plain_fields(
            self, monkeypatch):
        once = resolve(EngineConf(task_max_failures=7, sampler="LEV"))
        monkeypatch.setenv("REPRO_SAMPLER", "exact")
        assert resolve(once) == once
        assert once.task_max_failures == 7 and once.sampler == "lev"

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("off", False)])
    @pytest.mark.parametrize("field", ["speculation", "integrity"])
    def test_boolean_words(self, field, word, value):
        assert check(field, word, "test") is value

    @pytest.mark.parametrize("field,value", [
        ("backend_workers", 0), ("sample_count", 0),
        ("task_deadline_s", -1.0), ("task_deadline_s", "nan")])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(EngineError, match=field):
            resolve(EngineConf(**{field: value}))

    def test_shm_attach_cap(self, monkeypatch):
        """A worker's attachment cap is no setting but a constant,
        ``procpool._ATTACH_CACHE_CAP``: patched before the pool spawns,
        it reaches the worker in the handshake, and the worker then
        keeps only that many segments attached between requests — a
        segment the driver unlinks behind its cache's back is still
        readable under the stock cap and gone under a cap of 2."""
        from repro.engine import create_backend, procpool
        monkeypatch.setattr(procpool, "_SHARE_MIN_BYTES", 1)
        values = np.ones(8)
        args = ((values, np.arange(8),
                 [(np.zeros(8, dtype=np.int64), np.ones((3, 2)))]),
                {"prereduce": True})

        real_resolve_op = procpool.resolve_op
        inline = []
        monkeypatch.setattr(procpool, "resolve_op", lambda op: inline
                            .append(op) or real_resolve_op(op))

        def still_attached(cap):
            monkeypatch.setattr(procpool, "_ATTACH_CACHE_CAP", cap)
            backend = create_backend("process", 1)
            try:
                backend.offload.run("contrib", *args).resolve()
                (name, *_) = backend.registry.publish_cached(values)
                backend.registry.unpin([name])
                backend.registry.release(name)
                inline.clear()
                backend.offload.run("contrib", *args).resolve()
                return not inline   # resolved inline: missing segment
            finally:
                backend.shutdown()
        assert procpool._ATTACH_CACHE_CAP == 256
        assert still_attached(256)
        assert not still_attached(2)


def _environment_reads(path: pathlib.Path) -> list[str]:
    """``os.environ`` / ``os.getenv`` references in one source file, as
    ``"<enclosing function>:<line>"`` strings."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) \
                and node.attr in ("environ", "getenv") \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            found.append(f"{scope}:{node.lineno}")
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and {a.name for a in node.names} & {"environ", "getenv"}:
            found.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_conf_reads_the_environment():
    root = pathlib.Path(repro.__file__).parent
    offenders = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        reads = _environment_reads(path)
        if rel == "engine/conf.py":
            assert reads, "the guard no longer sees conf.py's reads"
            continue
        if rel == "engine/procpool.py":
            # the child process gets a copy of the whole environment
            reads = [r for r in reads
                     if not r.startswith("_worker_env:")]
        if reads:
            offenders[rel] = reads
    assert not offenders


def test_only_conftest_reads_the_environment_in_tests():
    """Tests take their seeds from their cases, not the environment:
    only ``tests/conftest.py`` reads variables, and only the two it
    documents (the hypothesis profile and the constrained-cache run)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    reads = {path.relative_to(root).as_posix(): _environment_reads(path)
             for path in sorted(root.rglob("*.py"))}
    assert {rel for rel, found in reads.items() if found} == {"conftest.py"}
    conftest = ast.parse((root / "conftest.py").read_text())
    names = [node.args[0].value for node in ast.walk(conftest)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "os.environ.get"]
    assert len(reads["conftest.py"]) == 2 and sorted(names) == [
        "REPRO_CACHE_CAPACITY_BYTES", "REPRO_HYPOTHESIS_PROFILE"]
