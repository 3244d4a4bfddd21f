"""The top-level ``repro`` package: its exports resolve on first use to
the same objects as in their subpackages, and importing it alone
imports none of them."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

SOURCES = {name: module for module, names in {
    "repro.engine": ("Context", "HashPartitioner", "StorageLevel"),
    "repro.core": ("CPDecomposition", "CstfCOO", "CstfQCOO"),
    "repro.baselines": ("BigtensorCP", "local_cp_als"),
    "repro.tensor": ("COOTensor", "cp_fit", "khatri_rao", "low_rank_sparse",
                     "mttkrp", "read_tns", "uniform_sparse", "write_tns",
                     "zipf_sparse"),
    "repro.datasets": ("DATASETS", "make_dataset"),
}.items() for name in names}


def fresh(program: str) -> str:
    """``program``'s output in a new interpreter importing this tree."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n"
         + program], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_export_is_its_subpackages_object():
    assert sorted(repro.__all__) == sorted([*SOURCES, "__version__"])
    for name, module in SOURCES.items():
        assert getattr(repro, name) is getattr(
            importlib.import_module(module), name)


def test_star_import_binds_every_export():
    scope: dict = {}
    exec("from repro import *", scope)
    assert set(repro.__all__) <= set(scope)
    assert all(scope[name] is getattr(repro, name) for name in repro.__all__)


def test_dir_lists_exports_and_subpackages():
    assert {*repro.__all__, "core", "engine"} <= set(dir(repro))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_a_bare_import_loads_no_subpackage_until_asked():
    out = fresh(
        "import repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
        "print(repro.engine.Context.__name__, repro.core.CstfCOO.__name__)\n")
    loaded, resolved = out.splitlines()
    assert loaded == "['repro']"
    assert resolved == "Context CstfCOO"
