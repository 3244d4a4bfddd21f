"""One nondeterminism decision, three places: the runtime closure
analyzer, the static closure scope and the static driver scope flag or
clear each call alike, and report it once."""

from __future__ import annotations

import importlib.util
import json

import pytest

from repro.cli import main
from repro.lint import analyze_callable, scan_source

HEADER = "import os\nimport random\n\nimport numpy as np\n\n"

#: (call, findings it gives wherever it appears)
ROWS = [
    ("np.random.rand()", 1),
    ("np.random.Generator(np.random.PCG64(7))", 0),
    ("np.random.default_rng(np.random.SeedSequence(3))", 0),
    ("random.Random(os.getpid())", 1),
    ("random.seed(3)", 1),
    ("np.random.random()", 1),
]


@pytest.mark.parametrize("call, expected", ROWS)
def test_runtime_closure(call, expected, tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(HEADER + f"def task(x):\n    return {call}\n")
    spec = importlib.util.spec_from_file_location("probe", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    report = analyze_callable(module.task, "map")
    assert [f.rule for f in report] \
        == ["closure-nondeterminism"] * expected


@pytest.mark.parametrize("call, expected", ROWS)
def test_static_closure(call, expected):
    report = scan_source(HEADER + f"out = rdd.map(lambda x: {call})\n")
    assert [f.rule for f in report] \
        == ["closure-nondeterminism"] * expected


@pytest.mark.parametrize("call, expected", ROWS)
def test_static_driver_code(call, expected):
    report = scan_source(HEADER + f"value = {call}\n")
    assert len(report) == expected
    assert all(f.rule.startswith("determinism-") for f in report)


def test_plan_flag_does_not_change_path_findings(tmp_path, capsys):
    """``--plan`` audits a run; it adds nothing to a PATH scan."""
    path = tmp_path / "probe.py"
    path.write_text(HEADER + "".join(
        f"a{i} = rdd.map(lambda x: {call})\nb{i} = {call}\n"
        for i, (call, _) in enumerate(ROWS)))
    main(["lint", "--json", str(path)])
    plain = json.loads(capsys.readouterr().out)
    main(["lint", "--json", "--plan", str(path)])
    assert json.loads(capsys.readouterr().out) == plain
    assert len(plain) == 2 * sum(expected for _, expected in ROWS)
