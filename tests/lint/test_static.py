"""Static scanner tests: findings from source alone."""

from __future__ import annotations

import inspect

from pathlib import Path

from repro.cli import main
from repro.engine import RDD
from repro.lint import scan_paths, scan_source
from repro.lint.static import RDD_OP_FUNCTION_ARGS

FIXTURES = Path(__file__).parent / "fixtures"


def rules(report):
    return {f.rule for f in report}


def test_inline_lambda_nondeterminism():
    report = scan_source(
        "import random\n"
        "out = rdd.map(lambda x: x + random.random()).collect()\n",
        "prog.py")
    [finding] = list(report)
    assert finding.rule == "closure-nondeterminism"
    assert finding.location == "prog.py:2"


def test_named_function_reference_resolved():
    report = scan_source(
        "import time\n"
        "def stamp(x):\n"
        "    return (x, time.time())\n"
        "rdd.map(stamp)\n",
        "prog.py")
    assert rules(report) == {"closure-nondeterminism"}
    assert list(report)[0].location == "prog.py:3"


def test_partial_argument_resolved():
    report = scan_source(
        "import functools, random\n"
        "def noisy(scale, x):\n"
        "    return scale * random.random() * x\n"
        "rdd.map(functools.partial(noisy, 2.0))\n",
        "prog.py")
    assert rules(report) == {"closure-nondeterminism"}


def test_shared_dict_write_in_lambda_arg():
    report = scan_source(
        "counts = {}\n"
        "def tally(x):\n"
        "    counts[x] = counts.get(x, 0) + 1\n"
        "    return x\n"
        "rdd.map(tally).collect()\n",
        "prog.py")
    assert rules(report) == {"closure-shared-mutation"}
    assert list(report)[0].severity == "error"


def test_lock_guarded_write_flagged():
    report = scan_source(
        "import threading\n"
        "counts = {}\n"
        "mu = threading.Lock()\n"
        "def tally(x):\n"
        "    with mu:\n"
        "        counts[x] = counts.get(x, 0) + 1\n"
        "    return x\n"
        "rdd.map(tally)\n",
        "prog.py")
    assert rules(report) == {"closure-shared-mutation"}


def test_local_mutation_clean():
    report = scan_source(
        "def histogram(it):\n"
        "    h = {}\n"
        "    for x in it:\n"
        "        h[x] = h.get(x, 0) + 1\n"
        "    return h.items()\n"
        "rdd.map_partitions(histogram)\n",
        "prog.py")
    assert not report


def test_nondriver_code_not_scanned():
    """time.time at module level (driver-side timing) is fine; only
    functions handed to RDD ops are closure-checked."""
    report = scan_source(
        "import time\n"
        "t0 = time.time()\n"
        "rdd.map(lambda x: x + 1).collect()\n"
        "print(time.time() - t0)\n",
        "prog.py")
    assert not report


def test_aggregator_positions_checked():
    report = scan_source(
        "import random\n"
        "rdd.combine_by_key(lambda v: [v],\n"
        "                   lambda acc, v: acc + [v],\n"
        "                   lambda a, b: a + b + [random.random()])\n",
        "prog.py")
    assert rules(report) == {"closure-nondeterminism"}


def test_catalog_names_only_rdd_methods():
    """The table holds exactly the ``Callable``-annotated parameters of
    ``RDD``'s public methods, by position and name: a stale entry would
    scan calls no RDD can make, a missing one would skip a closure."""
    expected = {}
    for name, method in inspect.getmembers(RDD, inspect.isfunction):
        params = list(inspect.signature(method).parameters.values())[1:]
        callables = {i: p.name for i, p in enumerate(params)
                     if "Callable" in str(p.annotation)}
        if callables and not name.startswith("_"):
            expected[name] = callables
    assert RDD_OP_FUNCTION_ARGS == expected


def test_block_join_fold_checked():
    report = scan_source(
        "seen = []\n"
        "def fold(block, rows):\n"
        "    seen.append(len(block))\n"
        "    return rows\n"
        "keyed.block_join(factor, fold, 0)\n",
        "prog.py")
    assert rules(report) == {"closure-shared-mutation"}


def test_keyword_callable_arguments_checked():
    report = scan_source(
        "import random\n"
        "rdd.top(3, key=lambda r: random.random())\n"
        "rdd.combine_by_key(f, f, merge_combiners=lambda rs: {\n"
        "    random.choice(rs)})\n",
        "prog.py")
    assert [f.location for f in report.sorted_findings()] \
        == ["prog.py:2", "prog.py:4"]


def test_syntax_error_reported_not_raised():
    report = scan_source("def broken(:\n", "bad.py")
    assert rules(report) == {"syntax-error"}


def test_non_utf8_file_reported_not_raised(tmp_path, capsys):
    latin1 = tmp_path / "latin1.py"
    latin1.write_bytes(b"name = '\xe9'\n")
    [finding] = list(scan_paths([latin1]))
    assert finding.rule == "unreadable-file"
    assert finding.location == str(latin1)
    assert main(["lint", str(latin1)]) == 1
    assert "unreadable-file" in capsys.readouterr().out


def test_scan_paths_directory(tmp_path):
    (tmp_path / "a.py").write_text(
        "import random\nrdd.map(lambda x: random.random())\n")
    (tmp_path / "b.py").write_text("rdd.map(lambda x: x + 1)\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    report = scan_paths([tmp_path])
    assert len(report) == 1
    assert str(tmp_path / "a.py") in list(report)[0].location


def test_fixture_program_static_findings():
    report = scan_paths([FIXTURES / "leaky_racy.py"])
    assert rules(report) == {"closure-nondeterminism",
                             "closure-shared-mutation"}


def test_clean_fixture_static_clean():
    assert not scan_paths([FIXTURES / "clean_program.py"])


def test_repo_sources_and_examples_are_clean():
    """Self-hosting invariant: the reproduction's own code base scans
    clean — any new finding is either a real bug or a rule regression."""
    root = Path(__file__).resolve().parents[2]
    report = scan_paths([root / "src", root / "examples"])
    assert not report, report.render_text()
