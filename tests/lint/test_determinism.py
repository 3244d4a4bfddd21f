"""Determinism rule tests: every rule fires on its seeded source shape
in driver code and stays silent on the stable-hash idiom the engine
uses."""

from __future__ import annotations

from repro.lint import LintReport, scan_source


def scan(source: str) -> list:
    report = LintReport()
    scan_source(source, "snippet.py", report)
    return list(report.sorted_findings())


def rule_set(source: str) -> set[str]:
    return {f.rule for f in scan(source)}


# ----------------------------------------------------------------------
# determinism-global-rng
# ----------------------------------------------------------------------
def test_np_random_module_call_is_flagged():
    assert rule_set("import numpy as np\nx = np.random.random()\n") \
        == {"determinism-global-rng"}


def test_np_random_seed_is_flagged():
    findings = scan("import numpy as np\nnp.random.seed(7)\n")
    assert [f.rule for f in findings] == ["determinism-global-rng"]
    assert "seed" in findings[0].message


def test_random_module_function_is_flagged():
    assert "determinism-global-rng" in rule_set(
        "import random\nx = random.shuffle(items)\n")


def test_seeded_generator_draw_is_clean():
    assert rule_set(
        "import numpy as np\n"
        "rng = np.random.default_rng(42)\n"
        "x = rng.random()\n") == set()


# ----------------------------------------------------------------------
# determinism-unseeded-rng
# ----------------------------------------------------------------------
def test_unseeded_default_rng_is_flagged():
    assert rule_set(
        "import numpy as np\nrng = np.random.default_rng()\n") \
        == {"determinism-unseeded-rng"}


def test_unseeded_random_random_is_flagged():
    assert rule_set("import random\nrng = random.Random()\n") \
        == {"determinism-unseeded-rng"}


def test_stable_hash_seed_is_clean():
    assert rule_set(
        "import numpy as np\n"
        "from repro.engine.partitioner import stable_hash\n"
        "rng = np.random.default_rng(stable_hash(('site', 3)))\n") \
        == set()


# ----------------------------------------------------------------------
# determinism-unstable-seed
# ----------------------------------------------------------------------
def test_time_seed_is_flagged():
    assert rule_set(
        "import numpy as np, time\n"
        "rng = np.random.default_rng(int(time.time()))\n") \
        == {"determinism-unstable-seed"}


def test_pid_seed_is_flagged():
    assert rule_set(
        "import random, os\nrng = random.Random(os.getpid())\n") \
        == {"determinism-unstable-seed"}


def test_builtin_hash_seed_is_flagged():
    # str hashes are salted per process: hash() is not stable_hash()
    assert rule_set(
        "import numpy as np\n"
        "rng = np.random.default_rng(hash('site'))\n") \
        == {"determinism-unstable-seed"}


def test_reseeding_instance_with_urandom_is_flagged():
    assert rule_set(
        "import random, os\n"
        "rng = random.Random(0)\n"
        "rng.seed(os.urandom(8))\n") == {"determinism-unstable-seed"}


# ----------------------------------------------------------------------
# determinism-set-iteration
# ----------------------------------------------------------------------
def test_iterating_set_literal_is_flagged():
    assert rule_set("for x in {1, 2, 3}:\n    pass\n") \
        == {"determinism-set-iteration"}


def test_iterating_set_call_is_flagged():
    assert rule_set("for x in set(items):\n    pass\n") \
        == {"determinism-set-iteration"}


def test_iterating_sorted_set_is_clean():
    assert rule_set("for x in sorted(set(items)):\n    pass\n") \
        == set()


# ----------------------------------------------------------------------
# parse errors + severities
# ----------------------------------------------------------------------
def test_syntax_error_is_reported_not_raised():
    findings = scan("def broken(:\n")
    assert [f.rule for f in findings] == ["syntax-error"]


def test_all_rules_are_warnings():
    source = (
        "import numpy as np, random, time\n"
        "np.random.seed(1)\n"
        "r = random.Random()\n"
        "s = np.random.default_rng(int(time.time()))\n"
        "for x in set(items):\n    pass\n")
    findings = scan(source)
    assert len(findings) == 4
    assert {f.severity for f in findings} == {"warning"}
    # findings come out in deterministic (line-sorted) order
    assert [f.location for f in findings] \
        == sorted(f.location for f in findings)


def test_findings_carry_file_and_line_locations():
    [finding] = scan("import numpy as np\nx = np.random.random()\n")
    assert finding.location == "snippet.py:2"
