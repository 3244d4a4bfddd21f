"""Closure capture analyzer unit tests.

Covers the callable shapes the analyzer must see through — plain
lambdas, nested closures, ``functools.partial`` chains, bound methods —
and both finding families (nondeterminism, captures/mutations), plus
the negative space: seeded RNGs, accumulators, lock-guarded mutation,
and broadcast handles must never be flagged.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from repro.lint import LARGE_CAPTURE_BYTES, analyze_callable


def rules(report):
    return {f.rule for f in report}


# ----------------------------------------------------------------------
# nondeterminism
# ----------------------------------------------------------------------
def test_unseeded_module_random_in_lambda():
    report = analyze_callable(lambda x: x + random.random(), "map")
    assert rules(report) == {"closure-nondeterminism"}
    [finding] = list(report)
    assert finding.severity == "warning"
    assert "random.random" in finding.message
    assert "map" in finding.message


def test_time_call_flagged():
    import time

    def stamp(x):
        return (x, time.time())

    report = analyze_callable(stamp, "map")
    assert rules(report) == {"closure-nondeterminism"}


def test_legacy_numpy_global_rng_flagged():
    def noisy(x):
        return x + np.random.rand()

    report = analyze_callable(noisy, "map")
    assert rules(report) == {"closure-nondeterminism"}


def test_argless_default_rng_flagged_seeded_not():
    def unseeded(x):
        return np.random.default_rng().random() + x

    def seeded(x):
        return np.random.default_rng(7).random() + x

    assert rules(analyze_callable(unseeded)) == {
        "closure-nondeterminism"}
    assert not analyze_callable(seeded)


def test_seeded_instance_rng_clean():
    rng = random.Random(13)

    def jitter(x):
        return x + rng.random()

    assert not analyze_callable(jitter, "map")


def test_argless_random_instance_flagged():
    def fresh(x):
        r = random.Random()
        return r.random() + x

    assert rules(analyze_callable(fresh)) == {"closure-nondeterminism"}


# ----------------------------------------------------------------------
# capture shapes: nesting, partials, bound methods
# ----------------------------------------------------------------------
def test_nested_closure_is_reached():
    """The engine hooks see wrapper functions that merely *capture* the
    user function; recursion into captured callables must surface the
    inner problem."""

    def user_fn(x):
        return x * random.random()

    def wrapper(split, it):  # what MapPartitionsRDD actually stores
        return (user_fn(x) for x in it)

    report = analyze_callable(wrapper, "mapPartitions")
    assert "closure-nondeterminism" in rules(report)


def test_doubly_nested_closure():
    def inner(x):
        return random.gauss(0, 1) + x

    def middle(x):
        return inner(x)

    def outer(x):
        return middle(x)

    assert "closure-nondeterminism" in rules(analyze_callable(outer))


def test_functools_partial_unwrapped():
    def scaled_noise(scale, x):
        return scale * random.random() * x

    report = analyze_callable(functools.partial(scaled_noise, 2.0),
                              "map")
    assert "closure-nondeterminism" in rules(report)


def test_partial_kwarg_large_array_flagged():
    def apply(x, table=None):
        return x

    big = np.zeros(2 * LARGE_CAPTURE_BYTES // 8)
    report = analyze_callable(functools.partial(apply, table=big))
    assert "closure-large-capture" in rules(report)


def test_bound_method_body_analyzed():
    class Sampler:
        def draw(self, x):
            return x + random.random()

    report = analyze_callable(Sampler().draw, "map")
    assert "closure-nondeterminism" in rules(report)


def test_bound_method_on_rdd_flagged(ctx):
    rdd = ctx.parallelize([1, 2, 3], 2)
    report = analyze_callable(rdd.count, "map")
    assert "closure-handle-capture" in rules(report)


# ----------------------------------------------------------------------
# handle and size captures
# ----------------------------------------------------------------------
def test_captured_rdd_flagged(ctx):
    rdd = ctx.parallelize([1, 2, 3], 2)

    def bad(x):
        return rdd.count() + x

    report = analyze_callable(bad, "map")
    assert "closure-handle-capture" in rules(report)
    [finding] = report.by_rule("closure-handle-capture")
    assert finding.severity == "error"


def test_captured_context_flagged(ctx):
    def bad(x):
        return ctx.parallelize([x], 1).collect()

    assert "closure-handle-capture" in rules(analyze_callable(bad))


def test_live_broadcast_capture_clean(ctx):
    bc = ctx.broadcast({1: "a"})

    def good(x):
        return bc.value.get(x)

    assert not analyze_callable(good, "map")
    bc.destroy()


def test_destroyed_broadcast_capture_flagged(ctx):
    bc = ctx.broadcast({1: "a"})
    bc.destroy()

    def bad(x):
        return bc.value.get(x)

    assert "closure-destroyed-broadcast" in rules(analyze_callable(bad))


def test_large_ndarray_capture_flagged_small_clean():
    big = np.zeros(2 * LARGE_CAPTURE_BYTES // 8)
    small = np.zeros(16)

    def uses_big(x):
        return big[x]

    def uses_small(x):
        return small[x]

    assert rules(analyze_callable(uses_big)) == {
        "closure-large-capture"}
    assert not analyze_callable(uses_small)


def test_large_capture_threshold_configurable():
    arr = np.zeros(64)

    def f(x):
        return arr[x]

    assert analyze_callable(f, large_capture_bytes=64)
    assert not analyze_callable(f, large_capture_bytes=1 << 30)


# ----------------------------------------------------------------------
# shared-state mutation
# ----------------------------------------------------------------------
def test_captured_dict_subscript_write_flagged():
    seen: dict[int, int] = {}

    def tally(x):
        seen[x] = seen.get(x, 0) + 1
        return x

    report = analyze_callable(tally, "map")
    assert "closure-shared-mutation" in rules(report)
    [finding] = report.by_rule("closure-shared-mutation")
    assert finding.severity == "error"


def test_captured_list_append_flagged():
    out: list[int] = []

    def collect(x):
        out.append(x)
        return x

    assert "closure-shared-mutation" in rules(
        analyze_callable(collect, "foreach"))


def test_lock_guarded_mutation_flagged():
    """A lock does not stop a recomputed partition counting twice."""
    import threading
    seen: dict[int, int] = {}
    lock = threading.Lock()

    def tally(x):
        with lock:
            seen[x] = seen.get(x, 0) + 1
        return x

    assert rules(analyze_callable(tally, "map")) \
        == {"closure-shared-mutation"}


def test_accumulator_add_clean(ctx):
    acc = ctx.accumulator(0)

    def count(x):
        acc.add(1)
        return x

    assert not analyze_callable(count, "map")


def test_mutating_parameter_clean():
    """Mutating an *argument* (combiner accumulation) is the normal
    aggregator idiom, not shared state."""

    def merge(acc, x):
        acc.append(x)
        return acc

    assert not analyze_callable(merge, "combineByKey")


def test_local_dict_mutation_clean():
    def histogram(it):
        h: dict[int, int] = {}
        for x in it:
            h[x] = h.get(x, 0) + 1
        return h.items()

    assert not analyze_callable(histogram, "mapPartitions")


def test_global_mutable_module_state(tmp_path):
    """A module-level dict written from a closure is shared state even
    though it is not a cell capture."""
    mod = tmp_path / "shared_mod.py"
    mod.write_text(
        "RESULTS = {}\n"
        "def record(x):\n"
        "    RESULTS[x] = x * 2\n"
        "    return x\n")
    import importlib.util
    spec = importlib.util.spec_from_file_location("shared_mod", mod)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert "closure-shared-mutation" in rules(
        analyze_callable(module.record, "map"))


# ----------------------------------------------------------------------
# robustness
# ----------------------------------------------------------------------
def test_builtin_callable_is_ignored():
    assert not analyze_callable(len)
    assert not analyze_callable(print)


def test_recursive_closure_terminates():
    def fact(n):
        return 1 if n <= 1 else n * fact(n - 1)

    assert not analyze_callable(fact)


def test_duplicate_findings_deduplicated():
    fn = lambda x: x + random.random()  # noqa: E731
    report = analyze_callable(fn, "map")
    analyze_callable(fn, "map", report=report)
    assert len(report.by_rule("closure-nondeterminism")) == 1


def test_engine_wrapper_chain_reaches_user_fn(ctx):
    """End to end through the hook: rdd.map wraps the user lambda in
    engine-internal closures; a LintSession must still attribute the
    nondeterminism to the user code."""
    from repro.lint import LintSession
    with LintSession() as session:
        rdd = ctx.parallelize([1, 2, 3], 2)
        rdd.map(lambda x: x + random.random()).collect()
    assert "closure-nondeterminism" in rules(session.report)
