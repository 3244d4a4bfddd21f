"""The block path's one grouping primitive and the folds beside it.

``stable_argsort`` must be indistinguishable from numpy's stable sort
(the sites that call it are guarded by the existing order-sensitive
suites, which run here a second time with the radix path forced onto
their small blocks); ``segmented_left_fold`` — one ``np.bincount``,
pinned on the installed numpy — and the planned fold (its in-place
and outer-axis adds pinned too) must equal the record path's dict left
fold byte for byte, the sign of a zero included; the sampled draw must
equal ``Generator.choice``'s, pinned on the installed numpy too; a
counting spy pins what a steady-state iteration still sorts, and that
the broadcast fold's plans are built once and die with their blocks;
and source guards keep the next block-path
sort from quietly being a merge sort again, the next driver from
growing a second tensor representation or a second conversion point,
``core/cp_als.py`` free of per-row callables, and the join dataflows
at one block per partition and one store per shuffle (a counting spy
on the block constructors).
"""

from __future__ import annotations

import ast
import collections
import gc
import pathlib
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import MemoryManager, blocks
from repro.engine.blocks import KeyedRowBlock, sorted_runs, stable_argsort
from repro.engine.metrics import MetricsCollector
from repro.engine.partitioner import stable_hash
from repro.kernels import (combine_rows_block, fold_rows,
                           segmented_left_fold)
from repro.kernels.sampled import draw_rows
from repro.kernels import segsum
from repro.kernels.segsum import (PLANE_BYTES, _fold_planes, fold_plan,
                                  segmented_fold_at)
from repro.engine.shuffle import Aggregator
from repro.kernels.vectorized import RowSumAggregator, block_contribution
from repro.tensor import random_factors, uniform_sparse

from .. import conformance as cf
from ..strategies import examples, integer_keys, keyed_rows


def dict_fold(keys, rows):
    """The record path: per-key ``a + b`` in record order, keys in
    ascending order (``sum_rows_by_key`` sorts its ``reduceByKey``
    output)."""
    acc = {}
    for k, v in zip(keys.tolist(), rows):
        acc[k] = acc[k] + v if k in acc else v
    return dict(sorted(acc.items()))


def assert_equals_dict_fold(keys, rows, out_keys, out_rows):
    oracle = dict_fold(keys, rows)
    assert out_keys.tolist() == list(oracle)
    assert out_rows.tobytes() == np.stack(list(oracle.values())).tobytes()


# ----------------------------------------------------------------------
# stable_argsort
# ----------------------------------------------------------------------
class TestStableArgsort:
    @given(integer_keys())
    def test_equals_numpy_stable_argsort(self, keys):
        assert np.array_equal(stable_argsort(keys),
                              np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("top", [65_535, 65_536, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("n", [blocks.RADIX_MIN_KEYS - 1,
                                   blocks.RADIX_MIN_KEYS, 5000])
    def test_digit_boundaries_with_ties(self, n, top):
        rng = np.random.default_rng(n + top % 97)
        keys = rng.choice(np.array([0, 1, 65_535, 65_536, top // 2, top]),
                          n).astype(np.int64)
        assert np.array_equal(stable_argsort(keys),
                              np.argsort(keys, kind="stable"))

    @given(integer_keys(max_len=1500))
    def test_sorted_runs_names_each_key_once_at_its_first_row(self, keys):
        order, sorted_keys, starts = sorted_runs(keys)
        assert np.array_equal(sorted_keys, np.sort(keys))
        uniq, first = np.unique(keys, return_index=True)
        assert np.array_equal(sorted_keys[starts], uniq)
        assert np.array_equal(order[starts], first)


# ----------------------------------------------------------------------
# the segmented left fold
# ----------------------------------------------------------------------
class TestPlaneFold:
    @given(keyed_rows())
    def test_equals_dict_left_fold_bytes(self, batch):
        keys, rows = batch
        assert_equals_dict_fold(keys, rows,
                                *segmented_left_fold(keys, rows))

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("segments", [1, 2, 3])
    def test_long_segments_are_not_summed_pairwise(self, width, segments):
        """numpy sums a 1-D contiguous reduce pairwise, which differs
        from the left fold from 8 addends on: one width-1 key of 300
        rows is that shape unless the fold pads it."""
        rng = np.random.default_rng(10 * width + segments)
        keys = np.repeat(np.arange(segments), 300).astype(np.int64)
        rows = rng.standard_normal((300 * segments, width)) * 1e6
        assert_equals_dict_fold(keys, rows,
                                *segmented_left_fold(keys, rows))
        first = rows[:300]
        assert fold_rows(first).tobytes() == \
            dict_fold(keys[:300], first)[0].tobytes()
        # and a transposed (non-contiguous) batch folds the same way
        assert fold_rows(np.asfortranarray(first)).tobytes() == \
            fold_rows(first).tobytes()

    def test_sign_of_zero_matches_the_oracle(self):
        """``-0.0 + -0.0`` is ``-0.0``; a reduce seeded with numpy's
        default ``+0.0`` answers ``+0.0``."""
        minus = np.full((3, 2), -0.0)
        keys = np.array([5, 5, 7], dtype=np.int64)
        out_keys, out_rows = segmented_left_fold(keys, minus)
        assert out_keys.tolist() == [5, 7]
        assert out_rows.tobytes() == minus[:2].tobytes()
        assert fold_rows(minus).tobytes() == minus[0].tobytes()
        (blk,) = combine_rows_block(
            [(5, minus[0]), (5, minus[1]), (7, minus[2])])
        assert blk.keys.tolist() == [5, 7]
        assert blk.rows.tobytes() == minus[:2].tobytes()
        # mixed signs: +0.0 wins exactly where the oracle says so
        mixed = np.array([[0.0, -0.0], [-0.0, -0.0]])
        same = np.zeros(2, dtype=np.int64)
        assert_equals_dict_fold(same, mixed,
                                *segmented_left_fold(same, mixed))

    def test_padding_at_most_doubles_the_rows_gathered(self):
        rng = np.random.default_rng(4)
        n = 4000
        keys = rng.integers(1, 500, n)
        keys[rng.permutation(n)[:n // 2]] = 0      # one key, half the rows
        rows = rng.standard_normal((n, 3))
        fetched = []

        def spy(at):
            fetched.append(at.size)
            return rows[at]
        out = segmented_fold_at(keys, spy, 3)
        assert n <= sum(fetched) <= 2 * n
        assert_equals_dict_fold(keys, rows, *out)

    @pytest.mark.parametrize("prereduce", [False, True])
    def test_product_at_positions_equals_the_materialised_product(
            self, prereduce):
        """The broadcast MTTKRP evaluates its Hadamard product at the
        fold plan's positions; the bits are those of the
        record path's per-nonzero ``(val * row) * row`` and fold."""
        rng = np.random.default_rng(12)
        n, rank = 1500, 5
        values = rng.standard_normal(n)
        key_col = rng.integers(0, 40, n)
        fixed = [(rng.integers(0, 30, n), rng.standard_normal((30, rank)))
                 for _ in range(2)]
        product = np.stack([
            (values[i] * fixed[0][1][fixed[0][0][i]])
            * fixed[1][1][fixed[1][0][i]] for i in range(n)])
        keys, rows = block_contribution(values, key_col, fixed, prereduce)
        if prereduce:
            exp_keys, exp_rows = segmented_left_fold(key_col, product)
            assert_equals_dict_fold(key_col, product, keys, rows)
        else:
            exp_keys, exp_rows = key_col, product
        assert np.array_equal(keys, exp_keys)
        assert rows.tobytes() == exp_rows.tobytes()

    @pytest.mark.parametrize("n,width", [
        (PLANE_BYTES // 8 - 1, 1), (PLANE_BYTES // 8, 1),
        (PLANE_BYTES // 8 + 1, 1), (PLANE_BYTES // 16, 2),
        (PLANE_BYTES // 16 + 1, 2)])
    def test_both_sides_of_the_plane_budget_fold_the_same_bits(
            self, n, width, monkeypatch):
        """``block_contribution`` folds a product of at most
        ``PLANE_BYTES // 8`` cells by ``bincount`` and a larger one on
        planes; at the boundary both folds give the same bytes."""
        from repro.kernels import vectorized
        rng = np.random.default_rng(n + width)
        values = rng.standard_normal(n) * 1e3
        key_col = rng.integers(0, 300, n)
        fixed = [(rng.integers(0, 50, n), rng.standard_normal((50, width)))]
        product = fixed[0][1][fixed[0][0]] * values[:, None]
        planes = segmented_fold_at(key_col, lambda at: product[at], width)
        bincount = segmented_left_fold(key_col, product)
        assert np.array_equal(planes[0], bincount[0])
        assert planes[1].tobytes() == bincount[1].tobytes()
        on_planes = []
        monkeypatch.setattr(vectorized, "segmented_fold_at",
                            lambda *a: on_planes.append(1)
                            or segmented_fold_at(*a))
        keys, rows = block_contribution(values, key_col, fixed, True)
        assert bool(on_planes) == (n * width > PLANE_BYTES // 8)
        assert np.array_equal(keys, bincount[0])
        assert rows.tobytes() == bincount[1].tobytes()


class TestPlannedFold:
    """``segmented_fold_at`` along a ``FoldPlan``: the dict left fold's
    bytes, with every record position
    asked for exactly once, whatever the key skew, width or chunk
    budget."""

    @staticmethod
    def fold(keys, rows, plan=None):
        fetched = []

        def rows_at(at):
            fetched.append(at)
            return rows[at]
        out = segmented_fold_at(keys, rows_at, rows.shape[1], plan)
        assert sum(at.size for at in fetched) == len(keys)
        assert np.array_equal(np.sort(np.concatenate(fetched)),
                              np.arange(len(keys)))
        assert_equals_dict_fold(keys, rows, *out)
        return out

    @given(keyed_rows(), st.sampled_from([PLANE_BYTES, 4096, 64, 8]))
    def test_equals_dict_left_fold_bytes(self, batch, budget):
        keys, rows = batch
        with mock.patch.object(segsum, "PLANE_BYTES", budget):
            self.fold(keys, rows)

    @pytest.mark.parametrize("budget", [PLANE_BYTES, 1024])
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("layout", ["uniform", "half", "zipf"])
    def test_named_layouts(self, layout, width, budget, monkeypatch):
        """Uniform keys, one key holding half the rows (a long run of
        one segment at the end) and Zipf(1.3) keys."""
        monkeypatch.setattr(segsum, "PLANE_BYTES", budget)
        rng = np.random.default_rng(width)
        n = 6000
        keys = rng.integers(0, 400, n)
        if layout == "half":
            keys[rng.permutation(n)[:n // 2]] = 400
        elif layout == "zipf":
            keys = rng.zipf(1.3, n) % 5000
        rows = rng.standard_normal((n, width)) * 1e6
        self.fold(keys, rows)

    def test_a_lone_width_1_run_is_not_summed_pairwise(self):
        """Width 1, one key of 300 rows beside short ones: the tail of
        the plan is a run of one segment, which would be a 1-D reduce
        (pairwise from 8 addends) unless the fold pads it."""
        column = np.random.default_rng(40).standard_normal((300, 1)) * 1e6
        keys = np.concatenate([np.zeros(300, dtype=np.int64),
                               np.arange(1, 41)])
        rows = np.concatenate([column, np.ones((40, 1))])
        _, sums = self.fold(keys, rows)
        assert sums[0, 0] != np.add.reduce(column[:, 0])

    def test_rows_of_negative_zero(self):
        keys = np.array([4, 4, 4, 2, 9, 2], dtype=np.int64)
        _, sums = self.fold(keys, np.full((6, 2), -0.0))
        assert np.signbit(sums).all()
        mixed = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]] * 4)
        self.fold(np.arange(12, dtype=np.int64) % 2, mixed)

    def test_one_row(self):
        keys, sums = self.fold(np.array([7], dtype=np.int64),
                               np.array([[-0.0, 2.5]]))
        assert keys.tolist() == [7]

    @pytest.mark.parametrize("width", [1, 16])
    def test_more_keys_than_one_chunk_holds_rows(self, width):
        """Position 0 alone holds more records than ``PLANE_BYTES``
        allows a chunk: it is a chunk of its own, and the fold ends."""
        cells = PLANE_BYTES // (8 * width)
        rng = np.random.default_rng(width)
        keys = rng.permutation(np.repeat(np.arange(cells + 7), 3))
        rows = rng.standard_normal((keys.shape[0], width))
        self.fold(keys, rows)

    def test_a_prebuilt_plan_is_the_plan_of_its_keys(self):
        rng = np.random.default_rng(3)
        keys = rng.zipf(1.3, 3000) % 700
        rows = rng.standard_normal((3000, 4))
        plan = fold_plan(keys)
        assert np.array_equal(np.sort(plan.order), np.arange(3000))
        assert np.array_equal(plan.keys, np.unique(keys))
        offsets, positions, running = plan.runs.T
        assert (np.diff(running) < 0).all() and running[-1] >= 1
        assert offsets[0] == 0 and np.array_equal(
            offsets[1:], (positions * running).cumsum()[:-1])
        assert (positions * running).sum() == 3000
        planned = self.fold(keys, rows, plan)
        unplanned = self.fold(keys, rows)
        assert planned[1].tobytes() == unplanned[1].tobytes()


def _pieces(keys, rows, cuts):
    """``(keys, rows)`` cut at the sorted positions ``cuts``."""
    bounds = [0, *sorted(set(cuts)), len(keys)]
    return [(keys[a:b], rows[a:b]) for a, b in zip(bounds, bounds[1:])
            if b > a]


class TestRowSumAggregator:
    @given(keyed_rows(), st.lists(st.integers(0, 600), max_size=4),
           st.booleans(), st.sampled_from([None, 100]))
    @settings(max_examples=examples(50))
    def test_combine_equals_the_record_aggregators_bits(
            self, batch, cuts, reduce_side, total_bytes):
        """The row sum's ``combine`` emits what the record
        ``Aggregator(identity, +, +).combine`` emits over the same
        ``(key, row)`` stream, bit for bit and keys ascending: on the
        map side (raw rows, arriving as blocks and loose records) and
        on the reduce side (map outputs already combined, with
        ``combiners``), under an unbounded pool and a 100-byte one.
        The record side books no pool: spilled, it would merge its
        runs pairwise, which is not the left fold the row sum keeps
        whether its one booking is granted or denied."""
        keys, rows = batch
        pieces = _pieces(keys, rows, [c for c in cuts if c < len(keys)])
        record = Aggregator(lambda v: v, lambda a, b: a + b,
                            lambda a, b: a + b)
        if reduce_side:
            outputs = [sorted(record.combine(zip(k.tolist(), r)))
                       for k, r in pieces]
            stream = [kv for out in outputs for kv in out]
            fed = [KeyedRowBlock.from_records(out) for out in outputs]
        else:
            stream = list(zip(keys.tolist(), rows))
            fed = []
            for i, (k, r) in enumerate(pieces):
                fed += [KeyedRowBlock(k, r)] if i % 2 else \
                    list(zip(k.tolist(), r))
        want = sorted(record.combine(stream, combiners=reduce_side))

        metrics = MetricsCollector()
        pool = MemoryManager(total_bytes=total_bytes, metrics=metrics)
        (got,) = RowSumAggregator(metrics).combine(
            fed, combiners=reduce_side, memory=pool)
        assert got.keys.tolist() == [k for k, _ in want]
        assert got.rows.tobytes() == \
            np.stack([row for _, row in want]).tobytes()
        assert metrics.kernel_batches == 1
        assert pool.execution_used == 0
        assert metrics.memory.shuffle_spill_count == 0
        booked = len(got) * (24 + 8 * rows.shape[1])
        assert metrics.memory.execution_peak_bytes in (0, booked)
        if total_bytes is None:
            assert metrics.memory.execution_peak_bytes == booked


# ----------------------------------------------------------------------
# np.bincount: the combine's fold, pinned on the installed numpy
# ----------------------------------------------------------------------
class TestBincountAccumulation:
    """``segmented_left_fold`` is one ``np.bincount`` with weights, and
    its bits are the record path's only while numpy adds each weight
    into its bin in input order from a ``+0.0`` start.  A numpy that
    sums a bin pairwise, or starts it anywhere else, fails here."""

    @staticmethod
    def left_fold(column):
        acc = 0.0
        for x in column.tolist():
            acc = acc + x
        return np.float64(acc)

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_300_row_bin_is_a_sequential_fold(self, width):
        # (a seed whose columns a pairwise sum gets wrong in the last bit)
        rows = np.random.default_rng(40).standard_normal((300, width)) * 1e6
        sums = np.bincount(np.tile(np.arange(width), 300),
                           weights=rows.ravel())
        for r in range(width):
            column = np.ascontiguousarray(rows[:, r])
            assert sums[r].tobytes() == self.left_fold(column).tobytes()
            # the data tells the two orders apart
            assert np.add.reduce(column) != self.left_fold(column)
        keys = np.zeros(300, dtype=np.int64)
        assert_equals_dict_fold(keys, rows, *segmented_left_fold(keys, rows))

    def test_an_all_negative_zero_bin_keeps_its_sign(self):
        """numpy starts a bin at +0.0, so ``-0.0`` terms alone sum to
        ``+0.0``; the fold's second count restores the record path's
        ``-0.0 + -0.0 == -0.0``."""
        minus = np.full((4, 2), -0.0)
        raw = np.bincount(np.tile(np.arange(2), 4), weights=minus.ravel())
        assert not np.signbit(raw).any()
        keys = np.array([3, 3, 3, 9], dtype=np.int64)
        out_keys, out_rows = segmented_left_fold(keys, minus)
        assert out_keys.tolist() == [3, 9]
        assert out_rows.tobytes() == minus[:2].tobytes()

    def test_mixed_signed_zeros_match_the_record_fold(self):
        rows = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0],
                         [-0.0, -0.0], [1.5, -0.0], [-0.0, 2.5]])
        keys = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        out_keys, out_rows = segmented_left_fold(keys, rows)
        assert_equals_dict_fold(keys, rows, out_keys, out_rows)
        assert np.signbit(out_rows).tolist() == [
            [True, False], [False, True], [False, False]]


# ----------------------------------------------------------------------
# in-place and outer-axis adds: the planned fold's order, pinned
# ----------------------------------------------------------------------
class TestPlannedFoldOrder:
    """``segmented_fold_at`` folds a wide run of segments by ``acc[:k]
    += rows`` per position and a narrow one by ``_fold_planes`` with the
    running sums as its first plane; its bits are the record path's only
    while numpy's in-place add is element by element and a reduce over
    the outer axis of C-contiguous planes adds plane after plane from
    its ``initial``.  A numpy that reassociates either fails here."""

    @staticmethod
    def left_fold(seed, terms):
        acc = seed
        for x in terms.tolist():
            acc = acc + x
        return np.float64(acc)

    def test_an_in_place_add_is_elementwise(self):
        rng = np.random.default_rng(7)
        acc = rng.standard_normal((64, 16)) * 1e6
        acc[::5] = -0.0
        rows = rng.standard_normal((64, 16))
        rows[::3] = np.where(rng.random((22, 16)) < 0.5, 0.0, -0.0)
        want = np.array([[a + b for a, b in zip(x, y)]
                         for x, y in zip(acc.tolist(), rows.tolist())])
        acc[:64] += rows
        assert acc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(300, 1, 1), (300, 2, 1),
                                       (300, 1, 2), (300, 7, 16)])
    def test_an_outer_axis_reduce_is_a_sequential_fold(self, shape):
        length, segments, width = shape
        planes = (np.random.default_rng(40).standard_normal(
            (length, segments * width)) * 1e6).reshape(shape)
        sums = _fold_planes(planes)
        for s in range(segments):
            for r in range(width):
                column = np.ascontiguousarray(planes[:, s, r])
                assert sums[s, r].tobytes() == \
                    self.left_fold(-0.0, column).tobytes()
        if segments * width == 1:   # the data tells the orders apart
            assert np.add.reduce(planes.ravel()) != sums[0, 0]


# ----------------------------------------------------------------------
# Generator.choice: the sampled draw, pinned on the installed numpy
# ----------------------------------------------------------------------
class TestChoiceDraw:
    """``draw_rows`` replays ``Generator.choice(n, s, p=q)``'s inverse
    CDF with its uniforms searched in sorted order, so its draws are
    ``choice``'s only while numpy draws that way.  A numpy that changes
    ``choice``'s algorithm or checks of ``p`` fails here."""

    @pytest.mark.parametrize("s", [1, 64, 4096, 20000])
    @pytest.mark.parametrize("n", [1, 7, 4096, 16384, 100000])
    def test_index_for_index_equal_to_choice(self, n, s):
        for seed in range(5):
            q = np.random.default_rng(100 + seed).uniform(0.0, 1.0, n)
            q /= q.sum()
            site = (seed, "choice-pin", n, s)
            expected = np.random.default_rng(stable_hash(site)).choice(
                n, s, replace=True, p=q)
            assert np.array_equal(draw_rows(q, s, site), expected)

    @pytest.mark.parametrize("bad", ["negative", "nan", "sum"])
    def test_raises_where_choice_raises(self, bad):
        q = np.full(8, 1.0 / 8)
        if bad == "negative":
            q[[0, 1]] = [-1.0 / 8, 3.0 / 8]
        elif bad == "nan":
            q[3] = np.nan
        else:       # off 1 by 10x choice's sqrt(eps) tolerance
            q[0] += 10 * np.sqrt(np.finfo(np.float64).eps)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(8, 4, replace=True, p=q)
        with pytest.raises(ValueError):
            draw_rows(q, 4, (0, "bad"))

    def test_a_sum_within_tolerance_draws_as_choice(self):
        q = np.full(8, 1.0 / 8)
        q[0] += 0.1 * np.sqrt(np.finfo(np.float64).eps)
        expected = np.random.default_rng(stable_hash((1, "tol"))).choice(
            8, 50, replace=True, p=q)
        assert np.array_equal(draw_rows(q, 50, (1, "tol")), expected)


# ----------------------------------------------------------------------
# the four call sites, with the radix path forced onto small blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("driver", ["coo-join", "coo-broadcast", "qcoo"])
def test_drivers_stay_bit_identical_with_radix_on_every_block(
        driver, monkeypatch):
    """The conformance tensors' blocks are far below the short-input
    cutoff; with the cutoff at 1 every sort in ``partition_order``,
    ``qcoo_canonical`` and the fused fold is a radix sort, and the
    factors must still be the record oracle's."""
    monkeypatch.setattr(blocks, "RADIX_MIN_KEYS", 1)
    vec = cf.run("order4", driver, kernel="vectorized")
    assert vec.metrics.kernel_batches > 0
    cf.assert_bit_identical(cf.oracle("order4", driver), vec)


# ----------------------------------------------------------------------
# source guard
# ----------------------------------------------------------------------
def _merge_sorts(path: pathlib.Path) -> list[str]:
    """Stable-argsort, ``lexsort`` and inverse-returning ``unique``
    calls in one source file, as ``"<enclosing function>:<line>"``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            keywords = {k.arg: k.value for k in node.keywords}
            kind = keywords.get("kind")
            if node.func.attr == "lexsort" \
                    or (node.func.attr == "argsort"
                        and isinstance(kind, ast.Constant)
                        and kind.value == "stable") \
                    or (node.func.attr == "unique"
                        and "return_inverse" in keywords):
                found.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_block_path_sorts_only_through_stable_argsort():
    root = pathlib.Path(repro.__file__).parent
    paths = [root / "engine" / "blocks.py", root / "engine" / "rdd.py",
             *sorted((root / "kernels").glob("*.py"))]
    offenders = {}
    for path in paths:
        if path.name == "record.py":      # the oracle sorts as it likes
            continue
        sorts = _merge_sorts(path)
        if path.name == "blocks.py":
            inside = [s for s in sorts if s.startswith("stable_argsort:")]
            assert inside, "the guard no longer sees stable_argsort"
            sorts = [s for s in sorts if s not in inside]
        if sorts:
            offenders[path.name] = sorts
    assert not offenders


@pytest.mark.parametrize("driver,sampler,callers", [
    ("coo-join", "exact", {"partition_order"}),
    ("qcoo", "exact", {"partition_order", "by_coordinate"}),
    ("coo-broadcast", "exact", {"partition_order"}),
    ("coo-join", "lev", {"partition_order"}),
], ids=["coo-join", "qcoo", "coo-broadcast", "lev"])
def test_a_steady_state_iteration_sorts_only_where_it_must(
        driver, sampler, callers, monkeypatch):
    """A counting spy on ``stable_argsort``, wherever it is imported,
    armed once the first iteration (and the set-up before it) is over.
    What is left to sort is each shuffle's partition order, once, as
    its store is placed; QCOO adds its canonical queue order
    (``qcoo_canonical``'s ``by_coordinate``).  The broadcast and sampled MTTKRPs' products on
    these tensors fit one ``PLANE_BYTES`` plane, so their fused fold is
    a ``bincount`` and sorts nothing either; joins, combines, reduces
    and the normalise step sort nothing."""
    seen, armed = _steady_state_sorts(monkeypatch)
    cf.run("order4", driver, kernel="vectorized", backend="serial",
           sampler=sampler, iterations=3)
    assert len(armed) >= 3
    assert set(seen) == callers, seen


def _steady_state_sorts(monkeypatch) -> tuple[collections.Counter, list]:
    """A counting spy on ``stable_argsort``, wherever it is imported:
    per calling function, the sorts after the first iteration (and the
    set-up before it), and one entry per iteration boundary passed."""
    from repro.engine import Context
    seen = collections.Counter()
    armed = []
    real_sort = blocks.stable_argsort

    def spy(keys):
        if armed:
            seen[sys._getframe(1).f_code.co_name] += 1
        return real_sort(keys)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "stable_argsort", None) is real_sort:
            monkeypatch.setattr(module, "stable_argsort", spy)
    real_drop = Context.drop_shuffle_outputs

    def boundary(ctx):
        real_drop(ctx)
        armed.append(True)
    monkeypatch.setattr(Context, "drop_shuffle_outputs", boundary)
    return seen, armed


def _counted_plans(monkeypatch) -> collections.Counter:
    """With the plane budget below every broadcast partition's product,
    so that the fused fold runs along plans: how many plans the
    vectorized kernel builds, per key column."""
    from repro.kernels import vectorized
    for module in (segsum, vectorized):
        monkeypatch.setattr(module, "PLANE_BYTES", 128)
    built = collections.Counter()
    real_plan = vectorized.fold_plan

    def counted(keys):
        built[id(keys)] += 1
        return real_plan(keys)
    monkeypatch.setattr(vectorized, "fold_plan", counted)
    return built


def test_the_broadcast_fold_plans_once_per_partition_and_mode(monkeypatch):
    """Each cached tensor block's fold plan of a mode is built at the
    first iteration and reused by the next two, so a steady-state
    broadcast iteration on the plan path still sorts only each
    shuffle's partition order."""
    built = _counted_plans(monkeypatch)
    seen, armed = _steady_state_sorts(monkeypatch)
    cf.run("order4", "coo-broadcast", kernel="vectorized",
           backend="serial", iterations=3)
    assert len(armed) >= 3
    assert set(seen) == {"partition_order"}, seen
    placed = cf.tensor("order4").partition_blocks(
        "hash", cf.CASES["order4"].partitions)
    assert len(built) == 4 * sum(len(blk) > 0 for blk in placed)
    assert set(built.values()) == {1}


def test_a_fold_plan_lives_as_long_as_its_cached_block(monkeypatch):
    """The kernel's plan table holds its blocks weakly: once the
    decomposition has unpersisted the tensor and the blocks are
    collected, no plan is left."""
    built = _counted_plans(monkeypatch)
    tables = []

    def after_decompose(ctx):
        gc.collect()
        tables.append(len(ctx.kernel._plans))
    cf.run("order4", "coo-broadcast", kernel="vectorized",
           backend="serial", iterations=2, probe=after_decompose)
    assert built and tables == [0]


def test_the_planned_broadcast_fold_keeps_the_oracles_bits(
        monkeypatch, share_everything):
    """On the plan path the broadcast decomposition is the record
    oracle's, bit for bit: serial, on two worker processes (each
    request carries its plan, whose order array is published once), and
    with the tensor cached serialized under injected corruption, where
    every read is a fresh block with a fresh plan.  No segment outlives
    ``stop()``."""
    from repro.engine import FaultPlan, StorageLevel, procpool
    built = _counted_plans(monkeypatch)
    planned = []
    real_run = procpool.OffloadClient.run

    def sent(self, op, arrays, meta, *rest):
        out = real_run(self, op, arrays, meta, *rest)
        planned.append(out is not None and meta["plan"] is not None)
        return out
    monkeypatch.setattr(procpool.OffloadClient, "run", sent)
    contexts = []
    oracle = cf.oracle("order4", "coo-broadcast")
    for backend in ("serial", "process"):
        cf.assert_bit_identical(oracle, cf.run(
            "order4", "coo-broadcast", kernel="vectorized",
            backend=backend, probe=contexts.append))
    assert any(planned)
    before = sum(built.values())
    corrupted = cf.run(
        "order4", "coo-broadcast", kernel="vectorized", backend="serial",
        plan=FaultPlan(seed=3, corrupt_block_prob=0.3),
        conf={"integrity": True}, storage_level=StorageLevel.MEMORY_SER,
        probe=contexts.append)
    cf.assert_bit_identical(oracle, corrupted)
    assert corrupted.metrics.integrity.corrupted_blocks > 0
    assert corrupted.metrics.integrity.recompute_recoveries > 0
    assert sum(built.values()) - before > before
    assert all(ctx.backend.live_segments() == [] for ctx in contexts)


def test_plans_take_only_the_room_the_blocks_leave_in_the_publish_cache(
        monkeypatch, share_everything):
    """On the process backend a plan's order is one more published array
    per partition and mode.  The publish cache keeps the blocks' values
    and columns and a stage's factors first; only the first partitions
    whose orders fit the room left are planned, so the modes cycling
    through the partitions never evict an array before its next use,
    and the rest fold as at any size without a plan: the oracle's
    bits either way."""
    from repro.engine import procpool
    _counted_plans(monkeypatch)
    partitions = cf.CASES["order4"].partitions
    placed = cf.tensor("order4").partition_blocks("hash", partitions)
    sent = []
    real_run = procpool.OffloadClient.run

    def spy(self, op, arrays, meta, *rest):
        sent.append(meta["plan"])
        return real_run(self, op, arrays, meta, *rest)
    monkeypatch.setattr(procpool.OffloadClient, "run", spy)
    oracle = cf.oracle("order4", "coo-broadcast")
    blocks_and_factors = partitions * 5 + 3
    for room, planned in [(partitions, partitions), (3, 3), (-1, 0)]:
        sent.clear()
        monkeypatch.setattr(procpool, "_PUBLISH_CACHE_CAP",
                            blocks_and_factors + 4 * room)
        cf.assert_bit_identical(oracle, cf.run(
            "order4", "coo-broadcast", kernel="vectorized",
            backend="process"))
        plans = {id(plan) for plan in sent if plan is not None}
        assert sent and len(plans) == 4 * sum(
            len(blk) > 0 for blk in placed[:planned])


def _tensor_representation_breaches(path: pathlib.Path,
                                    root: pathlib.Path) -> list[str]:
    """What one source file does that would give the tensor RDD a
    second representation, as ``"<file>:<line> <what>"``."""
    rel = path.relative_to(root).as_posix()
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "attr", None) or getattr(node, "arg", None) \
            or getattr(node, "id", None)
        if name == "wants_blocks":
            found.append(f"{rel}:{node.lineno} names wants_blocks")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "getattr" \
                and rel.startswith("core/") and node.args \
                and "kernel" in ast.unparse(node.args[0]):
            found.append(f"{rel}:{node.lineno} reads a kernel by getattr")
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "materialize_records":
            found.append(f"{rel}:{node.lineno} materialize_records")
        if func.attr == "from_records" \
                and ast.unparse(func.value) == "ColumnarBlock" \
                and rel.startswith(("core/", "kernels/")):
            found.append(f"{rel}:{node.lineno} ColumnarBlock.from_records")
    return found


def test_the_tensor_has_one_representation_and_one_record_seam():
    """Every kernel and driver starts from the columnar tensor blocks;
    only the one record *program*, BIGtensor, may expand them through
    ``materialize_records`` (kernels expand inside their own ops)."""
    root = pathlib.Path(repro.__file__).parent
    breaches = [b for path in sorted(root.rglob("*.py"))
                for b in _tensor_representation_breaches(path, root)]
    seam = [b for b in breaches if b.endswith(" materialize_records")]
    assert {b.split(":")[0] for b in seam} == {"baselines/bigtensor.py"}
    assert [b for b in breaches if b not in seam] == []


# ----------------------------------------------------------------------
# one block per partition, one store per shuffle: guards
# ----------------------------------------------------------------------
def _function_source(path: pathlib.Path, cls: str, name: str) -> str:
    """Source text of method ``cls.name`` in one file."""
    text = path.read_text()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return ast.get_source_segment(text, item)
    raise AssertionError(f"{cls}.{name} not found in {path.name}")


def test_the_driver_holds_no_per_row_callable():
    """``core/cp_als.py`` names the factor-side steps and the kernels
    own their arithmetic: no ``lambda``, no nested ``def`` and none of
    the per-record RDD calls the steps replaced (AST, so the variable
    ``lambdas`` and the docstrings do not count)."""
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / "core" / "cp_als.py").read_text())
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            breaches.append(f"{node.lineno} lambda")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            breaches += [f"{inner.lineno} nested def {inner.name}"
                         for inner in ast.walk(node) if inner is not node
                         and isinstance(inner, ast.FunctionDef)]
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("map_values", "tree_aggregate",
                                       "join", "parallelize"):
            breaches.append(f"{node.lineno} calls {node.func.attr}")
    assert breaches == []


def test_one_factor_representation_and_one_shuffle_layout():
    """No bucket-block splitter by its old name anywhere, no re-batching
    of factor records on the vectorized path, and neither the block
    join nor the vectorized Gram sorts or stacks per-row objects."""
    root = pathlib.Path(repro.__file__).parent
    named = [path.relative_to(root).as_posix()
             for path in sorted(root.rglob("*.py"))
             if "split_by_partition" in path.read_text()]
    assert named == []
    rebatch = []
    for rel in ("engine/rdd.py", "kernels/vectorized.py"):
        for node in ast.walk(ast.parse((root / rel).read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "from_records" \
                    and ast.unparse(node.func.value) == "KeyedRowBlock":
                rebatch.append(f"{rel}:{node.lineno}")
    assert rebatch == []
    for path, cls, name in (
            (root / "engine" / "rdd.py", "BlockJoinRDD", "compute"),
            (root / "kernels" / "vectorized.py", "VectorizedKernel",
             "gram")):
        source = _function_source(path, cls, name)
        assert not re.findall(r"from_records|\bsorted\(|np\.stack",
                              source), f"{cls}.{name}"


@pytest.mark.parametrize("driver,shape", [
    ("coo-join", (60, 50, 8)), ("qcoo", (40, 30, 20, 8))],
    ids=["coo-join", "qcoo"])
def test_blocks_constructed_per_iteration_stay_within_three_per_task(
        driver, shape, monkeypatch):
    """A task reads one block per input (a slice of its shuffle's
    store) and builds one, and each shuffle places one store: at 32
    partitions a steady-state iteration constructs at most 3
    blocks per task (it was 20.8 and 11.5 per task with a block per
    (map, reduce) pair and a tuple per factor row).  The short last
    mode leaves most of its factor partitions empty.  (Integrity off:
    sealing cuts each (map, reduce) range out as a block of its own.)"""
    from repro.engine.blocks import ColumnarBlock, KeyedRowBlock
    built = [0]
    for block_cls in (ColumnarBlock, KeyedRowBlock):
        real = block_cls.__init__

        def counting(self, *args, _real=real, **kwargs):
            built[0] += 1
            _real(self, *args, **kwargs)
        monkeypatch.setattr(block_cls, "__init__", counting)
    tensor = uniform_sparse(shape, 3000, rng=2)
    init = random_factors(tensor.shape, 2, 4)

    counts = []
    for iterations in (1, 3):
        built[0] = 0
        jobs = cf.run(driver=driver, data=tensor, init=init,
                      iterations=iterations, nodes=8, partitions=32,
                      kernel="vectorized", backend="serial",
                      conf={"integrity": False}).metrics.jobs
        counts.append((built[0], sum(st.num_tasks for job in jobs
                                     for st in job.stages)))
    (first_blocks, first_tasks), (blocks, tasks) = counts
    per_iteration = (blocks - first_blocks) / 2
    tasks_per_iteration = (tasks - first_tasks) / 2
    assert tasks_per_iteration >= 32 * tensor.order
    assert per_iteration <= 3 * tasks_per_iteration
