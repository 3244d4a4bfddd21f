"""Deterministic segmented sums over batched factor rows.

The record path's ``reduceByKey`` folds each key's rows left to right
in record order, and ``Kernel.sum_rows_by_key`` emits keys in ascending
order; both feed later floating-point reductions, so the batched folds
here reproduce them *bitwise*, keys in ascending order too:

* :func:`segmented_left_fold` folds materialised rows (every combine
  and reduce of ``sum_rows_by_key``, a fused product within one plane)
  without a sort: dense key ids from a presence count over the key
  span, then one ``np.bincount`` over ``id * width + column``.
  ``bincount`` adds each weight into its bin in input order from
  ``+0.0`` — per bin the strict left fold — which differs from the
  record path's fold only in a bin of ``-0.0`` terms alone; a second
  ``bincount`` counts the other terms and sets such bins to ``-0.0``
  (``tests/core/test_grouping.py`` pins this on the installed numpy).
* :func:`segmented_fold_at` folds rows computed on demand (the fused
  broadcast / sampled product larger than one ``PLANE_BYTES`` plane)
  along a :class:`FoldPlan` of the keys, without padding: records
  position-major, ``acc[:k] += rows`` per position while the ``k``
  running segments are wide, one :func:`_fold_planes` per run of
  positions (``acc`` its first plane) once they are narrow, from a
  **-0.0** seed (the one additive identity that keeps every operand's
  bits).  ``np.add.reduceat`` and a 1-D reduce may sum pairwise
  (:func:`_fold_planes` pads a lone column).  Within one plane a
  ``bincount`` is faster (4096 x 4: 0.25 vs 0.3-0.6 ms); above, slower.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from ..engine.blocks import KeyedRowBlock, sorted_runs, stable_argsort


#: byte bound of one gathered planes array, so that it stays cache-
#: resident and malloc recycles it instead of faulting in fresh pages
PLANE_BYTES = 1 << 19

#: k * width from which :func:`segmented_fold_at` adds rows in place
#: (a 31k x 16 broadcast partition, product included, on 2 vCPUs:
#: 2.07-2.21 ms a call, 2.34-2.55 ms with ``_fold_planes`` alone)
_WIDE = 512


def _fold_planes(planes: np.ndarray) -> np.ndarray:
    """Left fold of C-contiguous ``(length, segments, width)`` planes
    along axis 0, seeded with -0.0: the ``(segments, width)`` sums."""
    if planes.shape[1] * planes.shape[2] == 1:
        # a lone column: a zero column beside it keeps the reduced
        # axis the outer loop, and is sliced back off
        planes = np.concatenate([planes, np.zeros_like(planes)], axis=2)
        return np.add.reduce(planes, axis=0, initial=-0.0)[:, :1]
    return np.add.reduce(planes, axis=0, initial=-0.0)


def fold_rows(rows: np.ndarray) -> np.ndarray:
    """Strict left-fold sum of a ``(n, width)`` batch along axis 0.

    Bit-identical to ``functools.reduce(operator.add, rows)``, signs
    of zeros included: the -0.0 seed adds to the first row without
    changing a bit of it (``reduceByKey``'s identity combiner).
    """
    return _fold_planes(np.ascontiguousarray(rows)[:, None, :])[0]


class FoldPlan(NamedTuple):
    """How :func:`segmented_fold_at` folds a key column: ``order``
    position-major (segments longest first), ``keys``, each key's row
    in the running sums and ``(offset, positions, segments)`` per run."""

    order: np.ndarray
    keys: np.ndarray
    slots: np.ndarray
    runs: np.ndarray


def fold_plan(keys: np.ndarray) -> FoldPlan:
    """The :class:`FoldPlan` of ``keys``: a stable sort by key
    (:func:`~repro.engine.blocks.sorted_runs`), one by segment length."""
    n = keys.shape[0]
    order, sorted_keys, starts = sorted_runs(keys)
    lengths = np.diff(starts, append=n)
    longest = int(lengths.max(initial=0))
    by_length = stable_argsort(longest - lengths)
    slots = np.empty_like(by_length)
    slots[by_length] = np.arange(by_length.shape[0])
    running = slots.shape[0] - np.cumsum(np.bincount(lengths))[:longest]
    first = np.concatenate([[0], np.cumsum(running)])
    seg = np.repeat(np.arange(starts.shape[0]), lengths)
    planned = np.empty_like(order)
    planned[first[np.arange(n) - starts[seg]] + slots[seg]] = order
    bounds = np.flatnonzero(np.diff(running, prepend=-1, append=-1))
    runs = np.stack([first[bounds[:-1]], np.diff(bounds),
                     running[bounds[:-1]]], axis=1)
    return FoldPlan(planned, sorted_keys[starts], slots, runs)


def segmented_fold_at(
        keys: np.ndarray, rows_at: Callable[[np.ndarray], np.ndarray],
        width: int, plan: FoldPlan | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segmented_left_fold` of rows that are not materialised:
    ``rows_at(at)`` returns a fresh ``at.shape + (width,)`` array of the
    rows at record positions ``at``, each asked for once, in chunks of
    whole positions of ``plan`` (of ``keys``; built if not given) of
    about ``PLANE_BYTES``, so a producer of rows on demand (the
    broadcast MTTKRP) never builds the unsorted ``(n, width)`` batch."""
    plan = fold_plan(keys) if plan is None else plan
    acc = np.full((plan.slots.shape[0], width), -0.0)
    cells = max(1, PLANE_BYTES // (8 * width))
    pieces = [(offset + done * running, min(step, count - done), running)
              for offset, count, running in plan.runs.tolist()
              for step in [max(1, cells // running)]
              for done in range(0, count, step)]
    for _, chunk in groupby(pieces, lambda piece: piece[0] // cells):
        chunk = list(chunk)
        low, (end, count, running) = chunk[0][0], chunk[-1]
        rows = rows_at(plan.order[low:end + count * running])
        for offset, count, running in chunk:
            part = rows[offset - low:offset - low + count * running]
            if running * width >= _WIDE:
                for at in range(0, count * running, running):
                    acc[:running] += part[at:at + running]
            else:   # the running sums are the reduce's first plane
                acc[:running] = _fold_planes(np.concatenate(
                    [acc[None, :running],
                     part.reshape(count, running, width)]))
    return plan.keys, acc[plan.slots]


def segmented_left_fold(
        keys: np.ndarray,
        rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key left-fold sums of ``rows``, keys in ascending order.

    ``keys`` is a ``(n,)`` int64 array, ``rows`` a ``(n, width)`` float64
    array.  Returns ``(out_keys, out_rows)``: the distinct keys, and per
    key the left fold of its rows in record order.  Memory is linear in
    the span of the keys, a partition's mode indices.
    """
    width = rows.shape[1]
    low = keys.min()
    offset = keys - low
    present = np.bincount(offset)
    ids = np.cumsum(present > 0) - 1
    cells = ((ids[offset] * width)[:, None] + np.arange(width)).ravel()
    size = (int(ids[-1]) + 1) * width
    flat = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    sums = np.bincount(cells, weights=flat, minlength=size)
    # -0.0 is the one double whose bits read as the smallest int64
    negative_zero = flat.view(np.int64) == np.iinfo(np.int64).min
    if negative_zero.any():   # a bin of -0.0 terms alone sums to -0.0
        others = np.bincount(cells[~negative_zero], minlength=size)
        sums[others == 0] = -0.0
    return np.flatnonzero(present) + low, sums.reshape(-1, width)


def batch_rows(records: Iterable[Any]) -> KeyedRowBlock | None:
    """``(int key, float64 row)`` records and/or
    :class:`~repro.engine.blocks.KeyedRowBlock` batches of them as one
    block in record order (``None`` for no rows): a block's rows sit
    exactly where its records would, and runs of loose records between
    blocks are batched the same way.  A lone block is handed back as
    is."""
    parts: list[KeyedRowBlock] = []
    loose: list[tuple[Any, np.ndarray]] = []
    for rec in records:
        if type(rec) is KeyedRowBlock:
            if loose:
                parts.append(KeyedRowBlock.from_records(loose))
                loose = []
            if len(rec):
                parts.append(rec)
        else:
            loose.append(rec)
    if loose:
        parts.append(KeyedRowBlock.from_records(loose))
    if len(parts) > 1:
        return KeyedRowBlock.concat(parts)
    return parts[0] if parts else None


def combine_rows_block(records: Iterable[Any], metrics=None) -> list:
    """Batch combiner for ``(int key, float64 row)`` records and/or
    :class:`~repro.engine.blocks.KeyedRowBlock` batches of them: the
    record path's per-key ``a + b`` fold, same bits, keys in ascending
    order, as one ``KeyedRowBlock`` in a list (empty for no input).  The
    fold of the vectorized kernel's ``RowSumAggregator.combine``, map
    side and reduce side alike: the row sum's ``create_combiner`` is the
    identity and ``merge_value``/``merge_combiners`` coincide, so values
    and combiners fold interchangeably."""
    batch = batch_rows(records)
    if batch is None:
        return []
    out_keys, out_rows = segmented_left_fold(batch.keys, batch.rows)
    if metrics is not None:
        metrics.add_kernel_batch(len(batch))
    return [KeyedRowBlock(out_keys, out_rows)]


def combine_rows_batch(records: Iterable[tuple[Any, np.ndarray]],
                       metrics=None) -> list[tuple[int, np.ndarray]]:
    """:func:`combine_rows_block` with the result expanded to
    ``(int, row)`` records — plain int keys, which downstream
    partitioners and joins hash/compare against the python ints the
    drivers key records by."""
    return [rec for blk in combine_rows_block(records, metrics)
            for rec in blk.to_records()]
