"""Deterministic segmented sums over batched factor rows.

The record-path ``reduceByKey`` folds each key's rows left-to-right in
record order and emits keys in first-occurrence order (dict insertion
order of the combine buffer).  Both properties feed downstream
floating-point reductions, so the vectorized replacement must reproduce
them *bitwise*, not just numerically:

* records are stably argsorted by key, so within a key the original
  record order is preserved;
* each segment is summed with :func:`fold_rows`, a strict left fold
  (``((r0 + r1) + r2) + ...``) — ``np.add.reduceat`` is *not* one (it
  may use pairwise summation per segment), so segments are reduced with
  per-segment ``np.add.reduce`` calls, which numpy evaluates as a
  sequential fold along a strided axis;
* results are re-emitted in first-occurrence key order, matching the
  dict order the record path produces.

Width-1 rows hit numpy's contiguous pairwise-summation fast path, which
is not a left fold either; :func:`fold_rows` pads a zero column so the
reduction runs along a strided axis, then slices the pad back off.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np


def fold_rows(rows: np.ndarray) -> np.ndarray:
    """Strict left-fold sum of a ``(n, width)`` batch along axis 0.

    Bit-identical to ``functools.reduce(operator.add, rows)``: a single
    row is returned as-is (no zero is added, matching ``reduceByKey``'s
    identity ``create_combiner``), and multi-row batches are reduced
    sequentially in row order.
    """
    if rows.shape[0] == 1:
        return rows[0]
    if rows.shape[1] == 1:
        # a contiguous reduce axis triggers pairwise summation; pad a
        # zero column so the reduction walks a strided axis instead
        padded = np.concatenate([rows, np.zeros_like(rows)], axis=1)
        return np.add.reduce(padded, axis=0)[:1]
    return np.add.reduce(rows, axis=0)


def segmented_left_fold(
        keys: np.ndarray,
        rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key left-fold sums of ``rows``, keys in first-occurrence order.

    ``keys`` is a ``(n,)`` int64 array, ``rows`` a ``(n, width)`` float64
    array.  Returns ``(out_keys, out_rows)`` where ``out_keys[i]`` is the
    i-th distinct key *in order of first appearance* and ``out_rows[i]``
    is the left fold of that key's rows in record order.
    """
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], n]
    width = rows.shape[1]
    work = sorted_rows
    if width == 1:
        work = np.concatenate([work, np.zeros_like(work)], axis=1)
    sums = np.empty((starts.shape[0], work.shape[1]))
    lengths = ends - starts
    singles = lengths == 1
    sums[singles] = work[starts[singles]]
    for seg in np.flatnonzero(~singles):
        sums[seg] = np.add.reduce(work[starts[seg]:ends[seg]], axis=0)
    if width == 1:
        sums = sums[:, :1]
    # starts index into the sorted order; order[starts] is each key's
    # original first-occurrence position — sorting by it recovers the
    # record path's dict insertion order
    emit = np.argsort(order[starts])
    return sorted_keys[starts][emit], sums[emit]


def combine_rows_block(records: Iterable[Any], metrics=None) -> list:
    """Batch combiner for ``(int key, float64 row)`` records and/or
    :class:`~repro.engine.blocks.KeyedRowBlock` batches of them.

    Drop-in for the record path's per-key ``a + b`` fold: same sums, same
    bits, same output key order — returned as one ``KeyedRowBlock`` in
    a list (empty for no input).  Suitable as an
    :class:`~repro.engine.shuffle.Aggregator` ``combine_batch`` because
    the row aggregation's ``create_combiner`` is the identity and
    ``merge_value``/``merge_combiners`` coincide, so values and
    combiners can be folded interchangeably.
    """
    from ..engine.blocks import KeyedRowBlock
    records = list(records)
    # keyed row blocks expand in place, preserving record order — a
    # block's rows sit exactly where its records would; runs of loose
    # records between them are batched the same way
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
    if not parts:
        return []
    batch = parts[0] if len(parts) == 1 else KeyedRowBlock.concat(parts)
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
