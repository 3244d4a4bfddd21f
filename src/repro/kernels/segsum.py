"""Deterministic segmented sums over batched factor rows.

The record-path ``reduceByKey`` folds each key's rows left-to-right in
record order and emits keys in first-occurrence order (dict insertion
order of the combine buffer).  Both properties feed downstream
floating-point reductions, so the vectorized replacement must reproduce
them *bitwise*, not just numerically:

* records are stably sorted by key
  (:func:`~repro.engine.blocks.sorted_runs`), so within a key the
  original record order is preserved;
* segments are bucketed by length class (1, 2, 3-4, 5-8, ...) and each
  class is gathered *position-major* into ``(longest, segments,
  width)`` planes and reduced along axis 0: numpy adds plane ``t`` of
  every segment to the running ``(segments, width)`` plane — the
  strict left fold ``((r0 + r1) + r2) + ...`` of all the class's keys
  at once, in O(log longest segment + bytes / ``PLANE_BYTES``) numpy
  calls however many keys there are; padding at most doubles the rows
  touched.  ``np.add.reduceat`` is *not* usable (it may sum a segment
  pairwise), nor is a reduce over one lone column (a 1-D reduce is
  pairwise too; :func:`_fold_planes` pads a zero column);
* the seed of the reduce and the pad past a segment's end are **-0.0**,
  the one IEEE additive identity that returns every operand's bits,
  signed zeros included (numpy's ``+0.0`` seed loses an all ``-0.0``
  sum's sign);
* results are re-emitted in first-occurrence key order, matching the
  dict order the record path produces.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..engine.blocks import KeyedRowBlock, sorted_runs


#: byte bound of one gathered planes array, so that it stays cache-
#: resident and malloc recycles it instead of faulting in fresh pages
PLANE_BYTES = 1 << 19


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


def segmented_fold_at(
        keys: np.ndarray, rows_at: Callable[[np.ndarray], np.ndarray],
        width: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segmented_left_fold` of rows that are not materialised:
    ``rows_at(at)`` returns a fresh ``at.shape + (width,)`` array of
    the rows at record positions ``at``.  Each row is asked for once,
    already in the layout the plane reduce consumes, so a producer that
    computes rows on demand (the broadcast MTTKRP) never builds or
    re-gathers the unsorted ``(n, width)`` batch."""
    n = keys.shape[0]
    order, sorted_keys, starts = sorted_runs(keys)
    lengths = np.diff(starts, append=n)
    # ceil(log2(length)): the exponent frexp gives length - 1
    classes = np.frexp(lengths - 1)[1]
    sums = np.empty((starts.shape[0], width))
    for cls in np.flatnonzero(np.bincount(classes)):
        members = np.flatnonzero(classes == cls)
        longest = int(lengths[members].max())
        pos = np.arange(longest)[:, None]
        step = max(1, PLANE_BYTES // (8 * width * longest))
        for lo in range(0, members.shape[0], step):
            segs = members[lo:lo + step]
            # slots past a segment's end fetch any valid row, then
            # become the identity
            planes = rows_at(order[np.minimum(starts[segs] + pos, n - 1)])
            planes[pos >= lengths[segs]] = -0.0
            sums[segs] = _fold_planes(planes)
    # starts index into the sorted order; order[starts] is each key's
    # original first-occurrence position — sorting by it recovers the
    # record path's dict insertion order
    emit = np.argsort(order[starts])
    return sorted_keys[starts][emit], sums[emit]


def segmented_left_fold(
        keys: np.ndarray,
        rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key left-fold sums of ``rows``, keys in first-occurrence order.

    ``keys`` is a ``(n,)`` int64 array, ``rows`` a ``(n, width)`` float64
    array.  Returns ``(out_keys, out_rows)`` where ``out_keys[i]`` is the
    i-th distinct key *in order of first appearance* and ``out_rows[i]``
    is the left fold of that key's rows in record order.
    """
    return segmented_fold_at(
        keys, lambda at: np.take(rows, at, axis=0), rows.shape[1])


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
    :class:`~repro.engine.blocks.KeyedRowBlock` batches of them.

    Drop-in for the record path's per-key ``a + b`` fold: same sums, same
    bits, same output key order — returned as one ``KeyedRowBlock`` in
    a list (empty for no input).  Suitable as an
    :class:`~repro.engine.shuffle.Aggregator` ``combine_batch`` because
    the row aggregation's ``create_combiner`` is the identity and
    ``merge_value``/``merge_combiners`` coincide, so values and
    combiners can be folded interchangeably.
    """
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
