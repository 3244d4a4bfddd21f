"""Columnar partition blocks: the engine's zero-copy data contract.

A partition of tensor nonzeros used to travel as ``list[tuple]`` —
one ``((i, j, k), value)`` tuple per nonzero.  That layout is friendly
to generic record plumbing but hostile to everything else: the
vectorized kernel re-marshals it into ndarrays on every call, pickling
it dominates shuffle/cache serialization, and per-record size sampling
is the only way to account for its memory.

This module provides the columnar alternative:

``ColumnarBlock``
    One contiguous ``int64`` index array per mode plus one contiguous
    ``float64`` values array.  Row ``i`` of the block is the record
    ``((columns[0][i], ..., columns[N-1][i]), values[i])``.  Two
    optional extras carry it through the CSTF joins: ``rows`` —
    CSTF-COO's ``(n, R)`` accumulator column (the running Hadamard
    product that replaces the value once the first factor is joined)
    or CSTF-QCOO's ``(n, q, R)`` queue of factor rows — and
    ``key_mode``, naming the index column that is the shuffle key — so
    keying and re-keying are O(1) relabels of the same arrays.

``KeyedRowBlock``
    A batch of keyed factor rows — ``int64`` keys and a dense
    ``(n, rank)`` ``float64`` row matrix — the shape of a factor
    partition (sorted by row index), of an MTTKRP output and of its
    contributions between the map side and the reduce side.

Stable-order contract
---------------------
Blocks are *ordered* containers: ``to_records()`` yields rows in
storage order, ``from_records`` preserves input order, ``concat``
preserves block-then-row order and ``take`` follows the index order it
is given.  This is the contract the kernels' batching rules rely on
(joins emit in probe order, folds run left to right in record order and
emit keys in ascending order), so a pipeline that materializes a block
back to records is bit-identical to one that never used blocks at all.

Blocks serialize as any other record does: they pickle through
``__reduce__``, which re-runs the constructor's checks, and pickle
protocol 5 copies each array's buffer whole.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence, TypeVar

import numpy as np
import numpy.typing as npt

#: contiguous ``int64`` index vector (one tensor mode's coordinates)
IndexArray = npt.NDArray[np.int64]
#: contiguous ``float64`` payload (nonzero values or dense factor rows)
ValueArray = npt.NDArray[np.float64]

#: flat per-block accounting overhead (slots, shape/dtype headers) used
#: by :func:`repro.engine.serialization.estimate_size`'s exact fast path
BLOCK_OVERHEAD = 64

#: canonical dtypes — blocks coerce on construction so every consumer
#: (kernels, shared-memory descriptors) can assume them
INDEX_DTYPE = np.dtype(np.int64)
VALUE_DTYPE = np.dtype(np.float64)


def _contiguous(arr: Any, dtype: np.dtype[Any]) -> npt.NDArray[Any]:
    return np.ascontiguousarray(arr, dtype=dtype)


class ColumnarBlock:
    """A partition slice of COO nonzeros in columnar layout.

    ``rows`` (optional) is an ``(n, R)`` per-nonzero accumulator or
    an ``(n, q, R)`` per-nonzero queue of ``q`` factor rows, stored in
    queue order (slot 0 is the oldest): the reduce's product order and
    ``to_records()`` both read it front to back, so a rotating head
    index would fork both.  ``key_mode`` (optional) names the index
    column that keys the block for a shuffle.  A block with neither is
    a plain tensor slice.
    """

    __slots__ = ("columns", "values", "rows", "key_mode", "__weakref__")

    columns: tuple[IndexArray, ...]
    values: ValueArray
    rows: ValueArray | None
    key_mode: int | None

    def __init__(self, columns: Sequence[npt.ArrayLike],
                 values: npt.ArrayLike,
                 rows: npt.ArrayLike | None = None,
                 key_mode: int | None = None) -> None:
        columns = tuple(_contiguous(c, INDEX_DTYPE) for c in columns)
        values = _contiguous(values, VALUE_DTYPE)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D array")
        for col in columns:
            if col.ndim != 1 or col.shape[0] != values.shape[0]:
                raise ValueError(
                    "every index column must be 1-D with one entry "
                    "per value")
        if rows is not None:
            rows = _contiguous(rows, VALUE_DTYPE)
            if rows.ndim not in (2, 3) or len(rows) != len(values):
                raise ValueError(
                    "rows must be 2-D (accumulator) or 3-D (queue) "
                    "with one entry per value")
        if key_mode is not None and not 0 <= key_mode < len(columns):
            raise ValueError(
                f"key_mode {key_mode} out of range for a block of "
                f"order {len(columns)}")
        self.columns = columns
        self.values = values
        self.rows = rows
        self.key_mode = key_mode

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def order(self) -> int:
        """Number of tensor modes (index columns)."""
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        """Exact payload bytes (index columns + values + rows)."""
        return (sum(c.nbytes for c in self.columns)
                + self.values.nbytes
                + (0 if self.rows is None else self.rows.nbytes))

    def column(self, mode: int) -> IndexArray:
        """The contiguous index array of one mode."""
        return self.columns[mode]

    @property
    def keys(self) -> IndexArray:
        """The shuffle-key column of a keyed block."""
        if self.key_mode is None:
            raise ValueError("block is not keyed")
        return self.columns[self.key_mode]

    def keyed_by(self, mode: int | None) -> "ColumnarBlock":
        """The same rows keyed by ``mode``'s index column (``None``
        un-keys): an O(1) relabel sharing every array."""
        return ColumnarBlock(self.columns, self.values, self.rows, mode)

    # -- records <-> blocks -------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[tuple[Any, ...]],
                     order: int | None = None) -> "ColumnarBlock":
        """Build a block from ``((i, ..., k), value)`` records,
        preserving record order row for row."""
        records = list(records)
        if order is None:
            order = len(records[0][0]) if records else 0
        n = len(records)
        cols = [np.empty(n, INDEX_DTYPE) for _ in range(order)]
        vals = np.empty(n, VALUE_DTYPE)
        for i, (idx, val) in enumerate(records):
            for m in range(order):
                cols[m][i] = idx[m]
            vals[i] = val
        return cls(tuple(cols), vals)

    def to_records(self) -> list[Any]:
        """Materialize back to ``(tuple[int, ...], float)`` records in
        storage order — bit-identical to the records the block was
        built from.

        The extras follow the record path's shapes: with accumulator
        ``rows`` the payload is the row instead of the value, with
        queue ``rows`` the record is ``((idx, val), (row, ...))``, and
        a keyed block wraps each record as ``(idx[key_mode], record)``
        — exactly the tuples the CSTF joins shuffle record by record.
        """
        rows = self.rows
        payload: Iterable[Any] = (self.values.tolist()
                                  if rows is None or rows.ndim == 3
                                  else rows)
        if not self.columns:
            return [((), v) for v in payload]
        cols = [c.tolist() for c in self.columns]
        records: list[Any] = list(zip(zip(*cols), payload))
        if rows is not None and rows.ndim == 3:
            records = list(zip(records, map(tuple, rows)))
        if self.key_mode is None:
            return records
        return list(zip(cols[self.key_mode], records))

    # -- structural ops -----------------------------------------------
    @classmethod
    def concat(cls, blocks: Sequence["ColumnarBlock"]) -> "ColumnarBlock":
        """Concatenate blocks in the given order (rows keep their
        within-block order)."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("concat of zero blocks is ambiguous "
                             "(unknown order)")
        block: ColumnarBlock = concat_ranges(
            [(b, 0, len(b)) for b in blocks])
        return block

    def take(self, indices: npt.ArrayLike | slice) -> "ColumnarBlock":
        """Sub-block of the given rows, in the given index order (a
        ``slice`` gives a zero-copy view of a contiguous run)."""
        idx = (indices if isinstance(indices, slice)
               else np.asarray(indices, dtype=np.int64))
        return ColumnarBlock(
            tuple(c[idx] for c in self.columns), self.values[idx],
            None if self.rows is None else self.rows[idx],
            self.key_mode)

    def __repr__(self) -> str:
        extras = ""
        if self.rows is not None:
            if self.rows.ndim == 3:
                extras += f", queue={self.rows.shape[1]}"
            extras += f", rank={self.rows.shape[-1]}"
        if self.key_mode is not None:
            extras += f", key_mode={self.key_mode}"
        return (f"ColumnarBlock(order={self.order}, "
                f"nnz={len(self)}, nbytes={self.nbytes}{extras})")

    def __reduce__(self) -> tuple[Any, ...]:
        return (ColumnarBlock,
                (self.columns, self.values, self.rows, self.key_mode))


class KeyedRowBlock:
    """A batch of ``(int key, float64 row)`` pairs in dense layout."""

    __slots__ = ("keys", "rows", "__weakref__")

    keys: IndexArray
    rows: ValueArray

    def __init__(self, keys: npt.ArrayLike, rows: npt.ArrayLike) -> None:
        keys = _contiguous(keys, INDEX_DTYPE)
        rows = _contiguous(rows, VALUE_DTYPE)
        if keys.ndim != 1 or rows.ndim != 2:
            raise ValueError("keys must be 1-D and rows 2-D")
        if keys.shape[0] != rows.shape[0]:
            raise ValueError("one key per row required")
        self.keys = keys
        self.rows = rows

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def rank(self) -> int:
        return self.rows.shape[1]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.rows.nbytes

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, npt.ArrayLike]],
                     rank: int | None = None) -> "KeyedRowBlock":
        records = list(records)
        if not records:
            if rank is None:
                raise ValueError("rank required for an empty block")
            return cls(np.empty(0, INDEX_DTYPE),
                       np.empty((0, rank), VALUE_DTYPE))
        keys = np.fromiter((k for k, _ in records), INDEX_DTYPE,
                           count=len(records))
        rows = np.stack([row for _, row in records])
        return cls(keys, rows)

    def to_records(self) -> list[tuple[int, ValueArray]]:
        """``(int, ndarray row)`` pairs in storage order — the exact
        record shape the per-record kernel path emits."""
        return list(zip(self.keys.tolist(), self.rows))

    @classmethod
    def concat(cls, blocks: Sequence["KeyedRowBlock"]) -> "KeyedRowBlock":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("concat of zero blocks is ambiguous "
                             "(unknown rank)")
        block: KeyedRowBlock = concat_ranges(
            [(b, 0, len(b)) for b in blocks])
        return block

    def take(self, indices: npt.ArrayLike | slice) -> "KeyedRowBlock":
        """Sub-block of the given rows, in the given index order (a
        ``slice`` gives a zero-copy view of a contiguous run)."""
        idx = (indices if isinstance(indices, slice)
               else np.asarray(indices, dtype=np.int64))
        return KeyedRowBlock(self.keys[idx], self.rows[idx])

    def __repr__(self) -> str:
        return (f"KeyedRowBlock(n={len(self)}, rank={self.rank}, "
                f"nbytes={self.nbytes})")

    def __reduce__(self) -> tuple[
            type["KeyedRowBlock"], tuple[IndexArray, ValueArray]]:
        return (KeyedRowBlock, (self.keys, self.rows))


# ----------------------------------------------------------------------
# partition views: blocks as records, many blocks as one
# ----------------------------------------------------------------------
def row_arrays(block: Any) -> list[npt.NDArray[Any]]:
    """A block's row-aligned arrays: keys and rows, or the index
    columns, the values and the rows it carries (if any)."""
    if type(block) is KeyedRowBlock:
        return [block.keys, block.rows]
    extra = [] if block.rows is None else [block.rows]
    return [*block.columns, block.values, *extra]


def with_row_arrays(like: Any, arrays: Sequence[npt.NDArray[Any]]) -> Any:
    """A block laid out as ``like`` over :func:`row_arrays`' arrays."""
    if type(like) is KeyedRowBlock:
        return KeyedRowBlock(*arrays)
    n = like.order
    rows = None if like.rows is None else arrays[n + 1]
    return ColumnarBlock(arrays[:n], arrays[n], rows, like.key_mode)


def layout(block: Any) -> tuple[Any, ...]:
    """Type, key mode and per-row shapes: what concatenated blocks share."""
    return (type(block).__name__, getattr(block, "key_mode", None),
            tuple(a.shape[1:] for a in row_arrays(block)))


def concat_ranges(ranges: Sequence[tuple[Any, int, int]]) -> Any:
    """One block from ``(block, start, stop)`` row ranges, in the given
    order: every column is sliced and concatenated raw, so no block is
    built per range."""
    first, start, stop = ranges[0]
    if len(ranges) == 1:    # nothing to join: a view, not a copy
        return (first if stop - start == len(first)
                else first.take(slice(start, stop)))
    kinds = {layout(b) for b, _, _ in ranges}
    if len(kinds) > 1:
        raise ValueError(
            "cannot concat blocks that disagree on type, key_mode or "
            f"per-row shapes (order, rows, queue length, rank): {kinds}")
    columns = zip(*(row_arrays(b) for b, _, _ in ranges))
    return with_row_arrays(first, [
        np.concatenate([a[lo:hi] for a, (_, lo, hi) in zip(arrays, ranges)])
        for arrays in columns])


def is_block(obj: object) -> bool:
    """Whether ``obj`` is a columnar partition block."""
    return type(obj) is ColumnarBlock or type(obj) is KeyedRowBlock


def is_keyed_block(obj: object) -> bool:
    """Whether ``obj`` is a block a shuffle can bucket by its ``keys``
    column: a :class:`KeyedRowBlock`, or a :class:`ColumnarBlock` with
    a ``key_mode``."""
    return type(obj) is KeyedRowBlock or (
        type(obj) is ColumnarBlock and obj.key_mode is not None)


#: below this many keys the ``min``/``max`` scan and the ``uint16`` copy
#: cost more than the merge sort they avoid (measured break-even)
RADIX_MIN_KEYS = 1024


def stable_argsort(keys: npt.NDArray[np.int64]) -> npt.NDArray[np.intp]:
    """``np.argsort(keys, kind="stable")`` of integer keys as an LSD
    radix sort over 16-bit digits (numpy's stable sort is a radix sort
    only up to 16-bit dtypes, a 5-8x slower merge sort for int64).
    ``keys.max()`` sets the digit count; negative keys, keys >= 2**32
    and short inputs take the plain sort, whose permutation is the
    same: a stable sort's is unique."""
    if keys.shape[0] >= RADIX_MIN_KEYS and keys.min() >= 0:
        top = int(keys.max())
        if top < 1 << 32:
            order = np.argsort(keys.astype(np.uint16), kind="stable")
            if top >= 1 << 16:
                high = (keys >> 16).astype(np.uint16)
                order = order[np.argsort(high[order], kind="stable")]
            return order
    return np.argsort(keys, kind="stable")


def sorted_runs(keys: npt.NDArray[np.int64]) -> tuple[
        npt.NDArray[np.intp], npt.NDArray[np.int64], npt.NDArray[np.intp]]:
    """Group ``keys`` by value: ``(order, sorted_keys, starts)`` — the
    :func:`stable_argsort` permutation, the keys in that order and the
    offset at which each distinct key's run begins.  Runs keep record
    order, so ``order[starts]`` is where each key first occurs."""
    order = stable_argsort(keys)
    sorted_keys = keys[order]
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order, sorted_keys, np.flatnonzero(first)


def partition_order(
        pids: npt.NDArray[np.int64], num_partitions: int,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Group rows by target partition: ``(order, offsets)`` — the
    :func:`stable_argsort` permutation of ``pids`` (a single radix
    pass: partition ids are small) and the ``num_partitions + 1``
    offsets at which each partition's rows begin once gathered by it.
    Rows keep their original relative order within a partition — the
    order per-record bucket appends would produce."""
    offsets = np.zeros(num_partitions + 1, dtype=np.intp)
    np.cumsum(np.bincount(pids, minlength=num_partitions),
              out=offsets[1:])
    return stable_argsort(pids), offsets


#: a block type: both cut themselves with ``take``
_Block = TypeVar("_Block", "ColumnarBlock", "KeyedRowBlock")


def partition_rows(block: _Block, pids: npt.NDArray[np.int64],
                   num_partitions: int) -> list[_Block]:
    """``block`` cut into one block of its type per partition (empty
    ones included) given each row's target partition, by one radix
    grouping pass and a slice per partition; rows keep their relative
    order, so index-ordered rows stay index-ordered — how a factor and
    a hash- or range-placed tensor are distributed."""
    order, offsets = partition_order(pids, num_partitions)
    gathered = block.take(order)
    return [gathered.take(slice(start, stop))
            for start, stop in zip(offsets[:-1], offsets[1:])]


def iter_records(partition: Iterable[Any]) -> Iterator[Any]:
    """Iterate a partition as plain records, expanding any block into
    its rows in storage order (non-block items pass through)."""
    for item in partition:
        if is_block(item):
            yield from item.to_records()
        else:
            yield item


def record_count(partition: Iterable[Any]) -> int:
    """Logical record count of a partition: blocks count their rows."""
    return sum(len(item) if is_block(item) else 1
               for item in partition)


def _coalesce(partition: Iterable[Any], kind: Any, what: str,
              fix: str) -> Any:
    """One partition's blocks of type ``kind`` as a single block, rows
    in block-then-row order (``None`` when it holds no rows, the one
    non-empty block as is); anything else is refused by name."""
    blocks = []
    for item in partition:
        if type(item) is not kind:
            raise TypeError(
                f"a {what} partition must hold {kind.__name__}s, got "
                f"{type(item).__name__}; {fix}")
        if len(item):
            blocks.append(item)
    if len(blocks) > 1:
        return kind.concat(blocks)
    return blocks[0] if blocks else None


def coalesce_blocks(partition: Iterable[Any]) -> ColumnarBlock | None:
    """One tensor partition as a single :class:`ColumnarBlock`, rows in
    block-then-row order; ``None`` when it holds no rows.  Anything but
    a ``ColumnarBlock`` is refused here, by name: a stray record would
    otherwise fail retries deep inside ``concat``."""
    block: ColumnarBlock | None = _coalesce(
        partition, ColumnarBlock, "tensor",
        "distribute the tensor with COOTensor.partition_blocks + "
        "Context.parallelize_blocks")
    return block


def coalesce_rows(partition: Iterable[Any]) -> KeyedRowBlock | None:
    """:func:`coalesce_blocks` for the factor side: one factor or
    MTTKRP-output partition as a single :class:`KeyedRowBlock`, or
    ``None`` — the common case for a short mode, most of whose
    partitions are empty."""
    block: KeyedRowBlock | None = _coalesce(
        partition, KeyedRowBlock, "factor",
        "distribute a factor with CPALSDriver._distribute_factor and "
        "produce row sums with Kernel.sum_rows_by_key")
    return block
