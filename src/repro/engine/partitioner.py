"""Partitioners: decide which partition a key-value record belongs to.

Mirrors Spark's ``Partitioner`` contract, including equality semantics:
two RDDs co-partitioned with *equal* partitioners can be joined with a
narrow dependency (no shuffle).  That property is what lets CSTF keep the
factor-matrix side of every join local (Section 4.2: "the i-th row of A
... remains in the same partition without introducing more
communication").

Hashing must be deterministic across processes (Python randomizes string
hashes per interpreter), so we use a portable stable hash.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

import numpy as np

_MASK = (1 << 63) - 1


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for partitioning keys.

    Supports the key types the library uses (ints, floats, strings,
    bytes, None and tuples thereof).  Integers hash to themselves so that
    mode indices spread uniformly, matching Spark's
    ``HashPartitioner`` behaviour on ``Int`` keys.
    """
    if isinstance(key, (bool, np.bool_)):
        return int(key)
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK
    if isinstance(key, (float, np.floating)):
        f = float(key)
        if f.is_integer():
            return int(f) & _MASK
        return zlib.crc32(repr(f).encode()) & _MASK
    if isinstance(key, str):
        return zlib.crc32(key.encode()) & _MASK
    if isinstance(key, bytes):
        return zlib.crc32(key) & _MASK
    if key is None:
        return 0
    if isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 1000003) ^ stable_hash(item)
            h &= _MASK
        return h
    raise TypeError(f"unhashable partition key type: {type(key).__name__}")


def stable_hash_int_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stable_hash` for an integer key array —
    ``key & _MASK`` element-wise, pinned bit-identical to the scalar
    path by a unit test."""
    return (np.asarray(keys).astype(np.uint64) & np.uint64(_MASK)
            ).astype(np.int64)


def stable_hash_tuple_columns(columns: Iterable[np.ndarray]) -> np.ndarray:
    """Vectorized :func:`stable_hash` of integer *tuple* keys given in
    columnar form: ``columns[m][i]`` is element ``m`` of key ``i``.

    Replays the scalar tuple fold in ``uint64``: the multiply wraps
    mod 2**64, but the subsequent ``& _MASK`` keeps only the low 63
    bits, and a 63-bit XOR operand cannot feel the discarded high
    bits — so wrap-around arithmetic is exact here.
    """
    columns = list(columns)
    mask = np.uint64(_MASK)
    mul = np.uint64(1000003)
    n = columns[0].shape[0] if columns else 0
    h = np.full(n, 0x345678, dtype=np.uint64)
    for col in columns:
        v = np.asarray(col).astype(np.uint64) & mask
        h = ((h * mul) ^ v) & mask
    return h.astype(np.int64)


class Partitioner:
    """Base class; subclasses must implement :meth:`get_partition`."""

    num_partitions: int

    def get_partition(self, key: Any) -> int:
        """Partition index in ``[0, num_partitions)`` for ``key``."""
        raise NotImplementedError

    def partition_int_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`get_partition` over an integer key array
        (the columnar-block fast path).  The generic fallback loops;
        subclasses override with array arithmetic that is pinned
        bit-identical to the scalar path."""
        return np.fromiter(
            (self.get_partition(int(k)) for k in np.asarray(keys)),
            dtype=np.int64, count=len(keys))

    def __eq__(self, other: object) -> bool:  # pragma: no cover - abstract
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError


def slice_partitions(count: int, num_partitions: int) -> np.ndarray:
    """The partition of each of ``count`` rows under ``parallelize``'s
    placement: contiguous slices in storage order, the first ``count %
    num_partitions`` of them one row longer."""
    step, extra = divmod(count, num_partitions)
    return np.repeat(np.arange(num_partitions),
                     step + (np.arange(num_partitions) < extra))


class HashPartitioner(Partitioner):
    """Partition by ``stable_hash(key) % num_partitions`` (Spark default)."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def get_partition(self, key: Any) -> int:
        """``stable_hash(key) mod num_partitions``."""
        return stable_hash(key) % self.num_partitions

    def partition_int_keys(self, keys: np.ndarray) -> np.ndarray:
        hashed = stable_hash_int_array(keys).astype(np.uint64)
        return (hashed % np.uint64(self.num_partitions)).astype(np.int64)

    def partition_tuple_columns(
            self, columns: Iterable[np.ndarray]) -> np.ndarray:
        """Vectorized placement of integer-tuple keys given as columns
        (how a :class:`~repro.engine.blocks.ColumnarBlock` hashes its
        index rows without building a tuple per nonzero)."""
        hashed = stable_hash_tuple_columns(columns).astype(np.uint64)
        return (hashed % np.uint64(self.num_partitions)).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HashPartitioner)
                and other.num_partitions == self.num_partitions)

    def __hash__(self) -> int:
        return hash(("hash", self.num_partitions))

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Partition ordered keys into contiguous ranges.

    Keys in ``[bounds[i-1], bounds[i])`` go to partition ``i``.  Bounds
    may be any mutually comparable values (ints for the mode-major
    tensor ablation).
    """

    def __init__(self, bounds: Iterable):
        self.bounds = sorted(bounds)
        self.num_partitions = len(self.bounds) + 1

    @classmethod
    def for_key_range(cls, max_key: int, num_partitions: int) -> "RangePartitioner":
        """Evenly split ``[0, max_key)`` into ``num_partitions`` ranges."""
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        if num_partitions == 1:
            return cls([])
        step = max(1, max_key // num_partitions)
        return cls([step * i for i in range(1, num_partitions)])

    def get_partition(self, key: Any) -> int:
        """Index of the range containing ``key``."""
        # binary search over the (small) bounds list
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def partition_int_keys(self, keys: np.ndarray) -> np.ndarray:
        # get_partition computes "number of bounds <= key", which is
        # exactly searchsorted from the right
        bounds = np.asarray(self.bounds, dtype=np.int64)
        return np.searchsorted(bounds, np.asarray(keys), side="right"
                               ).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RangePartitioner)
                and other.bounds == self.bounds)

    def __hash__(self) -> int:
        return hash(("range", tuple(self.bounds)))

    def __repr__(self) -> str:
        return f"RangePartitioner({self.num_partitions} ranges)"
