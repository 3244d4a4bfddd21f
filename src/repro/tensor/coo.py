"""Coordinate-format (COO) sparse tensors.

CSTF's central data structure (Section 4.1): the tensor is a list of
``(i_1, ..., i_N, value)`` tuples.  Driver-side we hold the nonzeros in
numpy arrays (an ``nnz x N`` int index matrix plus an ``nnz`` value
vector); :meth:`COOTensor.records` converts to the per-nonzero tuples an
RDD distributes.
"""

from __future__ import annotations

import math

from typing import Iterable, Iterator, Sequence

import numpy as np


class COOTensor:
    """An N-way sparse tensor in coordinate format.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, order)``; ``indices[z, m]`` is the
        mode-``m`` index of the ``z``-th nonzero.
    values:
        Float array of shape ``(nnz,)``.
    shape:
        Mode sizes ``(I_1, ..., I_N)``.  Inferred as ``max+1`` per mode
        when omitted.

    Duplicated coordinates are allowed on construction (generators may
    emit them); call :meth:`deduplicate` to sum them, which the CP-ALS
    drivers require.
    """

    __slots__ = ("indices", "values", "shape")

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 shape: Sequence[int] | None = None):
        indices = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if indices.ndim != 2:
            raise ValueError(
                f"indices must be 2-D (nnz, order), got shape {indices.shape}")
        if values.ndim != 1:
            raise ValueError(
                f"values must be 1-D, got shape {values.shape}")
        if indices.shape[0] != values.shape[0]:
            raise ValueError(
                f"{indices.shape[0]} index rows but {values.shape[0]} values")
        if indices.size and indices.min() < 0:
            raise ValueError("negative tensor indices")
        if shape is None:
            if indices.shape[0] == 0:
                raise ValueError("cannot infer shape of an empty tensor")
            shape = tuple(int(m) + 1 for m in indices.max(axis=0))
        else:
            shape = tuple(int(s) for s in shape)
            if len(shape) != indices.shape[1]:
                raise ValueError(
                    f"shape has {len(shape)} modes but indices have "
                    f"{indices.shape[1]}")
            if indices.size:
                maxes = indices.max(axis=0)
                for m, (mx, sz) in enumerate(zip(maxes, shape)):
                    if mx >= sz:
                        raise ValueError(
                            f"mode-{m} index {mx} out of range for size {sz}")
        self.indices = indices
        self.values = values
        self.shape = shape

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes (ways) of the tensor."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """nnz / product of mode sizes (Table 5's density column)."""
        total = 1.0
        for s in self.shape:
            total *= float(s)
        return self.nnz / total if total else 0.0

    @property
    def max_mode_size(self) -> int:
        """Largest mode dimension (Table 5's "Max mode size")."""
        return max(self.shape)

    def norm(self) -> float:
        """Frobenius norm, ``sqrt(sum of squared nonzeros)``."""
        return float(np.linalg.norm(self.values))

    # ------------------------------------------------------------------
    def deduplicate(self) -> "COOTensor":
        """Sum values of repeated coordinates; returns a new tensor with
        unique, lexicographically sorted coordinates."""
        if self.nnz == 0:
            return self
        uniq, inverse = np.unique(self.indices, axis=0, return_inverse=True)
        summed = np.zeros(uniq.shape[0], dtype=np.float64)
        np.add.at(summed, inverse, self.values)
        return COOTensor(uniq, summed, self.shape)

    def has_duplicates(self) -> bool:
        """True iff some coordinate appears more than once (sorted
        int64 linear indices, neighbours compared: 50x faster than a
        row-wise ``np.unique``, and every ``decompose`` asks)."""
        if math.prod(self.shape) >= 1 << 63:  # no int64 linear index
            return np.unique(self.indices, axis=0).shape[0] < self.nnz
        linear = np.sort(np.ravel_multi_index(
            tuple(self.indices.T), self.shape))
        return bool((linear[1:] == linear[:-1]).any())

    def drop_zeros(self, tol: float = 0.0) -> "COOTensor":
        """Remove stored entries with ``|value| <= tol``."""
        keep = np.abs(self.values) > tol
        return COOTensor(self.indices[keep], self.values[keep], self.shape)

    def permuted(self, rng: np.random.Generator) -> "COOTensor":
        """Randomly permute the nonzero ordering (load-balance tests)."""
        perm = rng.permutation(self.nnz)
        return COOTensor(self.indices[perm], self.values[perm], self.shape)

    def transpose(self, mode_order: Sequence[int]) -> "COOTensor":
        """Permute the tensor's modes (the sparse analogue of
        ``np.transpose``)."""
        order = tuple(int(m) for m in mode_order)
        if sorted(order) != list(range(self.order)):
            raise ValueError(
                f"mode_order must permute 0..{self.order - 1}, "
                f"got {order}")
        return COOTensor(self.indices[:, order], self.values.copy(),
                         tuple(self.shape[m] for m in order))

    def scale(self, alpha: float) -> "COOTensor":
        """Multiply every stored value by ``alpha``."""
        return COOTensor(self.indices.copy(), self.values * alpha,
                         self.shape)

    def add(self, other: "COOTensor") -> "COOTensor":
        """Element-wise sum of two same-shaped sparse tensors."""
        if other.shape != self.shape:
            raise ValueError(
                f"shape mismatch: {self.shape} vs {other.shape}")
        indices = np.vstack([self.indices, other.indices])
        values = np.concatenate([self.values, other.values])
        return COOTensor(indices, values, self.shape).deduplicate()\
            .drop_zeros()

    def slice_mode(self, mode: int, keep: Sequence[int]) -> "COOTensor":
        """Restrict one mode to the given index list (re-labelled
        ``0..len(keep)-1``), e.g. selecting a user cohort."""
        self._check_mode(mode)
        keep = np.asarray(sorted(set(int(k) for k in keep)), dtype=np.int64)
        if keep.size and (keep[0] < 0 or keep[-1] >= self.shape[mode]):
            raise ValueError("keep indices out of range")
        relabel = -np.ones(self.shape[mode], dtype=np.int64)
        relabel[keep] = np.arange(keep.size)
        mask = relabel[self.indices[:, mode]] >= 0
        indices = self.indices[mask].copy()
        indices[:, mode] = relabel[indices[:, mode]]
        shape = list(self.shape)
        shape[mode] = int(keep.size)
        return COOTensor(indices, self.values[mask], shape)

    # ------------------------------------------------------------------
    def records(self) -> Iterator[tuple]:
        """Yield ``(idx_tuple, value)`` per nonzero — the record format
        the distributed algorithms parallelize."""
        idx = self.indices
        vals = self.values
        for z in range(self.nnz):
            yield (tuple(int(i) for i in idx[z]), float(vals[z]))

    @classmethod
    def from_records(cls, records: Iterable[tuple],
                     shape: Sequence[int] | None = None) -> "COOTensor":
        """Inverse of :meth:`records`."""
        records = list(records)
        if not records:
            raise ValueError("no records")
        order = len(records[0][0])
        indices = np.empty((len(records), order), dtype=np.int64)
        values = np.empty(len(records), dtype=np.float64)
        for z, (idx, val) in enumerate(records):
            indices[z] = idx
            values[z] = val
        return cls(indices, values, shape)

    # ------------------------------------------------------------------
    def to_block(self) -> "object":
        """The whole tensor as one columnar partition block
        (:class:`~repro.engine.blocks.ColumnarBlock`): one contiguous
        index array per mode plus the values array, rows in storage
        order."""
        from ..engine.blocks import ColumnarBlock
        cols = tuple(self.indices[:, m] for m in range(self.order))
        return ColumnarBlock(cols, self.values)

    def partition_blocks(self, partitioning: str,
                         num_partitions: int) -> list:
        """Split the tensor into one columnar block per partition,
        mirroring the record-path placement schemes bit for bit:

        * ``"input"`` — contiguous slices in storage order (the
          ``parallelize`` divmod split);
        * ``"hash"`` — each nonzero placed by the stable hash of its
          full index tuple (vectorized, pinned identical to the scalar
          ``HashPartitioner`` path);
        * ``"range:<mode>"`` — contiguous ranges of one mode's index
          (``RangePartitioner.for_key_range``).

        Within every partition, nonzeros keep their original relative
        order — exactly the order per-record placement produces — so a
        block pipeline and a record pipeline see identical partitions.
        """
        from ..engine.blocks import ColumnarBlock, partition_rows
        from ..engine.partitioner import HashPartitioner, RangePartitioner
        n = num_partitions
        block = self.to_block()
        if partitioning == "input":
            step, extra = divmod(self.nnz, n)
            out = []
            start = 0
            for i in range(n):
                end = start + step + (1 if i < extra else 0)
                out.append(ColumnarBlock(
                    tuple(c[start:end] for c in block.columns),
                    block.values[start:end]))
                start = end
            return out
        if partitioning == "hash":
            pids = HashPartitioner(n).partition_tuple_columns(
                block.columns)
        elif partitioning.startswith("range:"):
            mode = int(partitioning.split(":", 1)[1])
            self._check_mode(mode)
            part = RangePartitioner.for_key_range(self.shape[mode], n)
            pids = part.partition_int_keys(block.column(mode))
        else:
            raise ValueError(
                f"unknown tensor partitioning {partitioning!r}")
        return partition_rows(block, pids, n)

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray — only for small test tensors."""
        total = 1
        for s in self.shape:
            total *= s
        if total > 50_000_000:
            raise MemoryError(
                f"refusing to densify a tensor with {total} cells")
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, tuple(self.indices.T), self.values)
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "COOTensor":
        dense = np.asarray(dense, dtype=np.float64)
        coords = np.argwhere(np.abs(dense) > tol)
        values = dense[tuple(coords.T)]
        return cls(coords, values, dense.shape)

    # ------------------------------------------------------------------
    def mode_slice_counts(self, mode: int) -> np.ndarray:
        """nonzeros per index of ``mode`` — skew diagnostics."""
        self._check_mode(mode)
        counts = np.zeros(self.shape[mode], dtype=np.int64)
        np.add.at(counts, self.indices[:, mode], 1)
        return counts

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.order:
            raise ValueError(
                f"mode {mode} out of range for order-{self.order} tensor")

    def __repr__(self) -> str:
        return (f"COOTensor(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.3e})")
