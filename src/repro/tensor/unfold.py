"""Mode-n matricization (unfolding) of sparse tensors.

BIGtensor/GigaTensor operate on the *matricized* tensor ``X(n)``
(Section 2.1 / 4.3 of the paper): an ``I_n x prod_{m!=n} I_m`` sparse
matrix whose column index linearises all other modes.  CSTF's point is
to avoid this; we implement it for the baseline and for validation.

Column ordering follows Kolda & Bader: among the non-``n`` modes, lower
mode indices vary fastest, so
``col = sum_{m != n} i_m * prod_{l < m, l != n} I_l``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .coo import COOTensor

if TYPE_CHECKING:
    import scipy.sparse as sp


def column_strides(shape: tuple[int, ...], mode: int) -> np.ndarray:
    """Stride of each mode in the linearised column index of the mode-n
    unfolding (stride of ``mode`` itself is 0)."""
    strides = np.zeros(len(shape), dtype=np.int64)
    acc = 1
    for m, size in enumerate(shape):
        if m == mode:
            continue
        strides[m] = acc
        acc *= int(size)
    return strides


def linearize_columns(tensor: COOTensor, mode: int) -> np.ndarray:
    """Column index of every nonzero in the mode-``mode`` unfolding."""
    tensor._check_mode(mode)
    strides = column_strides(tensor.shape, mode)
    return tensor.indices @ strides


def delinearize_column(col: int, shape: tuple[int, ...], mode: int,
                       ) -> tuple[int, ...]:
    """Recover the non-``mode`` indices from a linearised column index
    (inverse of :func:`linearize_columns` for a single coordinate)."""
    out = [0] * len(shape)
    for m, size in enumerate(shape):
        if m == mode:
            continue
        out[m] = col % int(size)
        col //= int(size)
    return tuple(out)


def unfold(tensor: COOTensor, mode: int) -> sp.csr_matrix:
    """The sparse mode-``mode`` matricization ``X(mode)``."""
    from scipy.sparse import csr_matrix
    tensor._check_mode(mode)
    rows = tensor.indices[:, mode]
    cols = linearize_columns(tensor, mode)
    n_cols = 1
    for m, size in enumerate(tensor.shape):
        if m != mode:
            n_cols *= int(size)
    return csr_matrix(
        (tensor.values, (rows, cols)),
        shape=(tensor.shape[mode], n_cols))


def fold(matrix: sp.spmatrix, shape: tuple[int, ...],
         mode: int) -> COOTensor:
    """Inverse of :func:`unfold`: rebuild the COO tensor from ``X(mode)``."""
    from scipy.sparse import coo_matrix
    coo = coo_matrix(matrix)
    order = len(shape)
    indices = np.zeros((coo.nnz, order), dtype=np.int64)
    indices[:, mode] = coo.row
    cols = coo.col.astype(np.int64)
    for m, size in enumerate(shape):
        if m == mode:
            continue
        indices[:, m] = cols % int(size)
        cols //= int(size)
    return COOTensor(indices, coo.data.astype(np.float64), shape)


def bin_values(tensor: COOTensor) -> COOTensor:
    """The paper's ``bin()``: replace every stored nonzero value by 1,
    preserving the sparsity pattern (used in BIGtensor's STAGE-2)."""
    return COOTensor(tensor.indices.copy(),
                     np.ones(tensor.nnz, dtype=np.float64), tensor.shape)
