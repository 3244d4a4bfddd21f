"""Core tensor algebra: Khatri-Rao, Kronecker, Hadamard, MTTKRP and the
CP model arithmetic the decomposition drivers need.

The local (single-process, vectorised numpy) MTTKRP here is the
correctness oracle against which the distributed CSTF workflows are
tested; it is also the compute kernel of the
:mod:`repro.baselines.local_als` reference.

Index conventions follow Kolda & Bader, *Tensor Decompositions and
Applications* (SIAM Review 2009), matching the paper:
``X(n) = A_n (A_N ⊙ ... ⊙ A_{n+1} ⊙ A_{n-1} ⊙ ... ⊙ A_1)^T`` where in
``A ⊙ B`` the rows of ``B`` vary fastest.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .coo import COOTensor


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
def hadamard(*matrices: np.ndarray) -> np.ndarray:
    """Element-wise product of equally-shaped matrices (paper's ``*``)."""
    if not matrices:
        raise ValueError("hadamard of no matrices")
    out = np.array(matrices[0], copy=True)
    for m in matrices[1:]:
        if m.shape != out.shape:
            raise ValueError(
                f"shape mismatch in hadamard: {m.shape} vs {out.shape}")
        out *= m
    return out


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (paper's ``⊗``)."""
    return np.kron(a, b)


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product (paper's ``⊙``).

    For ``A (I x R)`` and ``B (J x R)``, ``A ⊙ B`` is ``(I*J) x R`` with
    row ``i*J + j`` equal to ``A[i] * B[j]`` — B's rows vary fastest.
    Explicitly materialising this is the "intermediate data explosion"
    CSTF avoids; it exists here for validation on small tensors.
    """
    if not matrices:
        raise ValueError("khatri_rao of no matrices")
    rank = matrices[0].shape[1]
    for m in matrices:
        if m.ndim != 2 or m.shape[1] != rank:
            raise ValueError("khatri_rao operands must share column count")
    out = matrices[0]
    for m in matrices[1:]:
        i, j = out.shape[0], m.shape[0]
        out = (out[:, None, :] * m[None, :, :]).reshape(i * j, rank)
    return out


# ----------------------------------------------------------------------
# MTTKRP
# ----------------------------------------------------------------------
def mttkrp(tensor: COOTensor, factors: Sequence[np.ndarray],
           mode: int) -> np.ndarray:
    """Matricized Tensor Times Khatri-Rao Product along ``mode``
    (Equation 3 of the paper), vectorised over the nonzeros:

    ``M(i_n, :) += X(i_1..i_N) * prod_{m != n} A_m(i_m, :)``
    """
    tensor._check_mode(mode)
    if len(factors) != tensor.order:
        raise ValueError(
            f"need {tensor.order} factors, got {len(factors)}")
    rank = factors[0].shape[1]
    idx = tensor.indices
    parts = tensor.values[:, None].copy()
    if parts.shape[1] != rank:
        parts = np.repeat(parts, rank, axis=1)
    for m, factor in enumerate(factors):
        if m == mode:
            continue
        if factor.shape[0] != tensor.shape[m]:
            raise ValueError(
                f"factor {m} has {factor.shape[0]} rows, mode size is "
                f"{tensor.shape[m]}")
        parts *= factor[idx[:, m]]
    out = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    np.add.at(out, idx[:, mode], parts)
    return out


def mttkrp_via_unfolding(tensor: COOTensor, factors: Sequence[np.ndarray],
                         mode: int) -> np.ndarray:
    """MTTKRP by explicit matricization and Khatri-Rao (Equation 1) —
    the memory-hungry formulation BIGtensor is built around.  Quadratic
    in mode sizes; for validation on small tensors only."""
    from .unfold import unfold  # local import to avoid a cycle
    rank = factors[0].shape[1]
    others = [factors[m] for m in range(tensor.order - 1, -1, -1)
              if m != mode]
    kr = khatri_rao(others)  # (prod I_m) x R
    x_n = unfold(tensor, mode)  # scipy.sparse, I_n x prod I_m
    out = x_n @ kr
    return np.asarray(out).reshape(tensor.shape[mode], rank)


# ----------------------------------------------------------------------
# the Tucker core CORCONDIA measures a CP model against
# ----------------------------------------------------------------------
def sparse_tucker_core(tensor: COOTensor,
                       factors: Sequence[np.ndarray],
                       chunk: int = 65536) -> np.ndarray:
    """The Tucker core ``G = X x_1 U_1^T x_2 ... x_N U_N^T`` contracted
    directly against the nonzeros:

    ``G[r_1..r_N] = sum_z X_z * prod_n U_n[i_n(z), r_n]``

    Memory is bounded by chunking the nonzeros; each chunk materialises
    an ``(chunk, R_1, ..., R_N)`` intermediate.
    """
    if len(factors) != tensor.order:
        raise ValueError(
            f"need {tensor.order} factors, got {len(factors)}")
    ranks = tuple(f.shape[1] for f in factors)
    core = np.zeros(ranks)
    idx = tensor.indices
    vals = tensor.values
    for start in range(0, tensor.nnz, chunk):
        stop = min(start + chunk, tensor.nnz)
        acc = vals[start:stop]
        for m, factor in enumerate(factors):
            rows = factor[idx[start:stop, m]]  # (z, R_m)
            acc = acc[..., None] * rows.reshape(
                rows.shape[:1] + (1,) * m + (ranks[m],))
        core += acc.sum(axis=0)
    return core


# ----------------------------------------------------------------------
# CP (Kruskal) model arithmetic
# ----------------------------------------------------------------------
def cp_reconstruct(lambdas: np.ndarray,
                   factors: Sequence[np.ndarray]) -> np.ndarray:
    """Dense tensor of the CP model ``[lambda; A_1 .. A_N]`` — small
    tensors only (tests)."""
    rank = factors[0].shape[1]
    shape = tuple(f.shape[0] for f in factors)
    out = np.zeros(shape)
    for r in range(rank):
        component = lambdas[r]
        vecs = [f[:, r] for f in factors]
        outer = vecs[0]
        for v in vecs[1:]:
            outer = np.multiply.outer(outer, v)
        out += component * outer
    return out


def cp_model_norm(lambdas: np.ndarray,
                  factors: Sequence[np.ndarray]) -> float:
    """``||X̂||_F`` of a CP model without materialising it:
    ``||X̂||² = lambdaᵀ (∏_n A_nᵀA_n) lambda`` (Hadamard product)."""
    grams = hadamard(*[f.T @ f for f in factors])
    sq = float(lambdas @ grams @ lambdas)
    return float(np.sqrt(max(sq, 0.0)))


def cp_inner_product(tensor: COOTensor, lambdas: np.ndarray,
                     factors: Sequence[np.ndarray]) -> float:
    """``<X, X̂>`` using only the nonzeros of ``X``."""
    rank = factors[0].shape[1]
    idx = tensor.indices
    parts = np.ones((tensor.nnz, rank))
    for m, factor in enumerate(factors):
        parts *= factor[idx[:, m]]
    return float(tensor.values @ (parts @ lambdas))


def cp_fit(tensor: COOTensor, lambdas: np.ndarray,
           factors: Sequence[np.ndarray]) -> float:
    """CP fit ``1 - ||X - X̂|| / ||X||`` computed from nonzeros and grams
    (never materialising X̂), the CP-ALS stopping metric."""
    norm_x_sq = tensor.norm() ** 2
    norm_model = cp_model_norm(lambdas, factors)
    inner = cp_inner_product(tensor, lambdas, factors)
    residual_sq = max(norm_x_sq + norm_model ** 2 - 2.0 * inner, 0.0)
    if norm_x_sq == 0.0:
        return 1.0
    return 1.0 - np.sqrt(residual_sq) / np.sqrt(norm_x_sq)
