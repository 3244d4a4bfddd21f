"""Factor initialisation strategies for CP-ALS.

``random`` (uniform, the paper's implicit choice) and ``nvecs`` — the
HOSVD-style initialisation of the Tensor Toolbox: mode-``n`` factor
columns are the leading ``R`` left singular vectors of the sparse
unfolding ``X(n)``, computed with sparse iterative SVD.  nvecs usually
starts ALS much closer to a good optimum on structured tensors, at the
cost of one truncated SVD per mode.
"""

from __future__ import annotations

import numpy as np

from .coo import COOTensor
from .dense import random_factors
from .unfold import unfold


def nvecs_init(tensor: COOTensor, rank: int,
               seed: int | None = 0) -> list[np.ndarray]:
    """Leading-singular-vector initialisation, one factor per mode.

    Modes too small for a truncated SVD of the requested rank (``svds``
    needs ``rank < min(matrix shape)``) fall back to dense SVD; ranks
    exceeding a mode size pad with random columns.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    factors: list[np.ndarray] = []
    for mode in range(tensor.order):
        x_n = unfold(tensor, mode)
        k = min(rank, min(x_n.shape) - 1) if min(x_n.shape) > 1 else 0
        if k >= 1:
            from scipy.sparse.linalg import svds
            u, _s, _vt = svds(x_n.astype(np.float64), k=k,
                              random_state=0)
            u = u[:, ::-1]  # svds returns ascending singular values
        else:
            u = np.zeros((x_n.shape[0], 0))
        if u.shape[1] < rank:  # pad with random columns
            pad = rng.random((x_n.shape[0], rank - u.shape[1]))
            u = np.hstack([u, pad])
        factors.append(np.ascontiguousarray(u[:, :rank]))
    return factors


def initial_factors(tensor: COOTensor, rank: int, init: str = "random",
                    seed: int | None = 0) -> list[np.ndarray]:
    """Dispatch on strategy name: ``"random"`` or ``"nvecs"``."""
    if init == "random":
        return random_factors(tensor.shape, rank, seed)
    if init == "nvecs":
        return nvecs_init(tensor, rank, seed)
    raise ValueError(
        f"init must be 'random' or 'nvecs', got {init!r}")
