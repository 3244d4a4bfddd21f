"""High-level one-call API.

``decompose`` wraps the full pipeline — variant selection (via the
structure advisor), context creation, CP-ALS — behind one function for
users who don't want to assemble the pieces:

    from repro.api import decompose

    result = decompose(tensor, rank=8)             # advisor picks
    result = decompose(tensor, rank=8, algorithm="cstf-qcoo",
                       num_nodes=16)
"""

from __future__ import annotations

from typing import Any

from .core.cp_als import CPALSDriver
from .core.cstf_coo import CstfCOO
from .core.cstf_qcoo import CstfQCOO
from .core.result import CPDecomposition
from .engine.context import Context
from .tensor.coo import COOTensor
from .tensor.stats import recommend_algorithm

_DRIVERS: dict[str, type[CPALSDriver]] = {
    "cstf-coo": CstfCOO,
    "cstf-qcoo": CstfQCOO,
}


def decompose(tensor: COOTensor, rank: int,
              algorithm: str = "auto",
              num_nodes: int = 8,
              num_partitions: int | None = None,
              **decompose_kwargs: Any) -> CPDecomposition:
    """Decompose ``tensor`` at ``rank`` with sensible defaults.

    ``algorithm="auto"`` profiles the tensor's structure and picks a
    CSTF variant (:func:`repro.tensor.stats.recommend_algorithm`); or
    name ``cstf-coo`` or ``cstf-qcoo`` explicitly.  Remaining keyword
    arguments pass through to
    :meth:`~repro.core.cp_als.CPALSDriver.decompose`
    (``max_iterations``, ``tol``, ``init``, ``seed``, ...).

    The context is created and stopped internally; for metrics access
    or repeated runs, drive a :class:`~repro.engine.Context` and a
    driver class directly.
    """
    if algorithm == "auto":
        recommendation = recommend_algorithm(tensor,
                                             cluster_nodes=num_nodes)
        algorithm = recommendation.algorithm
    try:
        cls = _DRIVERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: "
            f"{sorted(_DRIVERS)} or 'auto'") from None
    tensor = tensor.deduplicate() if tensor.has_duplicates() else tensor
    with Context(num_nodes=num_nodes,
                 default_parallelism=num_partitions
                 or 4 * num_nodes) as ctx:
        return cls(ctx, num_partitions=num_partitions).decompose(
            tensor, rank, **decompose_kwargs)
