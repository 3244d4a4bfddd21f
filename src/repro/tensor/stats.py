"""Sparse tensor structure statistics and the algorithm advisor.

A production library should tell its user *which* variant fits their
tensor.  The statistics here quantify two structural properties:

* **fiber collapse** — how many distinct index pairs remain when one
  mode is summed out;
* **mode skew** — the Gini coefficient of nonzeros per slice; heavy
  skew stresses partitioning and favours nonzero hashing.

:func:`recommend_algorithm` turns the tensor order, the cluster size
and the skew into a COO-or-QCOO suggestion with the reasoning
attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import COOTensor


def slice_gini(tensor: COOTensor, mode: int) -> float:
    """Gini coefficient of nonzeros per mode-``mode`` slice: 0 for a
    perfectly uniform distribution, toward 1 for heavy concentration.
    Empty slices participate (they are real imbalance)."""
    counts = np.sort(tensor.mode_slice_counts(mode).astype(np.float64))
    n = counts.size
    total = counts.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * ranks - n - 1) @ counts / (n * total))


def fiber_collapse(tensor: COOTensor, drop_mode: int) -> float:
    """``1 - distinct_remaining_tuples / nnz`` after summing out
    ``drop_mode``: 0 when every fiber holds one nonzero (no collapse),
    toward 1 when many nonzeros share the remaining indices."""
    tensor._check_mode(drop_mode)
    if tensor.nnz == 0:
        return 0.0
    keep = [m for m in range(tensor.order) if m != drop_mode]
    remaining = np.unique(tensor.indices[:, keep], axis=0).shape[0]
    return 1.0 - remaining / tensor.nnz


@dataclass(frozen=True)
class TensorProfile:
    """Structural summary of a sparse tensor."""

    shape: tuple[int, ...]
    nnz: int
    density: float
    #: Gini coefficient per mode
    skew: tuple[float, ...]
    #: fiber collapse per dropped mode
    collapse: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def max_skew(self) -> float:
        return max(self.skew)


def profile_tensor(tensor: COOTensor) -> TensorProfile:
    """Compute the full structural profile."""
    return TensorProfile(
        shape=tensor.shape,
        nnz=tensor.nnz,
        density=tensor.density,
        skew=tuple(slice_gini(tensor, m) for m in range(tensor.order)),
        collapse=tuple(fiber_collapse(tensor, m)
                       for m in range(tensor.order)))


@dataclass(frozen=True)
class Recommendation:
    """An advisor verdict: the variant and why."""

    algorithm: str
    reasons: tuple[str, ...]


def recommend_algorithm(tensor: COOTensor,
                        cluster_nodes: int = 8) -> Recommendation:
    """Suggest a CSTF variant for ``tensor`` on a cluster of
    ``cluster_nodes`` nodes.

    Heuristics (each encoded from a measured ablation):

    * large clusters or order >= 4 -> CSTF-QCOO, whose
      2-shuffles-per-MTTKRP wins once synchronisation dominates
      (Figure 2/3 crossovers);
    * otherwise -> CSTF-COO (lean records, fewest moving parts).
    """
    prof = profile_tensor(tensor)
    reasons: list[str] = []
    if prof.order >= 4:
        reasons.append(
            f"order {prof.order}: QCOO runs 2 shuffles per MTTKRP vs "
            f"{prof.order} for COO")
    if cluster_nodes >= 16:
        reasons.append(
            f"{cluster_nodes} nodes: per-round synchronisation "
            "dominates, favouring fewer rounds")
    if reasons:
        return Recommendation("cstf-qcoo", tuple(reasons))
    reasons.append(
        "small cluster, 3rd-order: COO's lean records beat QCOO's "
        "queue overhead (Figure 2 at 4 nodes)")
    if prof.max_skew > 0.6:
        reasons.append(
            f"high skew (gini {prof.max_skew:.2f}): keep the default "
            "hashed nonzero partitioning")
    return Recommendation("cstf-coo", tuple(reasons))
