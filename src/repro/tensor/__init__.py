"""``repro.tensor`` — sparse tensor substrate: the COO container, dense
factor helpers, tensor algebra (Khatri-Rao, MTTKRP, CP model arithmetic),
matricization, synthetic generators and FROSTT ``.tns`` I/O."""

from .coo import COOTensor
from .dense import (congruence, factors_allclose, gram, normalize_columns,
                    random_factors)
from .init import initial_factors, nvecs_init
from .io import read_tns, write_tns
from .ops import (cp_fit, cp_inner_product, cp_model_norm, cp_reconstruct,
                  hadamard, khatri_rao, kronecker, mttkrp,
                  mttkrp_via_unfolding, sparse_tucker_core)
from .random import low_rank_sparse, uniform_sparse, zipf_sparse
from .stats import (Recommendation, TensorProfile, fiber_collapse,
                    profile_tensor, recommend_algorithm, slice_gini)
from .unfold import (bin_values, column_strides, delinearize_column, fold,
                     linearize_columns, unfold)

__all__ = [
    "COOTensor",
    "bin_values",
    "column_strides",
    "congruence",
    "cp_fit",
    "cp_inner_product",
    "cp_model_norm",
    "cp_reconstruct",
    "delinearize_column",
    "factors_allclose",
    "fold",
    "gram",
    "hadamard",
    "initial_factors",
    "nvecs_init",
    "khatri_rao",
    "kronecker",
    "linearize_columns",
    "low_rank_sparse",
    "mttkrp",
    "mttkrp_via_unfolding",
    "normalize_columns",
    "random_factors",
    "Recommendation",
    "TensorProfile",
    "fiber_collapse",
    "profile_tensor",
    "read_tns",
    "recommend_algorithm",
    "slice_gini",
    "sparse_tucker_core",
    "uniform_sparse",
    "unfold",
    "write_tns",
    "zipf_sparse",
]
