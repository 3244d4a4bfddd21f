"""``repro.baselines`` — reference algorithms CSTF is evaluated against:
the BIGtensor/GigaTensor workflow on a hadoop-mode context
(comparative baseline) and single-node numpy CP-ALS and HOOI
(correctness oracles)."""

from .bigtensor import BigtensorCP
from .local_als import local_cp_als
from .local_tucker import local_hooi, random_orthonormal

__all__ = ["BigtensorCP", "local_cp_als", "local_hooi",
           "random_orthonormal"]
