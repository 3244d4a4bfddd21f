"""``repro.baselines`` — reference algorithms CSTF is evaluated against:
the BIGtensor/GigaTensor workflow on a hadoop-mode context
(comparative baseline) and single-node numpy CP-ALS (the
correctness oracle)."""

from .bigtensor import BigtensorCP
from .local_als import local_cp_als

__all__ = ["BigtensorCP", "local_cp_als"]
