"""``repro.core`` — the paper's contribution and nothing beside it:
CSTF-COO and CSTF-QCOO distributed CP-ALS, plus the shared driver, gram
machinery, checkpoint stores and result types."""

from .checkpoint import (CheckpointStore, CPCheckpoint,
                         FileCheckpointStore, InMemoryCheckpointStore)
from .cp_als import CPALSDriver
from .cstf_coo import CstfCOO
from .cstf_qcoo import CstfQCOO
from .gram import GramCache, gram_of_rdd
from .result import CPDecomposition, IterationStats

__all__ = [
    "CheckpointStore",
    "CPALSDriver",
    "CPCheckpoint",
    "CPDecomposition",
    "FileCheckpointStore",
    "InMemoryCheckpointStore",
    "CstfCOO",
    "CstfQCOO",
    "GramCache",
    "IterationStats",
    "gram_of_rdd",
]
