"""``repro.kernels`` — partition-level compute kernels for CP-ALS.

The drivers' dataflow (joins, shuffles, caching) is kernel-independent;
what a :class:`Kernel` decides is how each partition's records are
*computed*: one Python closure call per record (:class:`RecordKernel`,
the bit-comparison oracle) or one batched numpy expression per
partition (:class:`VectorizedKernel`, the default).

Which one a context gets is ``ctx.conf.kernel`` (resolved in
:mod:`repro.engine.conf`).  Both kernels produce bit-identical
decompositions — the determinism suite
(``tests/core/test_kernels.py``) enforces it.
"""

from __future__ import annotations

from ..engine.conf import DEFAULT_SAMPLE_COUNT
from ..engine.errors import KernelError
from .base import Kernel
from .record import RecordKernel
from .sampled import (POOL_FACTOR, LeverageSampler, leverage_scores,
                      sample_block, sample_probabilities, uniform_pool)
from .segsum import (combine_rows_batch, combine_rows_block, fold_rows,
                     segmented_left_fold)
from .vectorized import VectorizedKernel


def create_kernel(name: str, metrics=None, offload=None) -> Kernel:
    """Instantiate the kernel with the canonical name ``name``.
    Unknown names raise :class:`KernelError`.  ``metrics`` receives the
    vectorized kernel's batch counters; ``offload`` is the backend's
    process-pool offload client, if any (the record oracle ignores
    it)."""
    if name == "record":
        return RecordKernel()
    if name == "vectorized":
        return VectorizedKernel(metrics, offload=offload)
    raise KernelError(
        f"unknown kernel {name!r}; expected one of record, vectorized")


__all__ = [
    "DEFAULT_SAMPLE_COUNT",
    "Kernel",
    "KernelError",
    "LeverageSampler",
    "POOL_FACTOR",
    "RecordKernel",
    "VectorizedKernel",
    "combine_rows_batch",
    "combine_rows_block",
    "create_kernel",
    "fold_rows",
    "leverage_scores",
    "sample_block",
    "sample_probabilities",
    "segmented_left_fold",
    "uniform_pool",
]
