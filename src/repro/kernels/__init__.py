"""``repro.kernels`` — partition-level compute kernels for CP-ALS.

The drivers' dataflow (joins, shuffles, caching) is kernel-independent;
what a :class:`Kernel` decides is how each partition's records are
*computed*: one Python closure call per record (:class:`RecordKernel`,
the bit-comparison oracle) or one batched numpy expression per
partition (:class:`VectorizedKernel`, the default).

Selection is resolved in this order: ``EngineConf.kernel``, the
``REPRO_KERNEL`` environment variable, then ``"vectorized"``.  Both
kernels produce bit-identical decompositions — the determinism suite
(``tests/core/test_kernels.py``) enforces it.
"""

from __future__ import annotations

import os

from ..engine.errors import KernelError
from .base import Kernel
from .record import RecordKernel
from .sampled import (DEFAULT_SAMPLE_COUNT, POOL_FACTOR, LeverageSampler,
                      leverage_scores, resolve_sample_count,
                      resolve_sampler_spec, sample_block,
                      sample_probabilities, uniform_pool)
from .segsum import (combine_rows_batch, combine_rows_block, fold_rows,
                     segmented_left_fold)
from .vectorized import VectorizedKernel

#: accepted spellings per kernel
_RECORD_NAMES = ("record", "scalar", "reference")
_VECTORIZED_NAMES = ("vectorized", "vector", "numpy", "batched")


def resolve_kernel_spec(name: str | None = None) -> str:
    """Fill an unset kernel name from the environment
    (``REPRO_KERNEL``), defaulting to ``"vectorized"``."""
    if name is None:
        name = os.environ.get("REPRO_KERNEL") or None
    return name or "vectorized"


def create_kernel(name: str | None = None,
                  metrics=None, offload=None) -> Kernel:
    """Instantiate the kernel named by ``name`` (or the environment, or
    the vectorized default).  Unknown names raise :class:`KernelError`.
    ``metrics`` receives the vectorized kernel's batch counters;
    ``offload`` is the backend's process-pool offload client, if any
    (the record oracle ignores it)."""
    resolved = resolve_kernel_spec(name)
    normalized = resolved.strip().lower()
    if normalized in _RECORD_NAMES:
        return RecordKernel()
    if normalized in _VECTORIZED_NAMES:
        return VectorizedKernel(metrics, offload=offload)
    raise KernelError(
        f"unknown kernel {resolved!r}; expected one of "
        f"{', '.join(sorted(_RECORD_NAMES + _VECTORIZED_NAMES))}")


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
    "resolve_kernel_spec",
    "resolve_sample_count",
    "resolve_sampler_spec",
    "sample_block",
    "sample_probabilities",
    "segmented_left_fold",
    "uniform_pool",
]
