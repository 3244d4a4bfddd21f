"""Shared hypothesis strategies for tensor-valued property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from repro.tensor import COOTensor


def examples(n: int) -> int:
    """``n`` hypothesis examples, scaled by the loaded profile's depth:
    an explicit count overrides the profile, so without this the
    ``thorough`` profile (tests/conftest.py) would deepen nothing
    here — under it ``n`` becomes ``3n``."""
    return (n * settings.default.max_examples
            // settings.get_profile("default").max_examples)


@st.composite
def coo_tensors(draw, min_order: int = 2, max_order: int = 4,
                max_dim: int = 8, max_nnz: int = 40) -> COOTensor:
    """A random deduplicated sparse tensor."""
    order = draw(st.integers(min_order, max_order))
    shape = tuple(draw(st.integers(2, max_dim)) for _ in range(order))
    nnz = draw(st.integers(1, max_nnz))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    indices = np.column_stack([
        rng.integers(0, s, size=nnz) for s in shape])
    values = rng.uniform(-2.0, 2.0, size=nnz)
    tensor = COOTensor(indices, values, shape).deduplicate()
    return tensor.drop_zeros(1e-12) if tensor.nnz else tensor


@st.composite
def tensors_with_factors(draw, rank_max: int = 3):
    """A tensor plus compatible random factor matrices."""
    tensor = draw(coo_tensors())
    rank = draw(st.integers(1, rank_max))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    factors = [rng.random((s, rank)) for s in tensor.shape]
    return tensor, factors


@st.composite
def integer_keys(draw, max_len: int = 3000) -> np.ndarray:
    """An int64 key vector aimed at every branch of
    ``repro.engine.blocks.stable_argsort``: lengths either side of the
    short-input cutoff, maxima either side of one and two 16-bit
    digits, constant / repeated / Zipf-skewed keys (ties are what make
    stability observable) and an occasional negative key."""
    n = draw(st.one_of(st.integers(0, 40),
                       st.sampled_from([1023, 1024, 1025]),
                       st.integers(1024, max_len)))
    top = draw(st.sampled_from(
        [0, 7, 300, 65_535, 65_536, 2**32 - 1, 2**32, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        keys = np.minimum(rng.zipf(1.3, n), top)
    else:
        pool = rng.integers(
            0, top + 1, draw(st.sampled_from([1, 3, 50, n + 1])))
        keys = pool[rng.integers(0, pool.shape[0], n)]
    keys = keys.astype(np.int64)
    if n:
        keys[rng.integers(n)] = top           # the maximum is hit exactly
        if draw(st.integers(0, 4)) == 0:
            keys[rng.integers(n)] = -1 - rng.integers(5)
    return keys


@st.composite
def keyed_rows(draw, max_len: int = 600) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, rows)`` for segmented-fold properties: widths 1-16; a
    few hot keys, Zipf keys, all-singleton keys, or one key holding
    half of >= 400 rows; keys offset above 2**16 and 2**32; values
    spread over seven decades, optionally salted with zeros of both
    signs (a left fold and numpy's seeded reduce differ only there)."""
    n = draw(st.integers(1, max_len))
    width = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    layout = draw(st.sampled_from(["few", "zipf", "singletons", "heavy"]))
    if layout == "few":
        keys = rng.integers(0, 9, n)
    elif layout == "zipf":
        keys = rng.zipf(1.5, n) % 1000
    elif layout == "singletons":
        keys = rng.permutation(n)
    else:
        n = max(n, 400)
        keys = rng.integers(1, 50, n)
        keys[rng.permutation(n)[:n // 2]] = 0
    keys = keys.astype(np.int64) + draw(st.sampled_from([0, 2**16, 2**32]))
    rows = rng.standard_normal((n, width)) \
        * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    if draw(st.booleans()):
        salt = rng.random((n, width)) < 0.5
        rows[salt] = np.where(rng.random(int(salt.sum())) < 0.5, 0.0, -0.0)
    return keys, rows
