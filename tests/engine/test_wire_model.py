"""One wire model: a keyed block is charged what its records would be.

The CSTF-COO join ships keyed blocks where the record path ships
tuples.  Shuffle bytes (Table 4, Fig. 4), OOM admission and
combine-buffer booking must not depend on which one travels, so the
closed form ``len × wire_bytes_per_row`` is pinned here against the sum
of ``estimate_record_size`` over the equivalent tuples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.blocks import ColumnarBlock, KeyedRowBlock
from repro.engine.serialization import (estimate_record_size,
                                        wire_bytes_per_row)


@st.composite
def keyed_blocks(draw):
    """A keyed block of any in-flight shape: order 2-5, rank 1-16,
    with or without the accumulator column, possibly empty, or the
    reduce side's keyed rows."""
    order = draw(st.integers(2, 5))
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    columns = [rng.integers(0, 50, n) for _ in range(order)]
    rank = draw(st.integers(1, 16))
    rows = rng.standard_normal((n, rank))
    shape = draw(st.sampled_from(["value", "rows", "reduce"]))
    key_mode = draw(st.integers(0, order - 1))
    if shape == "reduce":
        return KeyedRowBlock(columns[key_mode], rows)
    return ColumnarBlock(columns, rng.standard_normal(n),
                         rows if shape == "rows" else None, key_mode)


@settings(max_examples=200, deadline=None)
@given(keyed_blocks())
def test_block_is_charged_as_the_tuples_it_stands_for(block):
    tuples = block.to_records()
    assert len(tuples) == len(block)
    assert estimate_record_size(block) == \
        sum(estimate_record_size(t) for t in tuples)
    assert estimate_record_size(block) == \
        len(block) * wire_bytes_per_row(block)


def test_closed_forms():
    cols = [np.arange(4)] * 3
    vals = np.ones(4)
    assert wire_bytes_per_row(ColumnarBlock(cols, vals, None, 0)) == \
        36 + 8 * 3
    assert wire_bytes_per_row(
        ColumnarBlock(cols, vals, np.ones((4, 5)), 0)) == \
        32 + 8 * 3 + 8 * 5
    assert wire_bytes_per_row(
        KeyedRowBlock(np.arange(4), np.ones((4, 5)))) == 24 + 8 * 5
