"""One wire model: a keyed block is charged what its records would be.

The CSTF joins ship keyed blocks where the record path ships tuples —
CSTF-COO's ``(k, (idx, acc))``, CSTF-QCOO's ``(k, ((idx, val),
queue))`` — and CSTF-QCOO caches its queue every MTTKRP.  Shuffle bytes
(Table 4, Fig. 4), OOM admission, combine-buffer booking and the cache
bytes the cost model prices must not depend on which one travels or
rests, so the closed form ``len × wire_bytes_per_row`` is pinned here
against the sum of ``estimate_record_size`` over the equivalent tuples,
and ``estimate_size`` of a keyed ``ColumnarBlock`` against the sum of
``estimate_size`` over them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.blocks import (BLOCK_OVERHEAD, ColumnarBlock,
                                 KeyedRowBlock)
from repro.engine.serialization import (estimate_record_size,
                                        estimate_size, wire_bytes_per_row)

from ..strategies import examples


@st.composite
def keyed_blocks(draw, shapes=("value", "rows", "queue", "reduce")):
    """A keyed block of any in-flight shape: order 2-5, rank 1-16,
    with or without the accumulator column, with a queue of 0 to N-1
    rows, possibly empty, or the reduce side's keyed rows."""
    order = draw(st.integers(2, 5))
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    columns = [rng.integers(0, 50, n) for _ in range(order)]
    rank = draw(st.integers(1, 16))
    rows = rng.standard_normal((n, rank))
    shape = draw(st.sampled_from(shapes))
    key_mode = draw(st.integers(0, order - 1))
    if shape == "reduce":
        return KeyedRowBlock(columns[key_mode], rows)
    if shape == "queue":
        rows = rng.standard_normal(
            (n, draw(st.integers(0, order - 1)), rank))
    return ColumnarBlock(columns, rng.standard_normal(n),
                         None if shape == "value" else rows, key_mode)


@settings(max_examples=examples(200), deadline=None)
@given(keyed_blocks())
def test_block_is_charged_as_the_tuples_it_stands_for(block):
    tuples = block.to_records()
    assert len(tuples) == len(block)
    assert estimate_record_size(block) == \
        sum(estimate_record_size(t) for t in tuples)
    assert estimate_record_size(block) == \
        len(block) * wire_bytes_per_row(block)


@settings(max_examples=examples(200), deadline=None)
@given(keyed_blocks(shapes=("value", "rows", "queue")))
def test_keyed_block_at_rest_is_charged_as_its_tuples(block):
    """The storage sizer follows the same rule (a cached CSTF-QCOO
    queue block must cost the cache what its tuples did); un-keyed, the
    same arrays are a plain block at ``nbytes + BLOCK_OVERHEAD``."""
    assert estimate_size(block) == \
        sum(estimate_size(t) for t in block.to_records())
    plain = block.keyed_by(None)
    assert estimate_size(plain) == plain.nbytes + BLOCK_OVERHEAD


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
    # the queue row; the empty queue of CSTF-QCOO's first init shuffle
    # is (k, ((idx, val), ())), 8 B more than COO's (k, (idx, val))
    assert wire_bytes_per_row(
        ColumnarBlock(cols, vals, np.ones((4, 2, 5)), 0)) == \
        44 + 8 * 3 + 2 * (8 * 5 + 4)
    assert wire_bytes_per_row(
        ColumnarBlock(cols, vals, np.ones((4, 0, 5)), 0)) == 44 + 8 * 3
