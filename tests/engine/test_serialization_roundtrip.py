"""Property tests: serialize/deserialize round-trips and CRC detection.

The integrity layer's entire correctness argument rests on two facts,
both checked here with hypothesis:

* ``deserialize_partition(serialize_partition(block))`` reproduces the
  block bit-for-bit (pickling ``float64`` payloads is exact), so
  checksummed re-serialization is transparent to results;
* a single flipped byte anywhere in a sealed blob changes its CRC-32,
  so every injected corruption is detected (CRC-32 catches *all*
  single-byte errors by construction).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.blocks import (INDEX_DTYPE, VALUE_DTYPE, ColumnarBlock,
                                 KeyedRowBlock, is_block)
from repro.engine.integrity import flip_byte
from repro.engine.serialization import (checksum_blob, deserialize_partition,
                                        serialize_partition, verify_blob)

from ..strategies import coo_tensors, examples
from .test_blocks import exact


def _records(draw_tensor):
    """COO record list ``[(idx_tuple, value), ...]`` of a tensor."""
    return list(draw_tensor.records())


@st.composite
def record_blocks(draw):
    """A partition-shaped block: tensor records or keyed ndarray rows."""
    tensor = draw(coo_tensors())
    kind = draw(st.sampled_from(["coo", "rows", "mixed"]))
    records = _records(tensor)
    if kind == "coo":
        return records
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = [(i, rng.standard_normal(rank)) for i in range(len(records))]
    if kind == "rows":
        return rows
    return records + rows


@st.composite
def keyed_block_partitions(draw):
    """A partition in any shape the engine serializes: a ColumnarBlock
    that may carry an accumulator or queue column and/or a key mode
    (the in-flight shapes of the CSTF-COO and CSTF-QCOO joins, an
    empty block and an empty ``(n, 0, R)`` queue included), a plain
    tensor block, a KeyedRowBlock (possibly empty) and, sometimes,
    loose records mixed in — in any order."""
    tensor = draw(coo_tensors())
    block = tensor.to_block()
    if draw(st.booleans()):
        block = block.take(slice(0, 0))
    rank = draw(st.one_of(st.none(), st.integers(1, 4)))
    queue = draw(st.one_of(st.none(), st.integers(0, tensor.order - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = (None if rank is None else rng.standard_normal(
        (len(block), rank) if queue is None
        else (len(block), queue, rank)))
    key_mode = draw(st.one_of(st.none(),
                              st.integers(0, tensor.order - 1)))
    keyed = ColumnarBlock(block.columns, block.values, rows, key_mode)
    n = draw(st.integers(0, 6))
    factor_rows = KeyedRowBlock(rng.integers(0, 50, n),
                                rng.standard_normal((n, rank or 1)))
    part = [keyed, tensor.to_block(), factor_rows]
    if draw(st.booleans()):
        part += [_records(tensor)[0], (3, rng.standard_normal(2))]
    return draw(st.permutations(part))


def _arrays(block):
    """``(array, canonical dtype)`` for every array a block holds."""
    if type(block) is KeyedRowBlock:
        return [(block.keys, INDEX_DTYPE), (block.rows, VALUE_DTYPE)]
    extras = [] if block.rows is None else [(block.rows, VALUE_DTYPE)]
    return ([(c, INDEX_DTYPE) for c in block.columns]
            + [(block.values, VALUE_DTYPE)] + extras)


def assert_restored(before, after):
    """``after`` is ``before`` read back: a block with every array
    bit-equal, writable, C-contiguous and in its canonical dtype, and
    its ``key_mode`` kept; a loose record equal value for value."""
    assert type(after) is type(before)
    if not is_block(before):
        assert exact(after) == exact(before)
        return
    if type(before) is ColumnarBlock:
        assert after.key_mode == before.key_mode
        assert (after.rows is None) == (before.rows is None)
    for (a, _), (b, dtype) in zip(_arrays(before), _arrays(after),
                                  strict=True):
        assert b.dtype == dtype and b.shape == a.shape
        assert b.flags.writeable and b.flags.c_contiguous
        assert b.tobytes() == a.tobytes()


class TestRoundTrip:
    """serialize_partition / deserialize_partition is bit-exact."""

    @settings(max_examples=examples(50), deadline=None)
    @given(keyed_block_partitions())
    def test_keyed_blocks_round_trip_with_rows_and_key_mode(self, part):
        """The integrity layer re-reads every shuffle bucket through
        this round trip, and the serialized cache levels every cached
        partition: losing ``key_mode`` or ``rows`` there breaks the
        next join."""
        out = deserialize_partition(serialize_partition(part))
        assert len(out) == len(part)
        for a, b in zip(part, out):
            assert_restored(a, b)

    @settings(max_examples=examples(50), deadline=None)
    @given(record_blocks())
    def test_round_trip_bit_identical(self, block):
        out = deserialize_partition(serialize_partition(block))
        assert len(out) == len(block)
        for (k1, v1), (k2, v2) in zip(block, out):
            assert k1 == k2
            if isinstance(v1, np.ndarray):
                assert np.array_equal(v1, v2)
                assert v1.dtype == v2.dtype
            else:
                assert v1 == v2

    @settings(max_examples=examples(50), deadline=None)
    @given(record_blocks())
    def test_serialization_deterministic(self, block):
        assert serialize_partition(block) == serialize_partition(block)

    def test_empty_block(self):
        blob = serialize_partition([])
        assert deserialize_partition(blob) == []
        assert verify_blob(blob, checksum_blob(blob))


class TestChecksum:
    """CRC sealing verifies clean blobs and flags every byte flip."""

    @settings(max_examples=examples(50), deadline=None)
    @given(record_blocks())
    def test_clean_blob_verifies(self, block):
        blob = serialize_partition(block)
        assert verify_blob(blob, checksum_blob(blob))

    @settings(max_examples=examples(50), deadline=None)
    @given(record_blocks(), st.integers(0, 2**31 - 1))
    def test_flipped_byte_detected(self, block, offset_seed):
        blob = serialize_partition(block)
        checksum = checksum_blob(blob)
        corrupted = flip_byte(blob, offset_seed % len(blob))
        assert corrupted != blob
        assert not verify_blob(corrupted, checksum)

    @settings(max_examples=examples(25), deadline=None)
    @given(record_blocks(), st.integers(0, 2**31 - 1))
    def test_flip_byte_is_a_copy(self, block, offset_seed):
        blob = serialize_partition(block)
        before = bytes(blob)
        flip_byte(blob, offset_seed % len(blob))
        assert blob == before

    def test_checksum_is_32_bit(self):
        for payload in (b"", b"\x00", b"abc" * 1000):
            value = checksum_blob(payload)
            assert 0 <= value <= 0xFFFFFFFF
