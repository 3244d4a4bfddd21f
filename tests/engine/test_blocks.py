"""Columnar partition blocks: order contract, serialization, size
pinning.

Blocks replace ``list[tuple]`` partitions wherever the vectorized
kernel runs; everything here pins the properties that refactor leans
on — record-order round trips, serialized round trips that keep
``rows`` and ``key_mode``, the exact-``nbytes`` sizer fast path, and
the vectorized placement hashes matching their scalar oracles bit for
bit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine.blocks import (BLOCK_OVERHEAD, ColumnarBlock,
                                 KeyedRowBlock, coalesce_blocks,
                                 coalesce_rows, concat_ranges,
                                 is_keyed_block, iter_records,
                                 partition_order, partition_rows,
                                 record_count)
from repro.engine.partitioner import (HashPartitioner, RangePartitioner,
                                      stable_hash, stable_hash_int_array,
                                      stable_hash_tuple_columns)
from repro.engine.serialization import (deserialize_partition,
                                        estimate_size,
                                        serialize_partition)
from repro.tensor import uniform_sparse


def sample_records(n=40, order=3, seed=0):
    rng = np.random.default_rng(seed)
    return [(tuple(int(i) for i in rng.integers(0, 50, order)),
             float(rng.uniform(-1, 1))) for _ in range(n)]


class TestColumnarBlock:
    def test_round_trip_preserves_order_and_bits(self):
        records = sample_records()
        block = ColumnarBlock.from_records(records)
        out = block.to_records()
        assert out == records
        # plain python scalars, like the records the drivers emit
        assert type(out[0][0][0]) is int
        assert type(out[0][1]) is float

    def test_len_order_nbytes(self):
        block = ColumnarBlock.from_records(sample_records(10, 4))
        assert len(block) == 10
        assert block.order == 4
        assert block.nbytes == 10 * 8 * 5

    def test_concat_keeps_block_then_row_order(self):
        first, second = sample_records(7), sample_records(5, seed=1)
        cat = ColumnarBlock.concat([
            ColumnarBlock.from_records(first),
            ColumnarBlock.from_records(second)])
        assert cat.to_records() == first + second

    def test_take_follows_given_order(self):
        records = sample_records(9)
        block = ColumnarBlock.from_records(records)
        sub = block.take([4, 1, 7])
        assert sub.to_records() == [records[4], records[1], records[7]]

    def test_pickle_round_trip(self):
        block = ColumnarBlock.from_records(sample_records())
        clone = pickle.loads(pickle.dumps(block))
        assert clone.to_records() == block.to_records()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ColumnarBlock((np.arange(3),), np.zeros(4))


def keyed_block(n=12, order=3, rank=None, key_mode=1, seed=0, queue=None):
    """A keyed ColumnarBlock, with an accumulator column if ``rank`` —
    or, given ``queue`` too, a queue column of that many rows."""
    block = ColumnarBlock.from_records(sample_records(n, order, seed),
                                       order)
    shape = (n, rank) if queue is None else (n, queue, rank)
    rows = (None if rank is None else
            np.random.default_rng(seed).standard_normal(shape))
    return ColumnarBlock(block.columns, block.values, rows, key_mode)


def exact(obj):
    """``obj`` with every ndarray replaced by its bytes, so nested
    records compare exactly with ``==``."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return [exact(x) for x in obj]
    return obj


def assert_same_block(a, b):
    assert type(a) is type(b) is ColumnarBlock
    assert a.key_mode == b.key_mode
    assert len(a.columns) == len(b.columns)
    for ca, cb in zip(a.columns, b.columns):
        assert np.array_equal(ca, cb)
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.rows is None) == (b.rows is None)
    if a.rows is not None:
        assert a.rows.shape == b.rows.shape
        assert a.rows.tobytes() == b.rows.tobytes()


class TestKeyedColumnarBlock:
    """``rows`` and ``key_mode``: the extras the CSTF-COO join rides."""

    def test_keying_is_a_relabel_sharing_arrays(self):
        block = ColumnarBlock.from_records(sample_records())
        keyed = block.keyed_by(2)
        assert keyed.key_mode == 2 and block.key_mode is None
        assert keyed.keys is block.columns[2]
        assert keyed.values is block.values
        assert keyed.keyed_by(None).to_records() == block.to_records()
        with pytest.raises(ValueError):
            block.keys
        with pytest.raises(ValueError):
            block.keyed_by(3)

    def test_to_records_matches_the_record_path_tuples(self):
        records = sample_records(9)
        keyed = ColumnarBlock.from_records(records).keyed_by(1)
        # before the first join: (k, (idx, val))
        assert keyed.to_records() == [
            (idx[1], (idx, val)) for idx, val in records]
        # after it: (k, (idx, acc_row)) — the value is gone
        acc = keyed_block(9, rank=2, key_mode=0)
        for (k, (idx, row)), i in zip(acc.to_records(), range(9)):
            assert type(k) is int and k == idx[0]
            assert idx == tuple(int(c[i]) for c in acc.columns)
            assert row.tobytes() == acc.rows[i].tobytes()

    def test_nbytes_counts_rows(self):
        plain = keyed_block(10, order=3)
        assert plain.nbytes == 10 * 8 * 4
        assert keyed_block(10, order=3, rank=5).nbytes == \
            10 * 8 * 4 + 10 * 5 * 8

    @pytest.mark.parametrize("rank", [None, 1, 4])
    def test_take_concat_pickle_carry_the_extras(self, rank):
        block = keyed_block(12, rank=rank, key_mode=2)
        sub = block.take([5, 0, 9])
        assert sub.key_mode == 2
        assert sub.to_records()[0][0] == int(block.columns[2][5])
        assert_same_block(block.take(slice(3, 7)),
                          block.take([3, 4, 5, 6]))
        assert_same_block(
            ColumnarBlock.concat([block.take(slice(0, 5)),
                                  block.take(slice(5, 12))]), block)
        assert_same_block(pickle.loads(pickle.dumps(block)), block)

    def test_concat_rejects_mixed_keying_or_rows(self):
        with pytest.raises(ValueError):
            ColumnarBlock.concat([keyed_block(key_mode=0),
                                  keyed_block(key_mode=1)])
        with pytest.raises(ValueError):
            ColumnarBlock.concat([keyed_block(rank=2), keyed_block()])

    def test_bad_rows_rejected(self):
        block = ColumnarBlock.from_records(sample_records(4))
        with pytest.raises(ValueError):
            ColumnarBlock(block.columns, block.values, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ColumnarBlock(block.columns, block.values, np.zeros(4))
        with pytest.raises(ValueError):
            ColumnarBlock(block.columns, block.values,
                          np.zeros((4, 1, 2, 2)))
        with pytest.raises(ValueError):
            ColumnarBlock(block.columns, block.values,
                          np.zeros((3, 2, 2)))

    def test_concat_rejects_mixed_row_shapes_with_its_own_error(self):
        for other in (keyed_block(rank=2, queue=1),    # queue length
                      keyed_block(rank=3, queue=2),    # rank
                      keyed_block(rank=2)):            # accumulator
            with pytest.raises(ValueError, match="cannot concat blocks"):
                ColumnarBlock.concat([keyed_block(rank=2, queue=2), other])

    def test_is_keyed_block(self):
        assert is_keyed_block(keyed_block())
        assert is_keyed_block(KeyedRowBlock.from_records([], rank=2))
        assert not is_keyed_block(
            ColumnarBlock.from_records(sample_records(3)))
        assert not is_keyed_block((1, 2.0))


class TestQueueBlock:
    """3-D ``rows``: CSTF-QCOO's ``(n, q, R)`` FIFO queue column."""

    @pytest.mark.parametrize("queue", [0, 1, 3])
    def test_to_records_yields_the_oracle_tuples(self, queue):
        block = keyed_block(9, rank=2, key_mode=2, queue=queue)
        records = block.to_records()
        assert len(records) == 9
        for i, (k, ((idx, val), rows)) in enumerate(records):
            assert type(k) is int and k == idx[2]
            assert idx == tuple(int(c[i]) for c in block.columns)
            assert type(val) is float and val == block.values[i]
            assert type(rows) is tuple and len(rows) == queue
            for pos, row in enumerate(rows):
                assert row.shape == (2,)
                assert row.tobytes() == block.rows[i, pos].tobytes()
        # un-keyed, the same rows without the key wrapper
        assert exact(block.keyed_by(None).to_records()) == \
            exact([rec for _, rec in records])

    def test_nbytes_and_repr_name_the_queue(self):
        block = keyed_block(10, order=3, rank=5, queue=2)
        assert block.nbytes == 10 * 8 * 4 + 10 * 2 * 5 * 8
        assert "queue=2, rank=5" in repr(block)
        assert "queue" not in repr(keyed_block(10, rank=5))
        assert "rank=5" in repr(keyed_block(10, rank=5))

    @pytest.mark.parametrize("queue", [0, 2])
    def test_take_concat_pickle_carry_the_queue(self, queue):
        block = keyed_block(12, rank=3, key_mode=0, queue=queue)
        assert_same_block(block.take([5, 0, 9]).take([1]),
                          block.take([0]))
        view = block.take(slice(3, 7))
        assert_same_block(view, block.take([3, 4, 5, 6]))
        if queue:
            assert np.shares_memory(view.rows, block.rows)
        assert np.shares_memory(view.values, block.values)
        assert_same_block(
            ColumnarBlock.concat([block.take(slice(0, 5)),
                                  block.take(slice(5, 12))]), block)
        assert_same_block(pickle.loads(pickle.dumps(block)), block)

    @pytest.mark.parametrize("n,queue", [(8, 3), (8, 0), (0, 2), (0, 0)])
    def test_frame_round_trips_zero_width_and_empty(self, n, queue):
        block = keyed_block(n, rank=2, key_mode=1, queue=queue)
        first, second = deserialize_partition(serialize_partition(
            [block, keyed_block(3, rank=2, queue=1)]))
        assert_same_block(first, block)
        assert first.rows.shape == (n, queue, 2)
        assert_same_block(second, keyed_block(3, rank=2, queue=1))


class TestSplitByPartition:
    """The one bucketing rule both keyed block types share: gathered by
    ``partition_order``, bucket ``p`` is one contiguous row range."""

    @pytest.mark.parametrize("block", [
        keyed_block(40, rank=3, key_mode=0),
        keyed_block(40, key_mode=2),
        KeyedRowBlock(np.arange(40) % 7,
                      np.arange(80, dtype=float).reshape(40, 2)),
        keyed_block(40, rank=3, key_mode=1, queue=2),
        keyed_block(40, rank=3, key_mode=1, queue=0),
    ], ids=["columnar+rows", "columnar", "keyed-rows", "columnar+queue",
            "columnar+empty-queue"])
    def test_matches_per_record_bucket_appends(self, block):
        part = HashPartitioner(5)
        expected: dict[int, list] = {}
        for rec in block.to_records():
            expected.setdefault(part.get_partition(rec[0]), []) \
                .append(rec)
        order, offsets = partition_order(
            part.partition_int_keys(block.keys), 5)
        run = block.take(order)
        assert (offsets[0], offsets[-1]) == (0, len(block))
        for bucket in range(5):
            sub = run.take(slice(offsets[bucket], offsets[bucket + 1]))
            assert type(sub) is type(block)
            assert exact(sub.to_records()) == \
                exact(expected.get(bucket, []))
        # and ranges of several runs concatenate without a block each
        whole = concat_ranges([(run, offsets[b], offsets[b + 1])
                               for b in range(5)])
        assert exact(whole.to_records()) == exact(run.to_records())

    def test_empty_block_yields_no_sub_blocks(self):
        order, offsets = partition_order(np.empty(0, np.int64), 4)
        assert order.size == 0 and offsets.tolist() == [0] * 5


class TestKeyedRowBlock:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        records = [(int(k), rng.uniform(size=4))
                   for k in rng.integers(0, 20, 15)]
        block = KeyedRowBlock.from_records(records)
        out = block.to_records()
        assert [k for k, _ in out] == [k for k, _ in records]
        for (_, a), (_, b) in zip(out, records):
            assert np.array_equal(a, b)
        assert block.rank == 4
        assert block.nbytes == 15 * 8 + 15 * 4 * 8

    def test_empty_needs_rank(self):
        block = KeyedRowBlock.from_records([], rank=3)
        assert len(block) == 0 and block.rank == 3
        with pytest.raises(ValueError):
            KeyedRowBlock.from_records([])


class TestRecordViews:
    def test_iter_records_expands_blocks_in_place(self):
        records = sample_records(6)
        part = [records[0], ColumnarBlock.from_records(records[1:4]),
                records[4], records[5]]
        assert list(iter_records(part)) == records

    def test_record_count_counts_rows(self):
        part = [ColumnarBlock.from_records(sample_records(6)),
                ("loose", 1.0)]
        assert record_count(part) == 7

    def test_coalesce_keeps_block_then_row_order(self):
        records = sample_records(12)
        empty = ColumnarBlock.from_records([], 3)
        part = [ColumnarBlock.from_records(records[:1]), empty,
                ColumnarBlock.from_records(records[1:9]),
                ColumnarBlock.from_records(records[9:])]
        merged = coalesce_blocks(part)
        assert type(merged) is ColumnarBlock
        assert merged.to_records() == records
        # one non-empty block comes back as is: keying it stays O(1)
        assert coalesce_blocks([empty, part[2]]) is part[2]
        assert coalesce_blocks([]) is None
        assert coalesce_blocks([empty, empty]) is None

    def test_coalesce_refuses_a_stray_record_by_name(self):
        records = sample_records(4)
        part = [ColumnarBlock.from_records(records[:3]), records[3]]
        with pytest.raises(TypeError, match="got tuple.*partition_blocks"
                                            ".*parallelize_blocks"):
            coalesce_blocks(part)
        with pytest.raises(TypeError, match="got KeyedRowBlock"):
            coalesce_blocks([KeyedRowBlock.from_records([], rank=2)])

    def test_coalesce_rows_mirrors_it_for_the_factor_side(self):
        rows = np.arange(24, dtype=float).reshape(12, 2)
        whole = KeyedRowBlock(np.arange(12)[::-1], rows)
        empty = KeyedRowBlock.from_records([], rank=2)
        part = [whole.take(slice(0, 1)), empty, whole.take(slice(1, 9)),
                whole.take(slice(9, 12))]
        merged = coalesce_rows(part)
        assert type(merged) is KeyedRowBlock
        assert merged.keys.tolist() == whole.keys.tolist()
        assert merged.rows.tobytes() == rows.tobytes()
        assert coalesce_rows([empty, part[2]]) is part[2]
        assert coalesce_rows([]) is None
        assert coalesce_rows([empty, empty]) is None
        # loud, and the message carries the fix
        with pytest.raises(TypeError, match="got tuple.*_distribute_factor"
                                            ".*sum_rows_by_key"):
            coalesce_rows([part[0], (3, rows[0])])
        with pytest.raises(TypeError, match="got ColumnarBlock"):
            coalesce_rows([ColumnarBlock.from_records(sample_records(2))])

    @pytest.mark.parametrize("parts", [1, 5, 64])
    def test_partition_rows_places_like_the_scalar_partitioner(self, parts):
        part = HashPartitioner(parts)
        factor = np.random.default_rng(parts).standard_normal((37, 3))
        index = np.arange(37)
        blocks = partition_rows(KeyedRowBlock(index, factor),
                                part.partition_int_keys(index), parts)
        assert len(blocks) == parts
        for p, blk in enumerate(blocks):
            expected = [i for i in range(37) if part.get_partition(i) == p]
            assert blk.keys.tolist() == expected       # index order
            assert blk.rows.tobytes() == factor[expected].tobytes()


class TestFraming:
    """A serialized partition comes back as the blocks and records it
    held, ``rows`` and ``key_mode`` included."""

    @pytest.mark.parametrize("rank", [None, 1, 3])
    @pytest.mark.parametrize("key_mode", [None, 0, 2])
    def test_frame_carries_rows_and_key_mode(self, rank, key_mode):
        block = keyed_block(8, rank=rank, key_mode=key_mode)
        (out,) = deserialize_partition(serialize_partition([block]))
        assert_same_block(out, block)

    def test_mixed_partitions_fall_back_to_pickle(self):
        part = [ColumnarBlock.from_records(sample_records(3)), ("x", 1)]
        restored = deserialize_partition(serialize_partition(part))
        assert restored[0].to_records() == part[0].to_records()
        assert restored[1] == ("x", 1)


class TestSizerPinning:
    """The exact fast path: block partitions are costed at payload
    ``nbytes`` plus a pinned constant, immune to pickled-size drift."""

    def test_estimate_is_nbytes_plus_constant(self):
        block = ColumnarBlock.from_records(sample_records(50))
        assert estimate_size(block) == block.nbytes + BLOCK_OVERHEAD
        # keyed rows are what every factor and MTTKRP output is cached
        # as, and the cost model prices cache bytes: at rest they cost
        # what their (key, row) records did, n(16 + 8R), like a keyed
        # ColumnarBlock — not nbytes + BLOCK_OVERHEAD
        rows = KeyedRowBlock.from_records(
            [(i, np.zeros(6)) for i in range(50)])
        assert estimate_size(rows) == 50 * (16 + 8 * 6) == \
            sum(estimate_size(rec) for rec in rows.to_records())


class TestVectorizedPlacementHashes:
    """The ndarray hash/placement paths must match the scalar
    ``stable_hash``/partitioner oracles value for value — this is what
    makes block partitions land records exactly where the record
    pipeline puts them."""

    def test_int_array_hash_matches_scalar(self):
        keys = np.array([0, 1, 7, 63, 2**62, 2**63 - 1], dtype=np.uint64)
        keys = keys.astype(np.int64)
        got = stable_hash_int_array(keys)
        assert [stable_hash(int(k)) for k in keys] == got.tolist()

    def test_tuple_columns_hash_matches_scalar(self):
        rng = np.random.default_rng(11)
        cols = tuple(rng.integers(0, 10**9, 200, dtype=np.int64)
                     for _ in range(3))
        got = stable_hash_tuple_columns(cols)
        expect = [stable_hash((int(a), int(b), int(c)))
                  for a, b, c in zip(*cols)]
        assert expect == got.tolist()

    def test_hash_partitioner_array_paths_match(self):
        part = HashPartitioner(7)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 10**6, 300, dtype=np.int64)
        assert part.partition_int_keys(keys).tolist() == \
            [part.get_partition(int(k)) for k in keys]
        cols = tuple(rng.integers(0, 999, 300, dtype=np.int64)
                     for _ in range(3))
        assert part.partition_tuple_columns(cols).tolist() == \
            [part.get_partition(t) for t in
             zip(*(c.tolist() for c in cols))]

    def test_range_partitioner_array_path_matches(self):
        part = RangePartitioner.for_key_range(1000, 6)
        keys = np.arange(0, 1000, 7, dtype=np.int64)
        assert part.partition_int_keys(keys).tolist() == \
            [part.get_partition(int(k)) for k in keys]


class TestTensorPartitionBlocks:
    """``COOTensor.partition_blocks`` mirrors record placement."""

    @pytest.mark.parametrize("scheme", ["input", "hash", "range:1"])
    def test_blocks_mirror_record_placement(self, scheme):
        tensor = uniform_sparse((40, 30, 20), 500, rng=2)
        n = 6
        blocks = tensor.partition_blocks(scheme, n)
        records = list(tensor.records())
        expected: list[list] = [[] for _ in range(n)]
        if scheme == "input":
            step, extra = divmod(len(records), n)
            start = 0
            for p in range(n):
                end = start + step + (1 if p < extra else 0)
                expected[p] = records[start:end]
                start = end
        elif scheme == "hash":
            part = HashPartitioner(n)
            for idx, val in records:
                expected[part.get_partition(idx)].append((idx, val))
        else:
            part = RangePartitioner.for_key_range(tensor.shape[1], n)
            for idx, val in records:
                expected[part.get_partition(idx[1])].append((idx, val))
        assert [b.to_records() for b in blocks] == expected
