"""Record size estimation and cache serialization."""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.serialization import (CONTAINER_OVERHEAD, RECORD_OVERHEAD,
                                        SCALAR_BYTES, deserialize_partition,
                                        estimate_record_size, estimate_size,
                                        serialize_partition)

from ..strategies import examples


class TestEstimateSize:
    def test_scalar(self):
        assert estimate_size(5) == SCALAR_BYTES
        assert estimate_size(3.14) == SCALAR_BYTES
        assert estimate_size(True) == SCALAR_BYTES

    def test_numpy_scalar(self):
        assert estimate_size(np.float64(1.0)) == SCALAR_BYTES
        assert estimate_size(np.int64(1)) == SCALAR_BYTES

    def test_ndarray_uses_nbytes(self):
        arr = np.zeros(10)
        assert estimate_size(arr) == 80 + CONTAINER_OVERHEAD

    def test_none(self):
        assert estimate_size(None) == 1

    def test_string_per_char(self):
        assert estimate_size("abc") == CONTAINER_OVERHEAD + 3

    def test_bytes(self):
        assert estimate_size(b"abcd") == CONTAINER_OVERHEAD + 4

    def test_tuple_sums_elements(self):
        assert estimate_size((1, 2)) == CONTAINER_OVERHEAD + 2 * SCALAR_BYTES

    def test_nested_containers(self):
        inner = (1, 2.0)
        outer = (inner, 3)
        assert estimate_size(outer) == (CONTAINER_OVERHEAD
                                        + estimate_size(inner)
                                        + SCALAR_BYTES)

    def test_deque_like_tuple(self):
        assert estimate_size(deque([1, 2])) == estimate_size((1, 2))

    def test_dict(self):
        assert estimate_size({"a": 1}) == (CONTAINER_OVERHEAD
                                           + estimate_size("a")
                                           + SCALAR_BYTES)

    def test_record_adds_overhead(self):
        assert (estimate_record_size((1, 2))
                == estimate_size((1, 2)) + RECORD_OVERHEAD)

    def test_bigger_vector_costs_more(self):
        small = estimate_size((0, np.zeros(2)))
        big = estimate_size((0, np.zeros(16)))
        assert big - small == 14 * 8

    @given(st.recursive(
        st.one_of(st.integers(), st.floats(allow_nan=False,
                                           allow_infinity=False),
                  st.text(max_size=5)),
        lambda children: st.tuples(children, children), max_leaves=8))
    @settings(max_examples=examples(40))
    def test_positive_and_deterministic(self, obj):
        size = estimate_size(obj)
        assert size > 0
        assert estimate_size(obj) == size


class TestPartitionSerialization:
    def test_roundtrip(self):
        records = [(1, np.arange(3.0)), (2, "x"), (None, (1, 2))]
        blob = serialize_partition(records)
        out = deserialize_partition(blob)
        assert out[0][0] == 1
        assert np.array_equal(out[0][1], np.arange(3.0))
        assert out[1:] == records[1:]

    def test_empty(self):
        assert deserialize_partition(serialize_partition([])) == []

    def test_blob_is_bytes(self):
        assert isinstance(serialize_partition([1, 2]), bytes)
