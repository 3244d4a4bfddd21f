"""Partitioners: determinism, bounds, equality, distribution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import HashPartitioner, RangePartitioner, stable_hash

from ..strategies import examples

keys = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=0, max_value=10**6)),
)


class TestStableHash:
    def test_int_hashes_to_itself(self):
        assert stable_hash(7) == 7
        assert stable_hash(0) == 0

    def test_large_int_masked(self):
        assert 0 <= stable_hash(2**100) < 2**63

    def test_numpy_int_matches_python_int(self):
        import numpy as np
        assert stable_hash(np.int64(42)) == stable_hash(42)

    def test_integral_float_matches_int(self):
        assert stable_hash(5.0) == stable_hash(5)

    def test_bool(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_none_is_zero(self):
        assert stable_hash(None) == 0

    def test_string_deterministic(self):
        assert stable_hash("delicious") == stable_hash("delicious")

    def test_distinct_strings_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_tuple_order_sensitive(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError, match="unhashable"):
            stable_hash([1, 2])

    @given(keys)
    @settings(max_examples=examples(50))
    def test_always_nonnegative(self, key):
        assert stable_hash(key) >= 0

    @given(keys)
    @settings(max_examples=examples(50))
    def test_repeatable(self, key):
        assert stable_hash(key) == stable_hash(key)


class TestHashPartitioner:
    def test_in_range(self):
        p = HashPartitioner(7)
        for k in range(1000):
            assert 0 <= p.get_partition(k) < 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert HashPartitioner(4) != RangePartitioner([2])

    def test_hashable(self):
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))

    def test_int_keys_spread_uniformly(self):
        p = HashPartitioner(4)
        counts = [0] * 4
        for k in range(4000):
            counts[p.get_partition(k)] += 1
        assert min(counts) > 800  # near 1000 each

    @given(keys, st.integers(min_value=1, max_value=64))
    @settings(max_examples=examples(60))
    def test_property_in_range(self, key, n):
        assert 0 <= HashPartitioner(n).get_partition(key) < n


class TestRangePartitioner:
    def test_bounds_split(self):
        p = RangePartitioner([10, 20])
        assert p.num_partitions == 3
        assert p.get_partition(0) == 0
        assert p.get_partition(9) == 0
        assert p.get_partition(10) == 1
        assert p.get_partition(19) == 1
        assert p.get_partition(20) == 2
        assert p.get_partition(10**9) == 2

    def test_for_key_range_even(self):
        p = RangePartitioner.for_key_range(100, 4)
        assert p.num_partitions == 4
        assert p.get_partition(0) == 0
        assert p.get_partition(99) == 3

    def test_for_key_range_single(self):
        p = RangePartitioner.for_key_range(100, 1)
        assert p.num_partitions == 1
        assert p.get_partition(50) == 0

    def test_for_key_range_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RangePartitioner.for_key_range(10, 0)

    def test_equality(self):
        assert RangePartitioner([5]) == RangePartitioner([5])
        assert RangePartitioner([5]) != RangePartitioner([6])

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=10, unique=True),
           st.integers(min_value=0, max_value=2000))
    @settings(max_examples=examples(50))
    def test_matches_linear_scan(self, bounds, key):
        p = RangePartitioner(bounds)
        expected = sum(1 for b in sorted(bounds) if key >= b)
        assert p.get_partition(key) == expected
