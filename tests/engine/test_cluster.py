"""Cluster topology and partition placement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Cluster

from ..strategies import examples


class TestCluster:
    def test_round_robin_placement(self):
        c = Cluster(num_nodes=4)
        assert [c.node_of_partition(p) for p in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=0)

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=examples(50))
    def test_placement_in_range(self, nodes, partition):
        c = Cluster(num_nodes=nodes)
        assert 0 <= c.node_of_partition(partition) < nodes

    def test_equal_partitions_colocated(self):
        """Two RDDs with the same partitioner place partition p on the
        same node — the foundation of co-partitioned narrow joins."""
        c = Cluster(num_nodes=4)
        for p in range(32):
            assert c.node_of_partition(p) == c.node_of_partition(p)


class TestLiveness:
    def test_kill_reroutes_partitions(self):
        c = Cluster(num_nodes=4)
        c.kill_node(1)
        assert not c.is_available(1)
        assert c.available_nodes == [0, 2, 3]
        # partition 1's primary (node 1) is dead: re-placed, stably
        assert c.node_of_partition(1) in (0, 2, 3)
        assert c.node_of_partition(1) == c.node_of_partition(1)
        # healthy primaries are untouched
        assert c.node_of_partition(0) == 0
        assert c.node_of_partition(2) == 2

    def test_revive_restores_placement(self):
        c = Cluster(num_nodes=4)
        c.kill_node(1)
        c.revive_node(1)
        assert c.is_available(1)
        assert c.node_of_partition(1) == 1

    def test_cannot_kill_every_node(self):
        from repro.engine import EngineError
        c = Cluster(num_nodes=2)
        c.kill_node(0)
        with pytest.raises(EngineError):
            c.kill_node(1)

    def test_exclude_never_empties_cluster(self):
        c = Cluster(num_nodes=2)
        assert c.quarantine_node(0, until=10.0)
        # refused: last available node
        assert not c.quarantine_node(1, until=10.0)
        assert c.available_nodes == [1]
        assert c.readmit_node(0)
        assert c.available_nodes == [0, 1]
