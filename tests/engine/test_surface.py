"""The engine's public surface is what the program calls.

``RDD`` keeps the operators the paper's dataflows (Table 2), the
BIGtensor baseline, the record oracle and the examples call.  A public
name comes back only as an edit to these sets, together with its caller
outside ``tests/``.
"""

from __future__ import annotations

from repro.engine import RDD, Context

RDD_SURFACE = frozenset({
    # narrow transformations
    "map", "map_values", "flat_map_values", "map_partitions",
    "materialize_records", "key_blocks",
    # joins and shuffles
    "block_join", "join", "cogroup", "left_outer_join", "partition_by",
    "combine_by_key", "reduce_by_key",
    # actions
    "collect", "count", "take", "top", "reduce", "tree_aggregate", "sum",
    "collect_as_map",
    # persistence, lineage and the scheduler's hooks
    "persist", "cache", "unpersist", "is_fully_cached", "set_name",
    "lineage_rdds", "narrow_chain", "to_debug_string", "compute",
    "iterator", "offloads", "broadcasts",
})

CONTEXT_SURFACE = frozenset({
    "parallelize", "parallelize_blocks", "broadcast", "accumulator",
    "checkpoint", "drop_shuffle_outputs", "release_scope", "clear_cache",
    "kill_node", "caching_enabled", "hadoop_mode",
    "live_broadcasts", "live_persisted", "stop",
})


def public_names(cls: type) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


def test_rdd_surface_is_the_kept_set():
    assert public_names(RDD) == RDD_SURFACE


def test_context_surface_is_the_kept_set():
    assert public_names(Context) == CONTEXT_SURFACE
