"""Plan-time dataflow auditor tests: schema inference over lineage,
the four plan rule families, and the cross-job/cross-context tracking
of :class:`PlanAuditor`."""

from __future__ import annotations

import numpy as np

from repro.engine import Context, EngineConf
from repro.engine.blocks import (ColumnarBlock, KeyedRowBlock,
                                 partition_rows, record_count)
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import ShuffledRDD
from repro.kernels import VectorizedKernel
from repro.lint import LintReport, PlanAuditor, PlanGraph, audit_graph
from repro.lint.plan import computed_edges


def make_ctx() -> Context:
    conf = EngineConf(backend="serial")
    return Context(num_nodes=2, default_parallelism=4, conf=conf)


def rules(report: LintReport) -> list[str]:
    return [f.rule for f in report.sorted_findings()]


def block_rdd(ctx: Context, order: int = 3, n: int = 24):
    blocks = [
        ColumnarBlock.from_records(
            [(tuple((i + m) % 5 for m in range(order)), float(i))
             for i in range(p, n, 4)], order)
        for p in range(4)
    ]
    return ctx.parallelize_blocks(blocks).set_name("tensor-blocks")


# ----------------------------------------------------------------------
# graph export + schema inference
# ----------------------------------------------------------------------
def test_graph_exports_nodes_edges_and_schemas():
    with make_ctx() as ctx:
        base = block_rdd(ctx)
        keyed = base.materialize_records() \
            .map(lambda rec: (rec[0][0], rec)).set_name("keyed")
        summed = keyed.reduce_by_key(lambda a, b: a, 4)
        graph = PlanGraph.from_rdd(summed)

        root_node = graph.node(base.rdd_id)
        assert root_node.schema.form == "blocks"
        assert root_node.schema.order == 3
        assert root_node.schema.index_dtype == "int64"
        records_node = graph.node(base.rdd_id + 1)
        assert records_node.op == "materializeRecords"
        assert records_node.schema.form == "records"
        shuffle_node = graph.node(summed.rdd_id)
        assert any(e.kind == "shuffle" for e in shuffle_node.parents)

        text = graph.render(explain=True)
        assert "tensor-blocks" in text
        assert "blocks[order=3" in text


def test_parallelize_peek_infers_key_schema():
    with make_ctx() as ctx:
        by_int = ctx.parallelize([(1, 2.0), (2, 3.0)], 2)
        by_pair = ctx.parallelize([((1, 2), 3.0)], 2)
        assert PlanGraph.from_rdd(by_int).node(
            by_int.rdd_id).schema.key == "int64"
        assert PlanGraph.from_rdd(by_pair).node(
            by_pair.rdd_id).schema.key == "index[2]"


# ----------------------------------------------------------------------
# rule: plan-schema-mismatch
# ----------------------------------------------------------------------
def test_join_key_mismatch_is_an_error():
    with make_ctx() as ctx:
        by_int = ctx.parallelize([(i, float(i)) for i in range(8)], 2)
        by_pair = ctx.parallelize(
            [((i, i), float(i)) for i in range(8)], 2)
        joined = by_int.join(by_pair, 2)
        report = audit_graph(PlanGraph.from_rdd(joined))
        mismatches = [f for f in report
                      if f.rule == "plan-schema-mismatch"]
        assert len(mismatches) == 1
        assert mismatches[0].severity == "error"
        assert "int64" in mismatches[0].message
        assert "index[2]" in mismatches[0].message


def test_matching_join_keys_are_silent():
    with make_ctx() as ctx:
        left = ctx.parallelize([(i, float(i)) for i in range(8)], 2)
        right = ctx.parallelize([(i, -float(i)) for i in range(8)], 2)
        report = audit_graph(PlanGraph.from_rdd(left.join(right, 2)))
        assert "plan-schema-mismatch" not in rules(report)


# ----------------------------------------------------------------------
# rule: plan-block-churn
# ----------------------------------------------------------------------
def test_shuffling_degraded_records_is_churn():
    with make_ctx() as ctx:
        base = block_rdd(ctx)
        shuffled = base.materialize_records() \
            .map(lambda rec: (rec[0][0], rec)) \
            .reduce_by_key(lambda a, b: a, 4)
        report = audit_graph(PlanGraph.from_rdd(shuffled))
        assert "plan-block-churn" in rules(report)


def test_block_pipeline_without_degrade_is_silent():
    with make_ctx() as ctx:
        base = block_rdd(ctx)
        report = audit_graph(PlanGraph.from_rdd(
            base.map_partitions(lambda it: it)))
        assert "plan-block-churn" not in rules(report)


# ----------------------------------------------------------------------
# the block join: keyed blocks end to end
# ----------------------------------------------------------------------
def factor_rdd(ctx: Context, size: int = 5, parts: int = 4):
    part = HashPartitioner(parts)
    index = np.arange(size)
    rows = KeyedRowBlock(index, np.full((2, size), index, float).T)
    return ctx.parallelize_blocks(
        partition_rows(rows, part.partition_int_keys(index), parts), part)


def first_fold(blk, rows):
    return blk.values[:, None] * rows if blk.rows is None \
        else blk.rows * rows


def test_block_join_chain_is_typed_as_keyed_blocks():
    with make_ctx() as ctx:
        keyed = block_rdd(ctx).key_blocks(2)
        joined = keyed.block_join(factor_rdd(ctx), first_fold, 1,
                                  num_partitions=4)
        rows = joined.block_join(factor_rdd(ctx), first_fold, 0,
                                 keep_index=False, num_partitions=4)
        summed = VectorizedKernel().sum_rows_by_key(rows, 4)
        graph = PlanGraph.from_rdd(summed)

        keyed_schema = graph.node(keyed.rdd_id).schema
        assert graph.node(keyed.rdd_id).op == "keyBlocks"
        assert (keyed_schema.form, keyed_schema.order,
                keyed_schema.key) == ("blocks", 3, "int64")
        assert graph.node(joined.rdd_id).cls == "BlockJoinRDD"
        assert graph.node(joined.rdd_id).schema == keyed_schema
        assert graph.node(rows.rdd_id).schema.form == "keyed-rows"
        assert graph.node(rows.rdd_id).schema.key == "int64"
        assert graph.node(summed.rdd_id).schema.key == "int64"
        # only the tensor side crosses a shuffle; factors stay put
        assert [e.kind for e in graph.node(joined.rdd_id).parents] == \
            ["shuffle", "narrow"]
        assert "blocks[order=3, key=int64, int64/float64]" in \
            graph.render(explain=True)
        assert rules(audit_graph(graph)) == []
        assert record_count(summed.collect()) == 5


def test_block_join_key_mismatch_is_an_error():
    with make_ctx() as ctx:
        by_pair = ctx.parallelize(
            [((i, i), np.zeros(2)) for i in range(5)], 4)
        joined = block_rdd(ctx).key_blocks(0).block_join(
            by_pair, first_fold, 1, num_partitions=4)
        mismatches = [f for f in audit_graph(PlanGraph.from_rdd(joined))
                      if f.rule == "plan-schema-mismatch"]
        assert len(mismatches) == 1
        assert "int64" in mismatches[0].message
        assert "index[2]" in mismatches[0].message


def test_coo_mttkrp_plan_has_no_untyped_or_record_hop():
    """Under the vectorized kernel the CSTF-COO MTTKRP is blocks from
    the cached tensor to the reduce: nothing for ``plan-block-churn``
    to excuse, no opaque node in between."""
    from repro.core import CstfCOO
    from repro.tensor import random_factors, uniform_sparse
    tensor = uniform_sparse((6, 5, 7), 60, rng=2)
    factors = random_factors(tensor.shape, 2, 3)
    with Context(num_nodes=2, default_parallelism=4,
                 conf=EngineConf(kernel="vectorized")) as ctx:
        driver = CstfCOO(ctx)
        tensor_rdd = driver._distribute_tensor(tensor)
        factor_rdds = [driver._distribute_factor(f) for f in factors]
        m_rdd = driver._mttkrp(0, tensor_rdd, factor_rdds, 2)
        graph = PlanGraph.from_rdd(m_rdd)
        forms = {n.name: n.schema.form for n in graph.nodes.values()}
        assert forms == {
            "tensor-coo": "blocks", "factor": "keyed-rows",
            "coo-key-mode2": "blocks", "coo-acc-mode2": "blocks",
            "coo-acc-mode1": "keyed-rows", "mttkrp-0": "keyed-rows"}
        assert rules(audit_graph(graph)) == []
        for rdd in (tensor_rdd, *factor_rdds):
            rdd.unpersist()


def test_qcoo_block_steps_are_typed_not_anonymous():
    """The vectorized kernel's narrow CSTF-QCOO steps carry pinned op
    kinds: the empty-queue attach and the canonical sort keep the keyed
    block schema, the queue reduce yields keyed rows."""
    with make_ctx() as ctx:
        kernel = VectorizedKernel()
        keyed = kernel.qcoo_key_tensor(block_rdd(ctx), 2)
        joined = kernel.qcoo_join(keyed, factor_rdd(ctx), 1, False, 4)
        queue = kernel.qcoo_canonical(joined)
        partials = kernel.qcoo_reduce(queue)
        summed = kernel.sum_rows_by_key(partials, 4)
        graph = PlanGraph.from_rdd(summed)

        assert [graph.node(r.rdd_id).op
                for r in (keyed, joined, queue, partials)] == [
            "emptyQueueBlocks", "blockJoin", "canonicalBlocks",
            "reduceQueueBlocks"]
        for rdd in (keyed, joined, queue):
            schema = graph.node(rdd.rdd_id).schema
            assert (schema.form, schema.order, schema.key) == \
                ("blocks", 3, "int64")
        assert graph.node(partials.rdd_id).schema.form == "keyed-rows"
        assert graph.node(summed.rdd_id).schema.key == "int64"
        assert "unknown" not in graph.render(explain=True)
        assert rules(audit_graph(graph)) == []
        assert record_count(summed.collect()) == 5


def test_qcoo_join_key_mismatch_is_an_error():
    """With the queue typed, the key-dtype check reaches QCOO's joins
    (below an untyped parent it has nothing to compare)."""
    with make_ctx() as ctx:
        kernel = VectorizedKernel()
        by_pair = ctx.parallelize(
            [((i, i), np.zeros(2)) for i in range(5)], 4)
        queue = kernel.qcoo_canonical(kernel.qcoo_join(
            kernel.qcoo_key_tensor(block_rdd(ctx), 2), factor_rdd(ctx),
            1, False, 4))
        rotated = kernel.qcoo_join(queue, by_pair, 2, True, 4)
        mismatches = [f for f in audit_graph(PlanGraph.from_rdd(rotated))
                      if f.rule == "plan-schema-mismatch"]
        assert len(mismatches) == 1
        assert "int64" in mismatches[0].message
        assert "index[2]" in mismatches[0].message


def test_qcoo_mttkrp_plan_is_block_joins_only():
    """Under the vectorized kernel CSTF-QCOO runs on the one keyed
    block from the cached tensor to the reduce: no cogroup, no record
    hop, no opaque node — queue build and MTTKRP alike."""
    from repro.core import CstfQCOO
    from repro.tensor import random_factors, uniform_sparse
    tensor = uniform_sparse((6, 5, 7), 60, rng=2)
    factors = random_factors(tensor.shape, 2, 3)
    with Context(num_nodes=2, default_parallelism=4,
                 conf=EngineConf(kernel="vectorized")) as ctx, \
            ctx.release_scope():
        driver = CstfQCOO(ctx)
        tensor_rdd = driver._distribute_tensor(tensor)
        factor_rdds = [driver._distribute_factor(f) for f in factors]
        driver._setup(tensor_rdd, tensor, factor_rdds, 2)
        m_rdd = driver._mttkrp(0, tensor_rdd, factor_rdds, 2)
        graph = PlanGraph.from_rdd(m_rdd)
        forms = {n.name: n.schema.form for n in graph.nodes.values()}
        assert forms == {
            "tensor-coo": "blocks", "factor": "keyed-rows",
            "keyBlocks": "blocks", "qcoo-init-key0": "blocks",
            "qcoo-init-enqueue0": "blocks",
            "qcoo-init-enqueue1": "blocks", "qcoo-queue": "blocks",
            "qcoo-rotate": "blocks", "qcoo-partials": "keyed-rows",
            "mttkrp-0": "keyed-rows"}
        classes = {n.cls for n in graph.nodes.values()}
        assert "BlockJoinRDD" in classes
        assert "CoGroupedRDD" not in classes
        assert all(n.schema.order == 3 for n in graph.nodes.values()
                   if n.schema.form == "blocks")
        assert rules(audit_graph(graph)) == []


# ----------------------------------------------------------------------
# rule: plan-uncached-reuse (intra-graph fan-out)
# ----------------------------------------------------------------------
def test_fanout_over_uncached_rdd_is_flagged():
    with make_ctx() as ctx:
        shared = ctx.parallelize([(i, float(i)) for i in range(8)], 2) \
            .map_values(lambda v: v + 1).set_name("shared")
        left = shared.map_values(lambda v: v * 2)
        right = shared.map_partitions(
            lambda it: (kv for kv in it if kv[0] % 2 == 0))
        joined = left.join(right, 2)
        report = audit_graph(PlanGraph.from_rdd(joined))
        reuse = [f for f in report if f.rule == "plan-uncached-reuse"]
        assert any("shared" in f.location for f in reuse)


def test_fanout_over_persisted_rdd_is_silent():
    with make_ctx() as ctx:
        shared = ctx.parallelize([(i, float(i)) for i in range(8)], 2) \
            .map_values(lambda v: v + 1).set_name("shared").persist()
        joined = shared.map_values(lambda v: v * 2) \
            .join(shared.map_partitions(
                lambda it: (kv for kv in it if kv[0] % 2 == 0)), 2)
        report = audit_graph(PlanGraph.from_rdd(joined))
        assert "plan-uncached-reuse" not in rules(report)
        shared.unpersist()


def test_computed_edges_prunes_below_materialized_persisted_root():
    with make_ctx() as ctx:
        base = ctx.parallelize([1, 2, 3], 2)
        shared = base.map(lambda x: x).set_name("shared").persist()
        graph = PlanGraph.from_rdd(shared)
        # first materialization: the persisted root's chain is computed
        assert base.rdd_id in computed_edges(graph)
        # already materialized by an earlier job: served from cache,
        # nothing above the boundary is traversed
        edges = computed_edges(graph,
                               materialized=frozenset({shared.rdd_id}))
        assert base.rdd_id not in edges
        assert edges == {shared.rdd_id: set()}
        # a persisted *interior* node is never expanded either way
        downstream = shared.map(lambda x: x + 1)
        edges = computed_edges(PlanGraph.from_rdd(downstream))
        assert base.rdd_id not in edges
        assert shared.rdd_id in edges
        shared.unpersist()


# ----------------------------------------------------------------------
# rule: plan-redundant-shuffle
# ----------------------------------------------------------------------
def test_shuffle_over_copartitioned_parent_is_flagged():
    with make_ctx() as ctx:
        pre = ctx.parallelize([(i % 4, 1) for i in range(16)], 4) \
            .reduce_by_key(lambda a, b: a + b, 4)
        # the engine's own operators elide this; a hand-built shuffle
        # over the same partitioner is the defect the rule catches
        redundant = ShuffledRDD(pre, HashPartitioner(4))
        report = audit_graph(PlanGraph.from_rdd(redundant))
        assert "plan-redundant-shuffle" in rules(report)


def test_shuffle_onto_different_partitioner_is_silent():
    with make_ctx() as ctx:
        pre = ctx.parallelize([(i % 4, 1) for i in range(16)], 4) \
            .reduce_by_key(lambda a, b: a + b, 4)
        report = audit_graph(PlanGraph.from_rdd(
            ShuffledRDD(pre, HashPartitioner(8))))
        assert "plan-redundant-shuffle" not in rules(report)


# ----------------------------------------------------------------------
# PlanAuditor: cross-job + cross-context tracking
# ----------------------------------------------------------------------
def test_auditor_flags_rdd_computed_by_two_jobs():
    auditor = PlanAuditor()
    with make_ctx() as ctx:
        reused = ctx.parallelize(list(range(8)), 2) \
            .map(lambda x: x * 2).set_name("reused")
        auditor.job_submitted(reused, "first count")
        assert not [f for f in auditor.report
                    if f.rule == "plan-uncached-reuse"]
        auditor.job_submitted(reused, "second count")
        reuse = [f for f in auditor.report
                 if f.rule == "plan-uncached-reuse"]
        assert len(reuse) == 1
        assert "first count" in reuse[0].message
        assert "second count" in reuse[0].message


def test_auditor_trusts_persisted_rdd_across_jobs():
    auditor = PlanAuditor()
    with make_ctx() as ctx:
        reused = ctx.parallelize(list(range(8)), 2) \
            .map(lambda x: x * 2).set_name("reused").persist()
        auditor.job_submitted(reused, "first")
        auditor.job_submitted(reused, "second")
        assert "plan-uncached-reuse" not in [
            f.rule for f in auditor.report]
        reused.unpersist()


def test_auditor_does_not_conflate_rdd_ids_across_contexts():
    """Two Contexts restart their rdd-id counters; the same program
    run twice must not read as one RDD computed by two jobs."""
    auditor = PlanAuditor()
    for round_no in range(2):
        with make_ctx() as ctx:
            rdd = ctx.parallelize(list(range(8)), 2) \
                .map(lambda x: x + 1).set_name("per-context")
            auditor.job_submitted(rdd, f"round {round_no}")
    assert "plan-uncached-reuse" not in [f.rule for f in auditor.report]
    assert auditor.jobs_seen == 2


def test_auditor_keeps_graphs_when_asked():
    auditor = PlanAuditor(keep_graphs=True)
    with make_ctx() as ctx:
        rdd = ctx.parallelize([1, 2, 3], 2).map(lambda x: x)
        auditor.job_submitted(rdd, "kept")
    assert len(auditor.graphs) == 1
    description, graph = auditor.graphs[0]
    assert description == "kept"
    assert graph.root == rdd.rdd_id
    assert "audited" in auditor.summary()


# ----------------------------------------------------------------------
# laziness: nothing plan-shaped happens in a plain run
# ----------------------------------------------------------------------
def test_plan_export_is_lazy():
    """Without an auditing session the engine never builds plan
    graphs — a plain job runs with no plan hook installed."""
    from repro.engine import linthooks
    assert linthooks.session_active() is False
    with make_ctx() as ctx:
        assert ctx.parallelize(list(range(10)), 2).sum() == 45


def test_findings_round_trip_through_report():
    auditor = PlanAuditor()
    with make_ctx() as ctx:
        reused = ctx.parallelize(list(range(8)), 2).map(lambda x: x)
        auditor.job_submitted(reused, "a")
        auditor.job_submitted(reused, "b")
    merged = LintReport()
    auditor.report_into(merged)
    assert "plan-uncached-reuse" in rules(merged)
    # deterministic ordering survives the merge
    assert rules(merged) == rules(merged)


def test_describe_value_shapes():
    from repro.lint.plan import _describe_value
    assert _describe_value(3) == "int64"
    assert _describe_value(2.5) == "float64"
    assert _describe_value((1, 2, 3)) == "index[3]"
    assert _describe_value(np.zeros(4)) == "ndarray[float64]"
