"""Plan-time dataflow auditor: typed plan graphs over RDD lineage.

The other lint passes look at one function (closures) or one handle
(lifecycle).  This pass looks at the *plan*: the lineage DAG the
scheduler is about to execute, exported as one :class:`PlanNode` per
RDD with its operation kind, partitioner, storage level and an
inferred :class:`BlockSchema` (record form, mode count, per-mode index
dtype, value dtype).  Schemas are seeded at the
driver-side collection roots — a ``BlockCollectionRDD``'s blocks and a
``ParallelCollectionRDD``'s first record are already materialized on
the driver, so peeking costs nothing — and propagated through the
narrow/shuffle edges by operation kind (``materializeRecords`` expands
blocks to records, ``keyBlocks`` keys a block by one of its ``int64``
index columns, a ``BlockJoinRDD`` keeps keyed blocks keyed blocks — or
emits keyed rows on its last step — a shuffle hands blocks on as
blocks, the broadcast MTTKRP's ``blockContributions`` /
``sampledContributions`` and the kernels' factor-side steps
(``rowBlocks``, ``solveRows``, ``scaleRows``, ``rowProducts``) yield
keyed rows, ``mapValues`` keeps the key, an opaque ``map`` degrades to
unknown).

Four rule families run over the finished graph, all *before* any task
executes:

``plan-schema-mismatch`` (error)
    A cogroup/join, block join or row product whose parents disagree
    on key dtype/arity.  At runtime this surfaces partitions deep into
    a shuffle as a dtype error or, worse, silently co-grouped keys that
    can never match (``1`` vs ``(1,)``).
``plan-block-churn`` (warning)
    A columnar block source degraded to loose records
    (``materializeRecords``) and then shipped through a shuffle as
    loose tuples: bucketed, sized and, where serialized, pickled
    record by record instead of as a few arrays per block.  The
    paper's Fig. 4 communication costs are exactly why record-shaped
    shuffle payloads matter.
``plan-uncached-reuse`` (warning)
    An uncached RDD consumed by two or more downstream branches (in
    one plan) or by two or more jobs (tracked across plans by
    :class:`PlanAuditor`): every extra consumer recomputes the whole
    narrow chain above it.
``plan-redundant-shuffle`` (warning)
    A shuffle over records that are already partitioned by an equal
    partitioner (the engine elides such a shuffle itself, so only a
    hand-built ``ShuffledRDD`` plans one).

Everything here is lazy: nothing in the engine builds a plan graph
unless a plan-auditing session (or ``repro plan --explain``) asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .model import Finding, LintReport

PASS_NAME = "plan"

#: narrow operation kinds that preserve both keys and record schema:
#: block steps — the vectorized kernel's CSTF-QCOO empty queue column
#: and per-partition lexsort, and the leverage sampler's draw of a
#: tensor block's rows
_SCHEMA_PRESERVING_OPS = frozenset({
    "emptyQueueBlocks", "canonicalBlocks", "sampleBlocks",
})

#: operation kinds that yield keyed factor rows whatever they read: the
#: queue reduce, the broadcast MTTKRP's per-partition contributions
#: (exact, or the fused sample-and-contribute task body) and the
#: kernels' factor-side steps (either kernel's — the record oracle
#: batches its output into the same blocks, and its contributions are
#: the same ``int64`` key -> ``float64`` row pairs, loose)
_KEYED_ROWS_OPS = frozenset({
    "reduceQueueBlocks", "blockContributions", "sampledContributions",
    "rowBlocks", "solveRows", "scaleRows", "rowProducts",
})

#: narrow operation kinds that preserve the key but rebuild the value
_KEY_PRESERVING_OPS = frozenset({
    "mapValues", "flatMapValues", "combineByKey(local)",
    "join", "leftOuterJoin",
})


@dataclass(frozen=True)
class BlockSchema:
    """What one RDD's records look like, as far as inference can see.

    ``form`` is one of ``blocks`` (columnar partition blocks),
    ``keyed-rows`` (dense keyed factor-row batches), ``records``
    (plain Python records) or ``unknown`` (an opaque transform erased
    the shape).  ``order``/``index_dtype``/``value_dtype`` describe
    tensor-shaped data; ``key`` is the partitioning-key descriptor of
    key-value records (``int64``, ``index[3]``, ``str``...) and of
    keyed blocks (always ``int64``: one of their index columns).
    """

    form: str = "unknown"
    order: int | None = None
    key: str | None = None
    index_dtype: str | None = None
    value_dtype: str | None = None

    def describe(self) -> str:
        """Compact one-token rendering for plan output."""
        if self.form == "blocks":
            keyed = f"key={self.key}, " if self.key is not None else ""
            return (f"blocks[order={self.order}, {keyed}"
                    f"{self.index_dtype}/{self.value_dtype}]")
        if self.form == "keyed-rows":
            return (f"keyed-rows[{self.index_dtype} -> "
                    f"{self.value_dtype}]")
        if self.form == "records":
            parts = []
            if self.key is not None:
                parts.append(f"key={self.key}")
            if self.order is not None:
                parts.append(f"order={self.order}")
            if self.value_dtype is not None:
                parts.append(f"value={self.value_dtype}")
            inner = ", ".join(parts)
            return f"records[{inner}]" if inner else "records"
        return "unknown"


UNKNOWN_SCHEMA = BlockSchema()

KEYED_ROWS_SCHEMA = BlockSchema(form="keyed-rows", key="int64",
                                index_dtype="int64",
                                value_dtype="float64")


def _blocks_schema(order: int | None, keyed: bool) -> BlockSchema:
    """Schema of columnar blocks; a keyed block's key is one of its
    ``int64`` index columns."""
    return BlockSchema(form="blocks", order=order,
                       key="int64" if keyed else None,
                       index_dtype="int64", value_dtype="float64")


@dataclass
class PlanEdge:
    """One lineage edge of the plan graph."""

    parent_id: int
    #: ``narrow`` or ``shuffle``
    kind: str
    #: the shuffle's target partitioner (shuffle edges only)
    partitioner: Any = None


@dataclass
class PlanNode:
    """One RDD of the exported plan."""

    rdd_id: int
    op: str
    name: str
    cls: str
    num_partitions: int
    partitioner: Any
    storage_level: str | None
    schema: BlockSchema
    parents: list[PlanEdge] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def label(self) -> str:
        """Stable human-facing node label used in findings."""
        return f"rdd {self.rdd_id} ({self.name})"


# ----------------------------------------------------------------------
# schema inference
# ----------------------------------------------------------------------
def _describe_value(value: Any) -> str:
    """Dtype-ish descriptor of one driver-side record component."""
    import numpy as np

    from repro.engine.blocks import ColumnarBlock, KeyedRowBlock

    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int64"
    if isinstance(value, (float, np.floating)):
        return "float64"
    if isinstance(value, str):
        return "str"
    if isinstance(value, tuple):
        if value and all(isinstance(v, (int, np.integer))
                         for v in value):
            return f"index[{len(value)}]"
        return f"tuple[{len(value)}]"
    if isinstance(value, np.ndarray):
        return f"ndarray[{value.dtype}]"
    if isinstance(value, (ColumnarBlock, KeyedRowBlock)):
        return "block"
    return type(value).__name__


def _schema_of_record(record: Any) -> BlockSchema:
    """Schema inferred from one concrete driver-side record."""
    from repro.engine.blocks import ColumnarBlock, KeyedRowBlock

    if isinstance(record, ColumnarBlock):
        return _blocks_schema(record.order, record.key_mode is not None)
    if isinstance(record, KeyedRowBlock):
        return KEYED_ROWS_SCHEMA
    if isinstance(record, tuple) and len(record) == 2:
        key = _describe_value(record[0])
        value = _describe_value(record[1])
        order: int | None = None
        value_dtype: str | None = None
        if key.startswith("index[") and value == "float64":
            order = int(key[len("index["):-1])
            value_dtype = "float64"
        return BlockSchema(form="records", order=order, key=key,
                           value_dtype=value_dtype)
    return BlockSchema(form="records")


def _peek_collection(rdd: Any) -> BlockSchema:
    """Schema of a driver-backed collection RDD, from its first record."""
    slices = getattr(rdd, "_blocks", None)
    if slices is None:
        slices = getattr(rdd, "_slices", None)
    if slices is None:
        return UNKNOWN_SCHEMA
    for part in slices:
        for record in part:
            return _schema_of_record(record)
    return UNKNOWN_SCHEMA


def _propagate(rdd: Any,
               parent_schemas: list[BlockSchema]) -> BlockSchema:
    """Schema of ``rdd`` given its parents', by class and op kind."""
    cls = type(rdd).__name__
    op = getattr(rdd, "op", cls)
    parent = parent_schemas[0] if parent_schemas else UNKNOWN_SCHEMA

    if cls in ("ParallelCollectionRDD", "BlockCollectionRDD"):
        return _peek_collection(rdd)
    if op in _KEYED_ROWS_OPS:
        return KEYED_ROWS_SCHEMA
    if cls == "ShuffledRDD":
        if parent.form in ("blocks", "keyed-rows"):
            return parent   # a shuffle read assembles blocks again
        return BlockSchema(form="records", key=parent.key)
    if cls == "CoGroupedRDD":
        key = next((s.key for s in parent_schemas if s.key is not None),
                   None)
        return BlockSchema(form="records", key=key)
    if cls == "BlockJoinRDD":
        # re-keyed by another int64 index column either way
        if rdd.keep_index:
            return _blocks_schema(parent.order, keyed=True)
        return KEYED_ROWS_SCHEMA

    # MapPartitionsRDD and friends: dispatch on the pinned op kind
    if op == "materializeRecords":
        if parent.form in ("blocks", "keyed-rows"):
            key = parent.key
            if key is None and parent.order:
                key = f"index[{parent.order}]"
            return BlockSchema(form="records", order=parent.order,
                               key=key,
                               value_dtype=parent.value_dtype)
        return parent
    if op == "keyBlocks":
        return _blocks_schema(parent.order, keyed=True)
    if op in _SCHEMA_PRESERVING_OPS:
        return parent
    if op in _KEY_PRESERVING_OPS:
        return BlockSchema(form="records", key=parent.key)
    return UNKNOWN_SCHEMA


# ----------------------------------------------------------------------
# graph export
# ----------------------------------------------------------------------
@dataclass
class PlanGraph:
    """The typed plan of one job: nodes in parents-first order."""

    root: int
    nodes: dict[int, PlanNode]

    @classmethod
    def from_rdd(cls, rdd: Any) -> "PlanGraph":
        """Export the plan graph of ``rdd``'s lineage (no execution)."""
        from repro.engine.rdd import ShuffleDependency

        nodes: dict[int, PlanNode] = {}
        for current in rdd.lineage_rdds():
            edges: list[PlanEdge] = []
            parent_schemas: list[BlockSchema] = []
            for dep in current.dependencies:
                if isinstance(dep, ShuffleDependency):
                    edges.append(PlanEdge(dep.rdd.rdd_id, "shuffle",
                                          dep.partitioner))
                else:
                    edges.append(PlanEdge(dep.rdd.rdd_id, "narrow"))
                parent_schemas.append(nodes[dep.rdd.rdd_id].schema)
            level = current.storage_level
            node = PlanNode(
                rdd_id=current.rdd_id,
                op=getattr(current, "op", type(current).__name__),
                name=current.name,
                cls=type(current).__name__,
                num_partitions=current.num_partitions,
                partitioner=current.partitioner,
                storage_level=(getattr(level, "value", str(level))
                               if level is not None else None),
                schema=_propagate(current, parent_schemas),
                parents=edges)
            nodes[current.rdd_id] = node
        for node in nodes.values():
            for edge in node.parents:
                nodes[edge.parent_id].children.append(node.rdd_id)
        return cls(root=rdd.rdd_id, nodes=nodes)

    # ------------------------------------------------------------------
    def node(self, rdd_id: int) -> PlanNode:
        """The node for ``rdd_id`` (KeyError if absent)."""
        return self.nodes[rdd_id]

    def render(self, explain: bool = False) -> str:
        """Human-facing plan listing, parents-first.

        ``explain`` adds schema, partitioner and storage columns —
        the body of ``repro plan --explain``."""
        lines: list[str] = []
        for node in self.nodes.values():
            deps = ", ".join(
                f"{'<=' if e.kind == 'shuffle' else '<-'} "
                f"{e.parent_id}" for e in node.parents)
            head = (f"[{node.rdd_id}] {node.name} "
                    f"(op={node.op}, partitions={node.num_partitions})")
            if deps:
                head += f"  {deps}"
            lines.append(head)
            if explain:
                detail = [f"schema={node.schema.describe()}"]
                if node.partitioner is not None:
                    detail.append(f"partitioner={node.partitioner!r}")
                if node.storage_level is not None:
                    detail.append(f"persisted={node.storage_level}")
                lines.append("      " + "  ".join(detail))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def _is_collection_root(node: PlanNode) -> bool:
    return node.cls in ("ParallelCollectionRDD", "BlockCollectionRDD")


def _check_schema_mismatch(graph: PlanGraph,
                           report: LintReport) -> None:
    """Rule ``plan-schema-mismatch``: disagreeing join parents."""
    for node in graph.nodes.values():
        parents = [graph.node(e.parent_id) for e in node.parents]
        if node.cls in ("CoGroupedRDD", "HashJoinRDD", "BlockJoinRDD",
                        "RowProductsRDD"):
            keys = sorted({p.schema.key for p in parents
                           if p.schema.key is not None})
            if len(keys) > 1:
                sides = "; ".join(
                    f"{p.label()} keyed by {p.schema.key}"
                    for p in parents if p.schema.key is not None)
                report.add(Finding(
                    rule="plan-schema-mismatch", severity="error",
                    message=f"cogroup/join parents disagree on key "
                            f"type ({sides}); these keys can never "
                            f"match, so the join silently produces "
                            f"empty groups",
                    location=node.label(), pass_name=PASS_NAME))


def _check_block_churn(graph: PlanGraph, report: LintReport) -> None:
    """Rule ``plan-block-churn``: blocks -> records -> shuffle."""
    degraded: set[int] = set()
    for node in graph.nodes.values():
        if node.op == "materializeRecords":
            parents = [graph.node(e.parent_id) for e in node.parents]
            if any(p.schema.form in ("blocks", "keyed-rows")
                   for p in parents):
                degraded.add(node.rdd_id)
    if not degraded:
        return

    # propagate "carries degraded block rows" downstream in
    # parents-first order
    tainted: dict[int, int] = {rdd_id: rdd_id for rdd_id in degraded}
    for node in graph.nodes.values():
        if node.rdd_id in tainted:
            continue
        for edge in node.parents:
            origin = tainted.get(edge.parent_id)
            if origin is None:
                continue
            origin_node = graph.node(origin)
            if edge.kind == "shuffle":
                report.add(Finding(
                    rule="plan-block-churn", severity="warning",
                    message=f"columnar blocks are expanded to records "
                            f"at {origin_node.label()} and then "
                            f"shuffled as loose records at "
                            f"{node.label()}; the shuffle handles "
                            f"them record by record — expand "
                            f"inside a block-aware kernel op instead",
                    location=origin_node.label(),
                    pass_name=PASS_NAME))
            else:
                tainted[node.rdd_id] = origin
            break


def computed_edges(graph: PlanGraph,
                   materialized: set[int] | frozenset[int] = frozenset()
                   ) -> dict[int, set[int]]:
    """Lineage edges the scheduler would actually traverse.

    Walks from the root, not descending below persisted nodes — their
    partitions are served from cache after first materialization, so
    their ancestors are not recomputed.  A persisted *root* does get
    expanded (this job is presumably its first materialization) unless
    its id is in ``materialized`` — the set of persisted RDDs an
    earlier job already computed, tracked by :class:`PlanAuditor`.
    Returns ``parent_id -> {child ids that pull it}``; every traversed
    node appears as a key (the root with no pulling children is
    ``root -> set()``)."""
    edges: dict[int, set[int]] = {graph.root: set()}
    stack = [graph.node(graph.root)]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        if node.storage_level is not None \
                and (node.rdd_id != graph.root
                     or node.rdd_id in materialized):
            continue
        for edge in node.parents:
            edges.setdefault(edge.parent_id, set()).add(node.rdd_id)
            stack.append(graph.node(edge.parent_id))
    return edges


def _check_uncached_reuse(graph: PlanGraph, report: LintReport,
                          materialized: set[int] | frozenset[int]
                          = frozenset()) -> None:
    """Rule ``plan-uncached-reuse`` (intra-plan): fan-out >= 2.

    Fan-out is counted over :func:`computed_edges`, not the raw
    lineage: an ancestor that sits below a cached factor appears in
    the full graph with many children but is never recomputed, and
    must not be flagged."""
    edges = computed_edges(graph, materialized)
    for rdd_id, consumers in edges.items():
        node = graph.node(rdd_id)
        if node.storage_level is not None or _is_collection_root(node):
            continue
        if len(consumers) >= 2:
            pulls = sorted(consumers)
            report.add(Finding(
                rule="plan-uncached-reuse", severity="warning",
                message=f"uncached RDD feeds {len(pulls)} "
                        f"downstream branches in one job (rdds "
                        f"{pulls}); each branch recomputes its "
                        f"narrow chain — persist() it and unpersist "
                        f"when done",
                location=node.label(), pass_name=PASS_NAME))


def _check_redundant_shuffle(graph: PlanGraph,
                             report: LintReport) -> None:
    """Rule ``plan-redundant-shuffle``: shuffling co-partitioned data."""
    for node in graph.nodes.values():
        for edge in node.parents:
            if edge.kind != "shuffle":
                continue
            parent = graph.node(edge.parent_id)
            if parent.partitioner is not None \
                    and parent.partitioner == edge.partitioner:
                report.add(Finding(
                    rule="plan-redundant-shuffle", severity="warning",
                    message=f"{node.label()} shuffles "
                            f"{parent.label()}, which is already "
                            f"partitioned by an equal partitioner "
                            f"({edge.partitioner!r}); the shuffle "
                            f"moves every record to the partition it "
                            f"is already in",
                    location=node.label(), pass_name=PASS_NAME))


def audit_graph(graph: PlanGraph,
                report: LintReport | None = None,
                materialized: set[int] | frozenset[int] = frozenset()
                ) -> LintReport:
    """Run every plan rule over one exported graph.

    ``materialized`` — persisted rdd ids already computed by earlier
    jobs (see :func:`computed_edges`); empty for a standalone audit of
    a graph that has never run."""
    if report is None:
        report = LintReport()
    _check_schema_mismatch(graph, report)
    _check_block_churn(graph, report)
    _check_uncached_reuse(graph, report, materialized)
    _check_redundant_shuffle(graph, report)
    return report


# ----------------------------------------------------------------------
# session component
# ----------------------------------------------------------------------
class PlanAuditor:
    """Collects and audits one plan graph per submitted job.

    Installed by :class:`~repro.lint.runner.LintSession` (with
    ``plan=True``); the scheduler's ``job_submitted`` hook routes here
    before each job executes.  Besides the per-graph rules it tracks
    *cross-job* reuse: an uncached RDD whose partitions are computed
    by two or more jobs is recompute amplification the intra-plan
    fan-out check cannot see.  Descent prunes below persisted RDDs —
    their first job materializes the cache, later jobs read it.
    """

    def __init__(self, keep_graphs: bool = False) -> None:
        self.report = LintReport()
        self.keep_graphs = keep_graphs
        self.graphs: list[tuple[str, PlanGraph]] = []
        self.jobs_seen = 0
        #: (ctx seq, rdd_id) -> job sequence numbers whose plans
        #: compute it (descriptions repeat across jobs, so they cannot
        #: key this; rdd ids restart per context, so they need the
        #: context discriminator)
        self._computed_by: dict[tuple[int, int], set[int]] = {}
        self._job_desc: dict[int, str] = {}
        self._labels: dict[tuple[int, int], str] = {}
        #: shuffle edges whose map side has already run in some job;
        #: later jobs re-merge the retained map outputs instead of
        #: recomputing the stages above the boundary
        self._shuffles_run: set[tuple[int, int, int]] = set()
        #: persisted rdds some earlier job has materialized, per ctx
        self._materialized: dict[int, set[int]] = {}
        #: contexts seen, pinned so ``id()`` values cannot be reused
        self._ctx_refs: list[Any] = []
        self._ctx_seqs: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _ctx_seq(self, rdd: Any) -> int:
        ctx = getattr(rdd, "ctx", None)
        key = id(ctx)
        seq = self._ctx_seqs.get(key)
        if seq is None:
            seq = len(self._ctx_refs)
            self._ctx_seqs[key] = seq
            self._ctx_refs.append(ctx)
        return seq

    def job_submitted(self, rdd: Any, description: str) -> None:
        """Export, audit and (optionally) retain one job's plan."""
        graph = PlanGraph.from_rdd(rdd)
        self.jobs_seen += 1
        ctx_seq = self._ctx_seq(rdd)
        materialized = self._materialized.setdefault(ctx_seq, set())
        audit_graph(graph, self.report, materialized=materialized)
        self._record_cross_job(graph, description, ctx_seq)
        # running this job materializes every persisted RDD it touches
        materialized.update(
            node.rdd_id for node in graph.nodes.values()
            if node.storage_level is not None)
        if self.keep_graphs:
            self.graphs.append((description, graph))

    def _record_cross_job(self, graph: PlanGraph, description: str,
                          ctx_seq: int) -> None:
        job_seq = self.jobs_seen
        self._job_desc[job_seq] = description
        stack = [graph.node(graph.root)]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.rdd_id in seen:
                continue
            seen.add(node.rdd_id)
            if node.storage_level is not None:
                # served from cache after its first job; its ancestors
                # are computed at most once, so no amplification
                continue
            if not _is_collection_root(node):
                # rdd ids restart per Context, so key by (ctx, rdd)
                rdd_key = (ctx_seq, node.rdd_id)
                jobs = self._computed_by.setdefault(rdd_key, set())
                jobs.add(job_seq)
                self._labels[rdd_key] = node.label()
                if len(jobs) == 2:
                    names = ", ".join(
                        f"job {n} ({self._job_desc[n]})"
                        for n in sorted(jobs))
                    self.report.add(Finding(
                        rule="plan-uncached-reuse", severity="warning",
                        message=f"uncached RDD is computed by "
                                f"multiple jobs ({names}); each job "
                                f"recomputes its narrow chain — "
                                f"persist() it across the jobs and "
                                f"unpersist when done",
                        location=self._labels[rdd_key],
                        pass_name=PASS_NAME))
            for edge in node.parents:
                if edge.kind == "shuffle":
                    # descend past a shuffle boundary only for the job
                    # that first runs its map side; later jobs re-merge
                    # the retained map outputs, the stages above are
                    # skipped (mirrors DAGScheduler stage reuse)
                    key = (ctx_seq, node.rdd_id, edge.parent_id)
                    if key in self._shuffles_run:
                        continue
                    self._shuffles_run.add(key)
                stack.append(graph.node(edge.parent_id))

    # ------------------------------------------------------------------
    def report_into(self, report: LintReport) -> None:
        """Merge this auditor's findings into ``report``."""
        report.merge(self.report)

    def summary(self) -> str:
        """One-line human summary for the CLI footer."""
        return (f"{self.jobs_seen} job plan"
                f"{'s' if self.jobs_seen != 1 else ''} audited, "
                f"{len(self.report)} finding"
                f"{'s' if len(self.report) != 1 else ''}")
