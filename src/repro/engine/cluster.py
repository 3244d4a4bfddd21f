"""Simulated cluster topology.

The paper runs on 4-32 worker nodes of the XSEDE Comet cluster.  We model
the topology explicitly so that every shuffle record can be classified as
*local* (map task and reduce task placed on the same node) or *remote*
(crossing the network), exactly the distinction Spark's metrics service
draws in Section 6.5 of the paper.

Placement policy: partition ``p`` of every RDD is pinned to node
``p % num_nodes``.  This mirrors Spark's default round-robin executor
assignment closely enough for communication accounting: two RDDs with the
same partitioner place equal partitions on the same node, which is what
makes co-partitioned joins communication-free.

Node liveness: the fault-tolerance layer can *kill* a node (its shuffle
outputs and cached partitions are lost and must be recomputed from
lineage).  The task scheduler can *quarantine* one: a timed exclusion
driven by :class:`NodeHealthTracker` scores (task failures, straggles,
corrupt writes) in which the node keeps its data but receives no new
tasks, ending with probational readmission.  Partitions whose primary
node is unavailable are re-placed deterministically onto the remaining
available nodes, modelling the scheduler moving tasks to healthy
executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linthooks
from .errors import EngineError


@dataclass(frozen=True)
class Node:
    """One worker node of the simulated cluster."""

    node_id: int
    cores: int = 24          # Comet: Intel Xeon E5-2680v3, 24 cores
    memory_gb: float = 128.0  # Comet: 128 GB RAM

    @property
    def name(self) -> str:
        return f"node-{self.node_id}"


@dataclass
class Cluster:
    """A set of worker nodes with deterministic partition placement.

    Parameters
    ----------
    num_nodes:
        Number of worker nodes (the paper sweeps 4, 8, 16, 32).
    cores_per_node:
        Cores per node; used by the cost model to bound per-node task
        parallelism.
    memory_gb_per_node:
        Per-node memory budget; the cache manager can enforce it for
        eviction experiments.
    """

    num_nodes: int = 4
    cores_per_node: int = 24
    memory_gb_per_node: float = 128.0
    nodes: list[Node] = field(init=False)
    #: nodes lost to simulated failure (their data is gone)
    dead_nodes: set[int] = field(init=False, default_factory=set)
    #: nodes temporarily quarantined by the node health tracker,
    #: mapped to the clock time at which they become eligible for
    #: probational readmission
    quarantined_nodes: dict[int, float] = field(init=False,
                                                default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise ValueError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}")
        self.nodes = [
            Node(i, self.cores_per_node, self.memory_gb_per_node)
            for i in range(self.num_nodes)
        ]
        # liveness/placement are read on every task and mutated by
        # kills/quarantines from any backend worker; reentrant because
        # the mutators consult available_nodes
        self._lock = linthooks.make_rlock("Cluster")

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _check_node_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(
                f"node_id must be in [0, {self.num_nodes}), got {node_id}")

    def is_available(self, node_id: int) -> bool:
        """True iff the node is alive and not quarantined — i.e. it
        may receive new tasks."""
        with self._lock:
            linthooks.access(self, "liveness", write=False)
            return (node_id not in self.dead_nodes
                    and node_id not in self.quarantined_nodes)

    @property
    def available_nodes(self) -> list[int]:
        """Sorted ids of nodes that may receive tasks."""
        with self._lock:
            return [n.node_id for n in self.nodes
                    if self.is_available(n.node_id)]

    def kill_node(self, node_id: int) -> None:
        """Mark a node dead.  The caller (``Context.kill_node``) is
        responsible for invalidating its shuffle outputs and cache."""
        self._check_node_id(node_id)
        with self._lock:
            if node_id in self.dead_nodes:
                return
            if len(self.available_nodes) <= 1 \
                    and self.is_available(node_id):
                raise EngineError(
                    f"cannot kill node {node_id}: it is the last "
                    f"available node")
            linthooks.access(self, "liveness", write=True)
            self.dead_nodes.add(node_id)

    def revive_node(self, node_id: int) -> None:
        """Bring a dead node back (empty — its old data stays lost)."""
        self._check_node_id(node_id)
        with self._lock:
            linthooks.access(self, "liveness", write=True)
            self.dead_nodes.discard(node_id)

    # ------------------------------------------------------------------
    # quarantine (node health layer)
    # ------------------------------------------------------------------
    def quarantine_node(self, node_id: int, until: float) -> bool:
        """Quarantine a failing or straggling node until clock time
        ``until``: it receives no new tasks but keeps its data, and is
        eligible for probational readmission once the engine clock
        passes ``until`` (see :meth:`quarantine_expired`).
        Returns False (and does nothing) when quarantining would leave
        no available node.
        """
        self._check_node_id(node_id)
        with self._lock:
            if node_id in self.quarantined_nodes:
                return True
            if len(self.available_nodes) <= 1 \
                    and self.is_available(node_id):
                return False
            linthooks.access(self, "liveness", write=True)
            self.quarantined_nodes[node_id] = until
            return True

    def readmit_node(self, node_id: int) -> bool:
        """Lift a node's quarantine (probational readmission).  Returns
        True iff the node was quarantined — exactly one of several
        racing callers observes the transition."""
        self._check_node_id(node_id)
        with self._lock:
            linthooks.access(self, "liveness", write=True)
            return self.quarantined_nodes.pop(node_id, None) is not None

    def quarantine_expired(self, now: float) -> list[int]:
        """Sorted ids of quarantined nodes whose term ended by ``now``
        (still quarantined — the caller decides when to readmit)."""
        with self._lock:
            linthooks.access(self, "liveness", write=False)
            return sorted(n for n, until in self.quarantined_nodes.items()
                          if now >= until)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def node_of_partition(self, partition: int) -> int:
        """Node id hosting ``partition`` (round-robin placement).

        When the primary node ``partition % num_nodes`` is dead or
        quarantined, the partition's tasks are re-placed round-robin
        over the remaining available nodes — deterministic, so repeated
        runs under the same fault plan place identically.
        """
        with self._lock:
            linthooks.access(self, "liveness", write=False)
            primary = partition % self.num_nodes
            if self.is_available(primary):
                return primary
            available = self.available_nodes
            if not available:
                raise EngineError("no available nodes left in the cluster")
            return available[partition % len(available)]

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.cores_per_node

    def default_parallelism(self) -> int:
        """Default number of partitions for new RDDs: 2 tasks per core (a
        common Spark rule of thumb), capped at 128 partitions so tiny
        test clusters stay cheap."""
        return min(2 * self.total_cores, 128)


class NodeHealthTracker:
    """Decayed per-node badness scores driving quarantine decisions.

    Every straggle (task deadline expiry, speculated attempt), task
    failure and corrupt write observed by the
    :class:`~repro.engine.taskscheduler.TaskScheduler` adds weight to
    the offending node's score; scores
    decay exponentially with half-life ``decay_s`` so ancient sins are
    forgiven.  When a node's score reaches
    ``EngineConf.quarantine_threshold`` the scheduler quarantines it
    (see :meth:`Cluster.quarantine_node`); on probational readmission
    the score is reset to half the threshold, so a single further
    incident sends a repeat offender straight back.

    All clock values are engine-clock seconds (virtual under
    :class:`~repro.engine.clock.VirtualClock`), supplied by the caller
    so the tracker itself stays clock-agnostic.
    """

    def __init__(self, decay_s: float = 30.0):
        if decay_s <= 0:
            raise ValueError(f"decay_s must be > 0, got {decay_s}")
        self.decay_s = decay_s
        #: node -> (score at last update, time of last update)
        self._scores: dict[int, tuple[float, float]] = {}
        self._lock = linthooks.make_lock("NodeHealth")

    def _decayed(self, node_id: int, now: float) -> float:
        score, at = self._scores.get(node_id, (0.0, now))
        if now <= at:
            return score
        return score * 0.5 ** ((now - at) / self.decay_s)

    def record(self, node_id: int, weight: float, now: float) -> float:
        """Charge ``weight`` badness to ``node_id`` at clock time
        ``now``; returns the node's new decayed score."""
        with self._lock:
            linthooks.access(self, "scores", write=True)
            score = self._decayed(node_id, now) + weight
            self._scores[node_id] = (score, now)
            return score

    def score(self, node_id: int, now: float) -> float:
        """The node's current decayed badness score."""
        with self._lock:
            linthooks.access(self, "scores", write=False)
            return self._decayed(node_id, now)

    def reset(self, node_id: int, score: float = 0.0,
              now: float = 0.0) -> None:
        """Overwrite a node's score (used on probational readmission)."""
        with self._lock:
            linthooks.access(self, "scores", write=True)
            self._scores[node_id] = (score, now)
