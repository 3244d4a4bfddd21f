"""Analytic runtime model over measured dataflow statistics.

The paper's runtime figures (2, 3, 5) are wall-clock measurements on 4-32
physical Comet nodes.  We cannot run on Comet, so the reproduction
separates *what the dataflow does* from *what the hardware costs*:

1. the engine executes the real RDD program and measures its shape —
   records processed, bytes shuffled, shuffle rounds, load skew, HDFS
   traffic (:class:`RunStats.from_metrics`);
2. statistics are linearly rescaled from the benchmark tensor's nnz to
   the paper tensor's nnz (every term of every algorithm is linear in
   nnz, cf. Table 4), via :meth:`RunStats.scaled`;
3. this module prices those statistics on a :class:`HardwareProfile`
   calibrated to Comet-era hardware.

The model is

``T(n) = T_compute/n * skew  +  remote_bytes(n) / (n * bw)
       + rounds * round_latency(n) + jobs * job_overhead + T_disk(n)``

with ``remote_bytes(n) = total_shuffle_bytes * (n-1)/n`` (uniform hash
placement sends that fraction of every shuffle off-node).  The shapes of
the paper's figures emerge from the interaction of the terms:

* CSTF vs BIGtensor — hadoop mode pays per-job startup, HDFS
  materialization and a higher per-record cost, so it sits several times
  above CSTF at every cluster size (Fig. 2);
* QCOO vs COO — QCOO processes *more* local work per record (queue
  rebuilding; bigger records to serialize) but runs fewer, lighter
  shuffle rounds.  At small n the extra compute dominates (QCOO loses,
  as in Fig. 2a at 4 nodes); as n grows compute shrinks like 1/n while
  per-round latency grows, so QCOO wins at scale (the crossover the
  paper reports).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsCollector


@dataclass(frozen=True)
class HardwareProfile:
    """Hardware and framework constants used to price dataflow statistics.

    Defaults are calibrated to the paper's testbed (XSEDE Comet: 24-core
    Xeon E5-2680v3 nodes, 10/40 GbE, local SSD; Spark 1.5.2, Hadoop
    2.6.0).  Per-record costs are *effective* costs — they absorb JVM
    object handling, hashing and (de)serialization, which dominate Spark
    shuffle-heavy workloads far more than raw flops do.
    """

    name: str = "comet"
    cores_per_node: int = 24
    #: effective dense flop throughput per core (vector ops on R-length rows)
    flops_per_second_per_core: float = 1.0e9
    #: effective per-record CPU cost of one Spark map/join/reduce hop
    spark_record_cost_s: float = 4.0e-6
    #: MapReduce pays more per record (object churn, spills, sort)
    hadoop_record_cost_s: float = 1.2e-5
    #: per-core throughput of moving record bytes through the framework
    #: (serialize + copy + deserialize); prices fat records — QCOO's
    #: queue-carrying tuples cost more per hop than COO's lean ones
    ser_bw_bytes_per_s: float = 2.5e7
    #: fraction of a node's cores effectively usable (scheduling gaps)
    core_efficiency: float = 0.55
    #: per-node network bandwidth, bytes/s (10 GbE ~ 1.25 GB/s)
    network_bw_bytes_per_s: float = 1.25e9
    #: fixed cost of one shuffle round (barrier + fetch setup)
    round_latency_base_s: float = 1.0
    #: straggler/barrier growth per doubling of the cluster
    round_latency_per_log2_node_s: float = 0.75
    #: driver-side overhead per job (action)
    job_latency_s: float = 0.15
    #: per-node disk bandwidth for HDFS traffic (SSD ~ 200 MB/s effective)
    disk_bw_bytes_per_s: float = 2.0e8
    #: startup cost of one MapReduce job on YARN
    hadoop_job_startup_s: float = 6.0
    #: per-core CRC-32 checksum throughput for the integrity layer
    #: (hardware-assisted CRC streams at several GB/s per core)
    checksum_bw_bytes_per_s: float = 5.0e9
    #: HDFS write replication factor
    hdfs_replication: int = 3


#: Default profile used by the benchmark harness.
COMET = HardwareProfile()


class _Kind(NamedTuple):
    """How one :class:`RunStats` field combines under ``+``, ``-``,
    ``* k`` and :meth:`RunStats.scaled` (``k`` a factor)."""

    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    mul: Callable[[Any, float], Any]
    scale: Callable[[Any, float], Any]


def _keep(a: Any, _k: float) -> Any:
    return a


def _truncated(a: Any, k: float) -> int:
    return int(a * k)


#: a byte or record count: summed, clamped at zero, truncated to int
_EXTENSIVE = _Kind(operator.add, lambda a, b: max(0, a - b),
                   _truncated, _truncated)
#: a round or job count: an extensive count rounded under ``*``, but
#: intensive under ``scaled`` (more nonzeros, not more rounds)
_ROUNDS = _Kind(operator.add, lambda a, b: max(0, a - b),
                lambda a, k: int(round(a * k)), _keep)
#: a float total (flops, seconds): summed, clamped at zero, scaled
_FLOAT = _Kind(operator.add, lambda a, b: max(0.0, a - b),
               operator.mul, operator.mul)
#: a ratio: the worse of two runs, kept by every rescale
_SKEW = _Kind(max, max, _keep, _keep)


def _stat(kind: _Kind, default: float = 0) -> Any:
    return field(default=default, metadata={"kind": kind})


@dataclass
class RunStats:
    """Extensive statistics of one measured workload run.  Each field
    carries the one :class:`_Kind` rule its arithmetic follows."""

    records_processed: int = _stat(_EXTENSIVE)
    shuffle_total_bytes: int = _stat(_EXTENSIVE)
    shuffle_records: int = _stat(_EXTENSIVE)
    shuffle_rounds: int = _stat(_ROUNDS)
    flops: float = _stat(_FLOAT, 0.0)
    num_jobs: int = _stat(_ROUNDS)
    hadoop_jobs: int = _stat(_ROUNDS)
    hdfs_read_bytes: int = _stat(_EXTENSIVE)
    hdfs_write_bytes: int = _stat(_EXTENSIVE)
    #: bytes written into RDD caches (QCOO re-caches its queue RDD
    #: every MTTKRP; Section 6.4's "overhead of generating more
    #: intermediate data")
    cache_bytes: int = _stat(_EXTENSIVE)
    #: one-shot network traffic of broadcast variables
    broadcast_bytes: int = _stat(_EXTENSIVE)
    #: bytes spilled to simulated disk under memory pressure (shuffle
    #: runs, demoted cache entries, spill-mode task working sets);
    #: priced as a write plus a read-back against disk bandwidth
    spill_bytes: int = _stat(_EXTENSIVE)
    #: attempt-seconds thrown away by the straggler layer (timed-out
    #: attempts and cancelled speculation losers) — duplicated work the
    #: cluster really spent, priced as extra CPU seconds
    straggler_wasted_s: float = _stat(_FLOAT, 0.0)
    #: bytes run through the integrity layer's CRC (seal + verify);
    #: zero when ``EngineConf.integrity`` is off, so the model prices
    #: the verification tax only when it was actually paid
    checksummed_bytes: int = _stat(_EXTENSIVE)
    #: rows drawn by the leverage-score sampler (sampler="lev");
    #: reported, not separately priced — the sampled rows already flow
    #: through records_processed/shuffle bytes, which is exactly how
    #: sampling pays off in the model (a sublinear dataflow)
    sampled_records: int = _stat(_EXTENSIVE)
    #: max-node records / mean-node records (load imbalance), >= 1
    node_skew: float = _stat(_SKEW, 1.0)

    @classmethod
    def from_metrics(cls, metrics: "MetricsCollector",
                     flops: float = 0.0) -> "RunStats":
        """Extract statistics from everything a collector recorded."""
        read = metrics.total_shuffle_read()
        write = metrics.total_shuffle_write()
        records = 0
        per_node: dict[int, int] = {}
        for job in metrics.jobs:
            for st in job.stages:
                records += st.output_records
                for node, n in st.records_per_node.items():
                    per_node[node] = per_node.get(node, 0) + n
        skew = 1.0
        if per_node:
            mean = sum(per_node.values()) / len(per_node)
            if mean > 0:
                skew = max(per_node.values()) / mean
        return cls(
            records_processed=records,
            shuffle_total_bytes=read.total_bytes,
            shuffle_records=write.records_written,
            shuffle_rounds=metrics.total_shuffle_rounds(),
            flops=flops,
            num_jobs=len(metrics.jobs),
            hadoop_jobs=metrics.hadoop.jobs_launched,
            hdfs_read_bytes=metrics.hadoop.hdfs_bytes_read,
            hdfs_write_bytes=metrics.hadoop.hdfs_bytes_written,
            cache_bytes=sum(metrics.cache_bytes_written.values()),
            broadcast_bytes=metrics.broadcast_bytes,
            spill_bytes=metrics.memory.spill_bytes,
            straggler_wasted_s=metrics.stragglers.wasted_attempt_s,
            checksummed_bytes=metrics.integrity.checksum_bytes,
            sampled_records=metrics.sampler_draws,
            node_skew=skew,
        )

    def _apply(self, rule: str, other: Any) -> "RunStats":
        """Each field through its kind's ``rule``, against ``other``'s
        field (another run) or ``other`` itself (a factor)."""
        run = isinstance(other, RunStats)
        return RunStats(**{
            f.name: getattr(f.metadata["kind"], rule)(
                getattr(self, f.name),
                getattr(other, f.name) if run else other)
            for f in fields(self)})

    def __add__(self, other: "RunStats") -> "RunStats":
        return self._apply("add", other)

    def __sub__(self, other: "RunStats") -> "RunStats":
        return self._apply("sub", other)

    def __mul__(self, k: float) -> "RunStats":
        return self._apply("mul", k)

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "RunStats":
        """Rescale extensive quantities by ``factor`` (e.g. paper-nnz /
        benchmark-nnz).  Round counts and skew are intensive and kept."""
        return self._apply("scale", factor)


@dataclass
class TimeBreakdown:
    """Priced runtime, decomposed by resource."""

    compute_s: float = 0.0
    network_s: float = 0.0
    round_latency_s: float = 0.0
    job_latency_s: float = 0.0
    disk_s: float = 0.0
    startup_s: float = 0.0
    components: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return (self.compute_s + self.network_s + self.round_latency_s
                + self.job_latency_s + self.disk_s + self.startup_s)


class CostModel:
    """Prices :class:`RunStats` for a given cluster size."""

    def __init__(self, profile: HardwareProfile = COMET):
        self.profile = profile

    def remote_fraction(self, num_nodes: int) -> float:
        """Expected fraction of shuffle bytes crossing the network under
        uniform hash placement."""
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        return (num_nodes - 1) / num_nodes

    def round_latency(self, num_nodes: int) -> float:
        """Synchronisation cost of one shuffle round on ``num_nodes``."""
        p = self.profile
        return (p.round_latency_base_s
                + p.round_latency_per_log2_node_s * math.log2(max(2, num_nodes)))

    def estimate(self, stats: RunStats, num_nodes: int,
                 mode: str = "spark") -> TimeBreakdown:
        """Estimated wall-clock seconds for running ``stats`` worth of
        dataflow on ``num_nodes`` nodes."""
        if mode not in ("spark", "hadoop"):
            raise ValueError(f"mode must be 'spark' or 'hadoop', got {mode!r}")
        p = self.profile
        effective_cores = num_nodes * p.cores_per_node * p.core_efficiency

        record_cost = (p.hadoop_record_cost_s if mode == "hadoop"
                       else p.spark_record_cost_s)
        bytes_processed = stats.shuffle_total_bytes + stats.cache_bytes
        cpu_seconds = (stats.records_processed * record_cost
                       + bytes_processed / p.ser_bw_bytes_per_s
                       + stats.flops / p.flops_per_second_per_core
                       + stats.straggler_wasted_s
                       + stats.checksummed_bytes / p.checksum_bw_bytes_per_s)
        compute = cpu_seconds / effective_cores * stats.node_skew

        remote_bytes = stats.shuffle_total_bytes * self.remote_fraction(num_nodes)
        network = remote_bytes / (num_nodes * p.network_bw_bytes_per_s)
        # broadcasts replicate to every node: traffic grows with the
        # cluster (measured at the measurement size, rescaled here)
        if stats.broadcast_bytes:
            per_node_copy = stats.broadcast_bytes  # one copy's fan-out cost
            network += per_node_copy * (num_nodes - 1) / (
                num_nodes * p.network_bw_bytes_per_s)

        rounds = stats.shuffle_rounds * self.round_latency(num_nodes)
        jobs = stats.num_jobs * p.job_latency_s

        disk = 0.0
        startup = 0.0
        if mode == "hadoop":
            traffic = (stats.hdfs_write_bytes * p.hdfs_replication
                       + stats.hdfs_read_bytes)
            disk = traffic / (num_nodes * p.disk_bw_bytes_per_s)
            startup = stats.hadoop_jobs * p.hadoop_job_startup_s
        if stats.spill_bytes:
            # memory-pressure spills are written once and read back once
            # against local disk, in either mode
            disk += (stats.spill_bytes * 2
                     / (num_nodes * p.disk_bw_bytes_per_s))

        return TimeBreakdown(
            compute_s=compute, network_s=network, round_latency_s=rounds,
            job_latency_s=jobs, disk_s=disk, startup_s=startup,
            components={
                "records": float(stats.records_processed),
                "remote_bytes": remote_bytes,
                "rounds": float(stats.shuffle_rounds),
            })

    def sweep(self, stats: RunStats, node_counts: list[int],
              mode: str = "spark") -> dict[int, TimeBreakdown]:
        """Price ``stats`` across a node-count sweep (Figure 2/3 series)."""
        return {n: self.estimate(stats, n, mode) for n in node_counts}
