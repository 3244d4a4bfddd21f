"""Metrics collection — the engine's analogue of Spark's metrics service.

Section 6.5 of the paper uses "Spark's built-in metrics collection
service" to measure *remote* and *local* shuffle bytes read.  This module
reproduces that service: every stage records shuffle read/write byte and
record counts (split local/remote by node placement), task input/output
records, and per-node record distribution (used by the cost model to
account for load imbalance on skewed tensors).

Phases
------
Figure 4 breaks communication down per MTTKRP (``MTTKRP-1`` ...
``MTTKRP-4`` plus ``Other``).  Callers tag work with
:meth:`MetricsCollector.phase`; every stage executed inside the scope is
attributed to that label.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import events
from .speculation import SPECULATIVE_ATTEMPT_OFFSET


@dataclass
class ShuffleReadMetrics:
    """Bytes/records fetched by reduce tasks, split local vs remote."""

    remote_bytes: int = 0
    local_bytes: int = 0
    remote_records: int = 0
    local_records: int = 0

    @property
    def total_bytes(self) -> int:
        return self.remote_bytes + self.local_bytes

    @property
    def total_records(self) -> int:
        return self.remote_records + self.local_records

    def merge(self, other: "ShuffleReadMetrics") -> None:
        """Accumulate another stage's read counters into this one."""
        self.remote_bytes += other.remote_bytes
        self.local_bytes += other.local_bytes
        self.remote_records += other.remote_records
        self.local_records += other.local_records


@dataclass
class ShuffleWriteMetrics:
    """Bytes/records emitted by map tasks into shuffle buckets."""

    bytes_written: int = 0
    records_written: int = 0

    def merge(self, other: "ShuffleWriteMetrics") -> None:
        """Accumulate another stage's write counters into this one."""
        self.bytes_written += other.bytes_written
        self.records_written += other.records_written


@dataclass
class StageMetrics:
    """Metrics for one executed stage."""

    stage_id: int
    job_id: int
    phase: str
    is_shuffle_map: bool
    name: str = ""
    num_tasks: int = 0
    output_records: int = 0
    shuffle_read: ShuffleReadMetrics = field(default_factory=ShuffleReadMetrics)
    shuffle_write: ShuffleWriteMetrics = field(default_factory=ShuffleWriteMetrics)
    #: records processed per node, for load-balance analysis
    records_per_node: dict[int, int] = field(default_factory=dict)
    #: cache interaction
    cache_hit_partitions: int = 0
    cache_miss_partitions: int = 0
    #: wall-clock seconds the in-process engine spent executing the stage
    duration_s: float = 0.0

    def add_node_records(self, node: int, n: int) -> None:
        """Attribute ``n`` processed records to ``node``."""
        self.records_per_node[node] = self.records_per_node.get(node, 0) + n


@dataclass
class JobMetrics:
    """Metrics for one job (one action)."""

    job_id: int
    phase: str
    description: str
    stages: list[StageMetrics] = field(default_factory=list)
    #: number of wide (shuffle) boundaries this job newly executed.  A
    #: cogroup of two shuffled parents counts once: its map stages feed a
    #: single shuffle round, matching how the paper counts "shuffles".
    shuffle_rounds: int = 0

    @property
    def shuffle_read(self) -> ShuffleReadMetrics:
        total = ShuffleReadMetrics()
        for st in self.stages:
            total.merge(st.shuffle_read)
        return total

    @property
    def shuffle_write(self) -> ShuffleWriteMetrics:
        total = ShuffleWriteMetrics()
        for st in self.stages:
            total.merge(st.shuffle_write)
        return total


@dataclass
class HadoopMetrics:
    """Extra accounting for Hadoop-mode execution (BIGtensor baseline)."""

    jobs_launched: int = 0
    hdfs_bytes_written: int = 0
    hdfs_bytes_read: int = 0
    hdfs_records_written: int = 0


@dataclass
class FaultMetrics:
    """Accounting for the fault-tolerance layer: what failed, what the
    scheduler retried/resubmitted, and what lineage recomputed."""

    #: task attempts that failed with a retryable error
    task_failures: int = 0
    #: failed task attempts that were retried (not terminal)
    tasks_retried: int = 0
    #: failures injected by the FaultPlan (subset of task_failures)
    injected_task_failures: int = 0
    #: fetch failures observed by the scheduler (missing or injected)
    fetch_failures: int = 0
    #: shuffle-map stages resubmitted from lineage after a fetch failure
    stages_resubmitted: int = 0
    #: shuffle records rewritten by resubmitted (recovery) stages
    records_recomputed: int = 0
    #: nodes killed (Context.kill_node / NodeKillEvent)
    nodes_killed: int = 0
    #: shuffle map outputs invalidated by node deaths
    map_outputs_lost: int = 0
    #: cached partitions invalidated by node deaths
    cached_partitions_lost: int = 0
    #: per-node failed-task-attempt counts
    failures_per_node: dict[int, int] = field(default_factory=dict)

    def record_node_failure(self, node: int) -> int:
        """Count one failed attempt against ``node``; returns its total."""
        total = self.failures_per_node.get(node, 0) + 1
        self.failures_per_node[node] = total
        return total

    @property
    def any_activity(self) -> bool:
        return bool(self.task_failures or self.fetch_failures
                    or self.nodes_killed)


@dataclass
class MemoryMetrics:
    """Accounting for the unified memory manager: pool peaks, spills,
    storage-level demotions and OOM kills.

    Fed by the memory pools, the cache manager and the collector's
    event handlers.
    """

    #: high-water mark of the execution pool (shuffle combine buffers)
    execution_peak_bytes: int = 0
    #: high-water mark of the storage pool (memory-resident cache)
    storage_peak_bytes: int = 0
    #: sorted runs spilled by shuffle-side aggregation buffers
    shuffle_spill_bytes: int = 0
    shuffle_spill_count: int = 0
    #: spilled shuffle runs read back during merge-on-read
    spill_read_bytes: int = 0
    #: cache entries demoted from memory to disk (MEMORY_AND_DISK*)
    cache_spill_bytes: int = 0
    cache_spill_count: int = 0
    #: working sets streamed through disk by tasks running in spill mode
    #: after an OOM with nothing left to demote
    task_spill_bytes: int = 0
    #: storage-level demotions (cache spills and OOM-driven RDD demotions)
    demotions: int = 0
    #: human-readable record of each demotion, in order
    demotion_events: list[str] = field(default_factory=list)
    #: tasks killed by an injected per-node OOM budget
    oom_kills: int = 0
    #: single cache entries larger than the whole storage budget that
    #: stayed resident (memory-only levels cannot spill them)
    oversized_entries: int = 0

    @property
    def spill_bytes(self) -> int:
        """Total bytes written to simulated disk by spilling."""
        return (self.shuffle_spill_bytes + self.cache_spill_bytes
                + self.task_spill_bytes)

    @property
    def spill_count(self) -> int:
        return self.shuffle_spill_count + self.cache_spill_count

    @property
    def any_activity(self) -> bool:
        return bool(self.spill_bytes or self.demotions or self.oom_kills
                    or self.oversized_entries)

    def record_demotion(self, event: str) -> None:
        """Count one storage-level demotion and remember what moved."""
        self.demotions += 1
        self.demotion_events.append(event)


@dataclass
class StragglerMetrics:
    """Accounting for the straggler-resilience layer: injected slowness,
    deadline expiries, speculative attempts and node quarantine.

    Fed by the fault injector's delay draws and the collector's event
    handlers.
    """

    #: task attempts that overran a hard deadline (TaskTimedOutError)
    tasks_timed_out: int = 0
    #: backup attempts launched past the speculative deadline
    tasks_speculated: int = 0
    #: backup attempts that committed (the primary was cancelled)
    speculative_wins: int = 0
    #: attempts abandoned at their speculative deadline
    attempts_cancelled: int = 0
    #: slow-task / slow-node delays injected by the FaultPlan
    injected_slow_tasks: int = 0
    #: indefinite hangs injected by the FaultPlan
    injected_hangs: int = 0
    #: total injected delay, in (possibly virtual) seconds
    injected_delay_s: float = 0.0
    #: retry backoff sleeps taken by the task retry loop
    backoff_sleeps: int = 0
    #: total backoff slept, in (possibly virtual) seconds
    backoff_total_s: float = 0.0
    #: attempt-seconds spent on work that was thrown away (timed-out
    #: and cancelled attempts)
    wasted_attempt_s: float = 0.0
    #: nodes quarantined by the health tracker
    nodes_quarantined: int = 0
    #: quarantined nodes readmitted on probation after expiry
    nodes_readmitted: int = 0

    @property
    def any_activity(self) -> bool:
        """Whether anything straggler-related happened this run."""
        return bool(self.tasks_timed_out or self.tasks_speculated
                    or self.attempts_cancelled or self.injected_slow_tasks
                    or self.injected_hangs or self.backoff_sleeps
                    or self.nodes_quarantined)


@dataclass
class IntegrityMetrics:
    """Accounting for the data-integrity layer: checksum verifications,
    detected corruption and the recoveries that healed it.

    Fed by the :class:`~repro.engine.integrity.IntegrityManager`,
    which verifies blobs inside tasks, and by the checkpoint store.
    """

    #: checksum verifications that passed (blob matched its CRC)
    blocks_verified: int = 0
    #: checksum verifications that failed — detected corruption
    corrupted_blocks: int = 0
    #: byte flips injected by the fault plan's ``corrupt_block_prob``;
    #: "no silent corruption" means this equals ``corrupted_blocks``
    #: when no real corruption occurred
    corruptions_injected: int = 0
    #: corruptions healed by recomputing data from lineage: shuffle-map
    #: stage resubmissions, cache-entry drops, spill/broadcast task
    #: retries
    recompute_recoveries: int = 0
    #: total bytes run through the CRC (cost-model input)
    checksum_bytes: int = 0
    #: checkpoint shards whose CRC was verified on load
    checkpoint_shards_verified: int = 0
    #: checkpoints skipped at resume because a shard failed
    #: verification (corrupt or torn) — each skip is one fallback step
    #: toward the newest good checkpoint
    checkpoint_fallbacks: int = 0
    #: checkpoint shards found truncated on disk (torn writes)
    torn_writes_detected: int = 0
    #: non-finite values caught by the numerical watchdog before
    #: raising NumericalIntegrityError
    nan_guards_tripped: int = 0

    @property
    def any_activity(self) -> bool:
        """Whether the integrity layer verified or detected anything."""
        return bool(self.blocks_verified or self.corrupted_blocks
                    or self.checkpoint_shards_verified
                    or self.checkpoint_fallbacks
                    or self.torn_writes_detected
                    or self.nan_guards_tripped)


class MetricsCollector(events.EngineListener):
    """Accumulates job/stage metrics for one :class:`~repro.engine.Context`.

    The collector is the event bus's accounting subscriber: its
    ``on_*`` handlers turn scheduler events into the job records and the
    fault, straggler, memory, integrity and (with ``hadoop_mode``) HDFS
    counters.  The data plane — memory pools, the cache, the integrity
    manager, the fault injector's draws — writes its own counters
    directly.

    The collector is append-only; analysis code slices it by phase label
    (:mod:`repro.analysis.communication`).
    """

    def __init__(self, hadoop_mode: bool = False) -> None:
        #: charge every map output as an HDFS write + read-back and
        #: every shuffle round as a MapReduce job (BIGtensor baseline)
        self.hadoop_mode = hadoop_mode
        self.jobs: list[JobMetrics] = []
        self._open_jobs: dict[int, JobMetrics] = {}
        self.hadoop = HadoopMetrics()
        self.faults = FaultMetrics()
        self.memory = MemoryMetrics()
        self.stragglers = StragglerMetrics()
        self.integrity = IntegrityMetrics()
        self._phase_stack: list[str] = ["Other"]
        #: driver wall-clock seconds spent inside each phase() scope
        #: (outermost attribution: nested phases bill their parent too)
        self.phase_seconds: dict[str, float] = {}
        #: bytes deserialized out of MEMORY_SER cache (ablation metric)
        self.cache_deserialized_bytes: int = 0
        #: *live* memory footprint of cached partitions, by storage level
        #: name — decremented on eviction/unpersist/demotion/clear
        self.cache_stored_bytes: dict[str, int] = {}
        #: *cumulative* bytes written into caches, by storage level name
        #: (never decremented; the cost model's cache-write volume)
        self.cache_bytes_written: dict[str, int] = {}
        #: bytes read back from DISK-level cached partitions
        self.cache_disk_read_bytes: int = 0
        #: one-shot network traffic of broadcast variables
        self.broadcast_bytes: int = 0
        self.broadcast_count: int = 0
        #: spark-mode checkpoint traffic (write + read-back of reliable
        #: storage, see Context.checkpoint)
        self.checkpoint_bytes_written: int = 0
        self.checkpoint_records_written: int = 0
        #: ndarray batches processed by the vectorized kernel (a record
        #: kernel run leaves both at zero)
        self.kernel_batches: int = 0
        self.kernel_batch_records: int = 0
        #: leverage-score sampling activity (sampler="lev"): partitions
        #: sampled, rows drawn, and the input nonzeros those draws
        #: replaced
        self.sampler_partitions: int = 0
        self.sampler_draws: int = 0
        self.sampler_input_records: int = 0

    def add_kernel_batch(self, records: int) -> None:
        """Count one vectorized-kernel partition batch of ``records``."""
        self.kernel_batches += 1
        self.kernel_batch_records += records

    def add_sampler_draw(self, draws: int, input_records: int) -> None:
        """Count one partition's leverage-score sample: ``draws`` rows
        drawn out of ``input_records`` nonzeros."""
        self.sampler_partitions += 1
        self.sampler_draws += draws
        self.sampler_input_records += input_records

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute all jobs run inside the scope to ``label``, and
        bill the scope's wall-clock time to :attr:`phase_seconds`."""
        self._phase_stack.append(label)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._phase_stack.pop()
            self.phase_seconds[label] = (
                self.phase_seconds.get(label, 0.0) + elapsed)

    def seconds_in_phases(self, prefix: str) -> float:
        """Total wall-clock seconds of every phase whose label starts
        with ``prefix`` (e.g. ``"MTTKRP-"`` for all mode updates)."""
        return sum(s for label, s in self.phase_seconds.items()
                   if label.startswith(prefix))

    # ------------------------------------------------------------------
    # recording (event-bus handlers)
    # ------------------------------------------------------------------
    def on_job_start(self, event: events.JobStart) -> None:
        """Open a job record attributed to the current phase."""
        job = JobMetrics(job_id=event.job_id, phase=self.current_phase,
                         description=event.description)
        self.jobs.append(job)
        self._open_jobs[event.job_id] = job

    def on_job_shuffle_rounds(self, event: events.JobShuffleRounds) -> None:
        """Record the job's paper-style shuffle-round count; in Hadoop
        mode each round is one MapReduce job."""
        job = self._open_jobs.get(event.job_id)
        if job is not None:
            job.shuffle_rounds = event.rounds
        if self.hadoop_mode:
            self.hadoop.jobs_launched += event.rounds

    def on_job_end(self, event: events.JobEnd) -> None:
        """Close the job's record."""
        self._open_jobs.pop(event.job_id, None)

    def on_stage_completed(self, event: events.StageCompleted) -> None:
        """Append the stage to its job's record, charge a recovery
        re-execution's shuffle records as recomputed and, in Hadoop
        mode, a map stage's output as an HDFS write + read-back."""
        m = event.metrics
        job = self._open_jobs.get(event.job_id)
        if job is not None:
            job.stages.append(m)
        if event.recomputation:
            self.faults.records_recomputed += m.shuffle_write.records_written
        if self.hadoop_mode and m.is_shuffle_map:
            self.hadoop.hdfs_bytes_written += m.shuffle_write.bytes_written
            self.hadoop.hdfs_bytes_read += m.shuffle_write.bytes_written
            self.hadoop.hdfs_records_written += \
                m.shuffle_write.records_written

    def on_task_end(self, event: events.TaskEnd) -> None:
        """Recognize a committed backup attempt as a speculative win."""
        if event.attempt >= SPECULATIVE_ATTEMPT_OFFSET:
            self.stragglers.speculative_wins += 1

    def _backoff(self, backoff_s: float) -> None:
        if backoff_s > 0:
            self.stragglers.backoff_sleeps += 1
            self.stragglers.backoff_total_s += backoff_s

    def on_task_failure(self, event: events.TaskFailure) -> None:
        """Count the failure against the task and its node, and the
        retry's backoff sleep."""
        f = self.faults
        f.task_failures += 1
        f.record_node_failure(event.node)
        if event.will_retry:
            f.tasks_retried += 1
        self._backoff(event.backoff_s)

    def on_task_timed_out(self, event: events.TaskTimedOut) -> None:
        """Count a hard-deadline expiry, its wasted attempt time and
        the retry's backoff sleep."""
        self.stragglers.tasks_timed_out += 1
        self.stragglers.wasted_attempt_s += event.elapsed_s
        self._backoff(event.backoff_s)

    def on_task_speculated(self, event: events.TaskSpeculated) -> None:
        """Count a backup-attempt launch."""
        self.stragglers.tasks_speculated += 1

    def on_task_attempt_cancelled(
            self, event: events.TaskAttemptCancelled) -> None:
        """Count one attempt abandoned at its speculative deadline."""
        self.stragglers.attempts_cancelled += 1
        self.stragglers.wasted_attempt_s += event.elapsed_s

    def on_node_quarantined(self, event: events.NodeQuarantined) -> None:
        """Count a node entering quarantine."""
        self.stragglers.nodes_quarantined += 1

    def on_node_readmitted(self, event: events.NodeReadmitted) -> None:
        """Count a probational readmission."""
        self.stragglers.nodes_readmitted += 1

    def on_fetch_failed(self, event: events.FetchFailed) -> None:
        """Count a reduce-side fetch failure."""
        self.faults.fetch_failures += 1

    def on_stages_resubmitted(
            self, event: events.StagesResubmitted) -> None:
        """Count lineage-recovery stage resubmissions."""
        self.faults.stages_resubmitted += event.count

    def on_block_corrupted(self, event: events.BlockCorrupted) -> None:
        """Count one corruption healed by lineage recomputation (the
        integrity manager counts the detection itself)."""
        self.integrity.recompute_recoveries += 1

    def on_node_lost(self, event: events.NodeLost) -> None:
        """Account a node death and the data it took down."""
        f = self.faults
        f.nodes_killed += 1
        f.map_outputs_lost += event.map_outputs_lost
        f.cached_partitions_lost += event.cached_partitions_lost

    def on_oom_kill(self, event: events.OOMKill) -> None:
        """Count an injected-budget OOM kill."""
        self.memory.oom_kills += 1

    def on_task_spill(self, event: events.TaskSpill) -> None:
        """Account a spill-mode task's streamed bytes."""
        self.memory.task_spill_bytes += event.nbytes

    def on_rdd_demoted(self, event: events.RDDDemoted) -> None:
        """Record the demotion in the human-readable event log."""
        self.memory.record_demotion(
            f"oom: rdd {event.rdd_id} ({event.rdd_name}) "
            f"{event.from_level.value} -> {event.to_level.value}")

    # ------------------------------------------------------------------
    # aggregation helpers
    # ------------------------------------------------------------------
    def jobs_in_phase(self, label: str) -> list[JobMetrics]:
        """All jobs attributed to phase ``label``."""
        return [j for j in self.jobs if j.phase == label]

    def phases(self) -> list[str]:
        """Phase labels in first-seen order."""
        seen: dict[str, None] = {}
        for j in self.jobs:
            seen.setdefault(j.phase, None)
        return list(seen)

    def shuffle_read_by_phase(self) -> dict[str, ShuffleReadMetrics]:
        """Aggregate shuffle reads per phase (Figure 4's breakdown)."""
        out: dict[str, ShuffleReadMetrics] = {}
        for job in self.jobs:
            out.setdefault(job.phase, ShuffleReadMetrics()).merge(
                job.shuffle_read)
        return out

    def total_shuffle_read(self) -> ShuffleReadMetrics:
        """Shuffle reads summed over every recorded job."""
        total = ShuffleReadMetrics()
        for job in self.jobs:
            total.merge(job.shuffle_read)
        return total

    def total_shuffle_write(self) -> ShuffleWriteMetrics:
        """Shuffle writes summed over every recorded job."""
        total = ShuffleWriteMetrics()
        for job in self.jobs:
            total.merge(job.shuffle_write)
        return total

    def total_shuffle_rounds(self) -> int:
        """Paper-style shuffle rounds summed over every job."""
        return sum(job.shuffle_rounds for job in self.jobs)

    def records_per_node(self) -> dict[int, int]:
        """Total records processed per node (load-balance view)."""
        out: dict[int, int] = {}
        for job in self.jobs:
            for st in job.stages:
                for node, n in st.records_per_node.items():
                    out[node] = out.get(node, 0) + n
        return out

    def summary(self) -> str:
        """Human-readable one-screen digest of everything recorded —
        the text analogue of Spark's web UI front page."""
        read = self.total_shuffle_read()
        write = self.total_shuffle_write()
        lines = [
            f"jobs run            : {len(self.jobs)}",
            f"shuffle rounds      : {self.total_shuffle_rounds()}",
            f"shuffle write       : {write.records_written:,} records, "
            f"{write.bytes_written:,} B",
            f"shuffle read remote : {read.remote_records:,} records, "
            f"{read.remote_bytes:,} B",
            f"shuffle read local  : {read.local_records:,} records, "
            f"{read.local_bytes:,} B",
        ]
        if self.cache_stored_bytes:
            stored = ", ".join(f"{lvl}={b:,}B"
                               for lvl, b in self.cache_stored_bytes.items())
            lines.append(f"cache stored        : {stored}")
        if self.cache_bytes_written:
            written = ", ".join(f"{lvl}={b:,}B"
                                for lvl, b in self.cache_bytes_written.items())
            lines.append(f"cache written       : {written}")
        mem = self.memory
        if mem.any_activity or mem.storage_peak_bytes \
                or mem.execution_peak_bytes:
            lines.append(
                f"memory              : peak storage "
                f"{mem.storage_peak_bytes:,} B / execution "
                f"{mem.execution_peak_bytes:,} B, spilled "
                f"{mem.spill_bytes:,} B in {mem.spill_count} spills, "
                f"{mem.demotions} demotions, {mem.oom_kills} OOM kills")
        if self.broadcast_count:
            lines.append(f"broadcasts          : {self.broadcast_count} "
                         f"({self.broadcast_bytes:,} B payload)")
        if self.hadoop.jobs_launched:
            lines.append(
                f"hadoop jobs         : {self.hadoop.jobs_launched}, HDFS "
                f"write {self.hadoop.hdfs_bytes_written:,} B / read "
                f"{self.hadoop.hdfs_bytes_read:,} B")
        if self.checkpoint_records_written:
            lines.append(
                f"checkpoints         : {self.checkpoint_records_written:,} "
                f"records, {self.checkpoint_bytes_written:,} B")
        if self.kernel_batches:
            lines.append(
                f"kernel batches      : {self.kernel_batches:,} "
                f"({self.kernel_batch_records:,} records)")
        if self.sampler_partitions:
            lines.append(
                f"sampler (lev)       : {self.sampler_draws:,} draws "
                f"over {self.sampler_partitions:,} partitions "
                f"({self.sampler_input_records:,} input nonzeros)")
        if self.faults.any_activity:
            f = self.faults
            lines.append(
                f"faults              : {f.task_failures} task failures "
                f"({f.tasks_retried} retried), {f.fetch_failures} fetch "
                f"failures, {f.stages_resubmitted} stages resubmitted, "
                f"{f.records_recomputed:,} records recomputed, "
                f"{f.nodes_killed} nodes killed")
        if self.stragglers.any_activity:
            s = self.stragglers
            lines.append(
                f"stragglers          : {s.injected_slow_tasks} slow tasks "
                f"({s.injected_delay_s:.2f}s), {s.injected_hangs} hangs, "
                f"{s.tasks_timed_out} timeouts, {s.tasks_speculated} "
                f"speculated ({s.speculative_wins} backup wins), "
                f"{s.attempts_cancelled} cancelled, "
                f"{s.backoff_sleeps} backoffs "
                f"({s.backoff_total_s:.2f}s), "
                f"{s.wasted_attempt_s:.2f}s wasted, "
                f"{s.nodes_quarantined} quarantined "
                f"({s.nodes_readmitted} readmitted)")
        if self.integrity.any_activity:
            i = self.integrity
            lines.append(
                f"integrity           : {i.blocks_verified:,} blocks "
                f"verified ({i.checksum_bytes:,} B), "
                f"{i.corrupted_blocks} corrupt "
                f"({i.corruptions_injected} injected), "
                f"{i.recompute_recoveries} recompute recoveries, "
                f"{i.checkpoint_shards_verified} ckpt shards verified, "
                f"{i.checkpoint_fallbacks} ckpt fallbacks "
                f"({i.torn_writes_detected} torn), "
                f"{i.nan_guards_tripped} NaN guards")
        by_phase = self.shuffle_read_by_phase()
        if len(by_phase) > 1:
            lines.append("per phase (remote B):")
            for phase, m in by_phase.items():
                lines.append(f"  {phase:12s} {m.remote_bytes:,}")
        return "\n".join(lines)
