"""DAG scheduler: splits lineage into stages at shuffle boundaries and
drives their execution, exactly mirroring Spark's two-level
(job -> stage -> task) execution model.

This is the top layer of the execution stack::

    DAGScheduler         (this module: stage graph, lineage recovery,
        |                 retry-by-demotion memory policy)
    TaskScheduler        (task sets, placement, per-task retries)
        |
    ExecutorBackend      (serial or process-pool task execution)

Key behaviours reproduced from Spark:

* narrow transformations are *pipelined* inside one stage (each task
  streams through the whole chain of maps/filters);
* a stage graph is cut at every :class:`ShuffleDependency`;
* map outputs persist across jobs — a shuffle that was already written is
  never recomputed (this is what keeps iterative CP-ALS from re-running
  the whole lineage every action);
* lineage walks prune at fully-cached RDDs;
* failed tasks are retried up to ``conf.task_max_failures`` times, with
  per-node health scoring: a node that keeps failing tasks is
  quarantined (``conf.quarantine_threshold``) and the failed
  partition's tasks are re-placed onto healthy nodes (both handled by the
  :class:`~repro.engine.taskscheduler.TaskScheduler`);
* a :class:`~repro.engine.errors.FetchFailedError` (a reduce task found
  its shuffle incomplete, e.g. because the writer node died) is *not*
  retried in place — the scheduler resubmits the missing parent
  shuffle-map stages from lineage and re-runs the stage, up to
  ``conf.stage_max_failures`` times;
* a terminal :class:`~repro.engine.errors.TaskFailedError` is wrapped in
  :class:`~repro.engine.errors.JobExecutionError` carrying the stage id
  and partition.

Cross-cutting instrumentation (job/stage metrics, fault accounting,
Hadoop-mode HDFS charging, fault injection) is *not* called from here:
the scheduler posts typed events on the context's
:class:`~repro.engine.events.EngineEventBus` and the services subscribe
(see :mod:`repro.engine.events`).

"Shuffle rounds" (the unit the paper counts in Table 4: a join is one
round even when both inputs move, and a ``reduceByKey`` is one round) are
counted per job by grouping newly-executed shuffle dependencies by their
consuming wide RDD.  Recovery re-executions are accounted separately in
:class:`~repro.engine.metrics.FaultMetrics`, not in the job's shuffle
rounds — they are repeats of work already counted, and keeping them out
preserves the paper's Table 4 semantics under fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TYPE_CHECKING

from . import linthooks
from .errors import (CorruptedBlockError, FetchFailedError,
                     JobExecutionError, OutOfMemoryError, TaskFailedError)
from .events import (BlockCorrupted, FetchFailed, JobEnd, JobShuffleRounds,
                     JobStart, OOMKill, RDDDemoted, StageCompleted,
                     StageSubmitted, StagesResubmitted, TaskSpill)
from .memory import LEVEL_MEMORY_FACTOR, SPILL_MODE_FACTOR, demote_level
from .metrics import StageMetrics
from .rdd import RDD, NarrowDependency, ShuffleDependency
from .serialization import estimate_record_size
from .taskscheduler import TaskContext, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

__all__ = ["DAGScheduler", "MemoryPressurePolicy", "Stage", "TaskContext"]


@dataclass
class Stage:
    """A set of tasks with only narrow dependencies between them.

    ``shuffle_dep`` is set for shuffle-map stages (the stage writes its
    output into that dependency's shuffle) and ``None`` for the final
    result stage of a job.
    """

    stage_id: int
    rdd: RDD
    shuffle_dep: ShuffleDependency | None
    parents: list["Stage"] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions


class MemoryPressurePolicy:
    """Retry-by-demotion under injected per-node memory budgets.

    ``admit`` gates every successful task attempt: a working set whose
    footprint exceeds the node's budget is killed with
    :class:`OutOfMemoryError`.  ``relieve`` reacts before the retry by
    demoting the persisted RDDs feeding the task one storage level
    (RAW -> SER -> DISK), or — when nothing is left to demote —
    degrading the task to spill mode (its working set streams through
    disk at :data:`~repro.engine.memory.SPILL_MODE_FACTOR`).

    Accounting flows through ``OOMKill`` / ``TaskSpill`` /
    ``RDDDemoted`` events, never by mutating metrics directly.
    """

    def __init__(self, ctx: "Context"):
        self.ctx = ctx
        #: ``(rdd_id, partition)`` of tasks forced into spill mode after
        #: an OOM with no persisted ancestor left to demote (keyed by
        #: the stage's RDD, which is stable across stage resubmissions)
        self._spill_mode_tasks: set[tuple[int, int]] = set()

    def admit(self, stage: Stage, partition: int, node: int,
              records: list) -> None:
        """Kill the attempt with :class:`OutOfMemoryError` when its
        working-set footprint exceeds the node's injected budget.

        The footprint is the records' estimated size times the memory
        factor of the *lowest* storage level among the persisted RDDs in
        the stage's narrow chain (demotion therefore shrinks it), or the
        spill-mode factor when the task was degraded to streaming its
        working set through disk.
        """
        budget = self.ctx.fault_plan.oom_node_budgets.get(node)
        if budget is None:
            return
        raw_bytes = sum(estimate_record_size(r) for r in records)
        spill_mode = (stage.rdd.rdd_id, partition) in self._spill_mode_tasks
        if spill_mode:
            factor = SPILL_MODE_FACTOR
        else:
            levels = [rdd.storage_level
                      for rdd in stage.rdd.narrow_chain()
                      if rdd.storage_level is not None]
            factor = min((LEVEL_MEMORY_FACTOR[lvl] for lvl in levels),
                         default=1.0)
        footprint = int(raw_bytes * factor)
        if footprint > budget:
            self.ctx.event_bus.post(OOMKill(
                stage.stage_id, partition, node, footprint, budget))
            raise OutOfMemoryError(
                f"task for partition {partition} of stage "
                f"{stage.stage_id} needs {footprint} B on node {node} "
                f"(budget {budget} B)",
                node=node, requested_bytes=footprint, budget_bytes=budget)
        if spill_mode:
            self.ctx.event_bus.post(TaskSpill(
                stage.stage_id, partition, raw_bytes))

    def relieve(self, stage: Stage, partition: int) -> None:
        """React to an OOM kill: demote every demotable persisted RDD in
        the stage's narrow chain one storage level (dropping its cached
        entries so it re-caches at the new level), or — when nothing is
        left to demote — degrade the task itself to spill mode."""
        demoted = False
        for rdd in stage.rdd.narrow_chain():
            level = rdd.storage_level
            if level is None:
                continue
            new_level = demote_level(level)
            if new_level is None:
                continue
            self.ctx._cache.unpersist(rdd.rdd_id)
            rdd.storage_level = new_level
            self.ctx.event_bus.post(RDDDemoted(
                rdd.rdd_id, rdd.name, level, new_level))
            demoted = True
        if not demoted:
            self._spill_mode_tasks.add((stage.rdd.rdd_id, partition))


class DAGScheduler:
    """Builds and runs the stage graph for each action."""

    def __init__(self, ctx: "Context"):
        self.ctx = ctx
        self._next_stage_id = 0
        self._next_job_id = 0
        self._memory_policy = MemoryPressurePolicy(ctx)

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run_job(self, rdd: RDD,
                partition_func: Callable[[int, Iterable], Any],
                description: str) -> list[Any]:
        """Execute ``partition_func`` over every partition of ``rdd`` and
        return the per-partition results in order."""
        bus = self.ctx.event_bus
        job_id = self._next_job_id
        self._next_job_id += 1
        # pre-execution plan export: a no-op `is None` test unless a
        # plan-auditing lint session is installed
        linthooks.job_submitted(rdd, description)
        phase = self.ctx.metrics.current_phase
        bus.post(JobStart(job_id, description))
        succeeded = False
        try:
            final_stage = Stage(self._bump_stage_id(), rdd, None)
            final_stage.parents = self._parent_stages(rdd, {})
            executed_deps: list[ShuffleDependency] = []
            self._run_parents(final_stage, job_id, phase, executed_deps,
                              set())

            # count paper-style shuffle rounds: group new deps by consumer
            consumers = {dep.consumer_rdd_id for dep in executed_deps}
            bus.post(JobShuffleRounds(job_id, len(consumers)))

            results = self._run_stage(final_stage, job_id, phase,
                                      process=partition_func)
            succeeded = True
            return [result.value for result in results]
        except TaskFailedError as exc:
            raise JobExecutionError(
                f"job {job_id} ({description}) aborted: {exc}",
                stage_id=exc.stage_id, partition=exc.partition) from exc
        finally:
            bus.post(JobEnd(job_id, succeeded))

    # ------------------------------------------------------------------
    # stage graph construction
    # ------------------------------------------------------------------
    def _bump_stage_id(self) -> int:
        sid = self._next_stage_id
        self._next_stage_id += 1
        return sid

    def _parent_stages(self, rdd: RDD,
                       shuffle_to_stage: dict[int, Stage]) -> list[Stage]:
        """Find the shuffle-map stages feeding ``rdd``'s stage, walking
        the narrow lineage iteratively and pruning at cached RDDs and at
        shuffles whose map output already exists."""
        parents: list[Stage] = []
        visited: set[int] = set()
        stack: list[RDD] = [rdd]
        shuffle_mgr = self.ctx._shuffle_manager
        while stack:
            current = stack.pop()
            if current.rdd_id in visited:
                continue
            visited.add(current.rdd_id)
            if current.is_fully_cached():
                continue  # cache prunes the walk (tasks read the cache)
            for dep in current.dependencies:
                if isinstance(dep, ShuffleDependency):
                    if shuffle_mgr.is_written(dep.shuffle_id,
                                              dep.rdd.num_partitions):
                        continue  # reuse existing map output
                    stage = shuffle_to_stage.get(dep.shuffle_id)
                    if stage is None:
                        stage = Stage(self._bump_stage_id(), dep.rdd, dep)
                        shuffle_to_stage[dep.shuffle_id] = stage
                        stage.parents = self._parent_stages(
                            dep.rdd, shuffle_to_stage)
                    parents.append(stage)
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.rdd)
        return parents

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_parents(self, stage: Stage, job_id: int, phase: str,
                     executed: list[ShuffleDependency],
                     done: set[int], recomputation: bool = False) -> None:
        for parent in stage.parents:
            if parent.stage_id in done:
                continue
            self._run_parents(parent, job_id, phase, executed, done,
                              recomputation)
            # the graph holds one stage per shuffle still unwritten when
            # it was built (_parent_stages), each run once via ``done``
            dep = parent.shuffle_dep
            assert dep is not None
            self._run_stage(parent, job_id, phase,
                            recomputation=recomputation)
            executed.append(dep)
            done.add(parent.stage_id)

    def _run_stage(self, stage: Stage, job_id: int, phase: str,
                   process: Callable[[int, Iterable], Any] | None = None,
                   recomputation: bool = False) -> list:
        """Run one stage to completion and return its task results,
        re-running it from its first task after every recovered fetch
        failure.  A stage with a ``shuffle_dep`` is a shuffle-map stage
        (tasks write the dependency's shuffle); the job's final stage
        has none and feeds its records through ``process``."""
        dep = stage.shuffle_dep
        bus = self.ctx.event_bus
        is_map = dep is not None
        aggregator = dep.aggregator if is_map and dep.map_side_combine \
            else None
        name = f"{'shuffleMap' if is_map else 'result'} {stage.rdd.name}"
        fetch_failures = 0
        corrupt_sites: set = set()
        while True:
            bus.post(StageSubmitted(stage.stage_id, name, stage.num_tasks))
            metrics = StageMetrics(
                stage_id=stage.stage_id, job_id=job_id, phase=phase,
                is_shuffle_map=is_map, name=name,
                num_tasks=stage.num_tasks)
            task_set = TaskSet(stage=stage, metrics=metrics,
                               policy=self._memory_policy,
                               shuffle_dep=dep, aggregator=aggregator,
                               process=process)
            stage_start = self.ctx.clock.time()
            try:
                results = self.ctx._task_scheduler.run_task_set(task_set)
            except FetchFailedError as exc:
                fetch_failures = self._charge_fetch_failure(
                    exc, fetch_failures, corrupt_sites)
                self._recover_from_fetch_failure(stage, job_id, phase,
                                                 exc, fetch_failures)
                continue
            for result in results:
                metrics.add_node_records(result.node, result.count)
                metrics.output_records += result.count
            metrics.duration_s = self.ctx.clock.time() - stage_start
            bus.post(StageCompleted(job_id, metrics, recomputation))
            return results

    def _charge_fetch_failure(self, exc: FetchFailedError,
                              fetch_failures: int,
                              corrupt_sites: set) -> int:
        """Return the stage's updated fetch-failure count for ``exc``.

        A detected-corruption failure does not consume the stage's
        ``stage_max_failures`` budget the first time a site fails:
        corruption injection is a per-site first-read decision, so the
        recovery re-read is guaranteed clean and each corrupt site can
        charge at most one recovery.  A *repeat* failure of the same
        site breaks that guarantee (persistent corruption — a bug, not
        an injection) and exhausts the budget immediately.
        """
        if not isinstance(exc, CorruptedBlockError):
            return fetch_failures + 1
        site = (exc.shuffle_id, exc.missing_map_partitions,
                exc.reduce_partition)
        if site in corrupt_sites:
            return self.ctx.conf.stage_max_failures
        corrupt_sites.add(site)
        return fetch_failures

    def _recover_from_fetch_failure(self, stage: Stage, job_id: int,
                                    phase: str, exc: FetchFailedError,
                                    fetch_failures: int) -> None:
        """React to a reduce-side fetch failure: give up once the stage's
        recovery budget is exhausted, otherwise resubmit the missing
        parent shuffle-map stages from lineage.  The caller then re-runs
        the stage from its first task (Spark re-runs only lost tasks;
        re-running the whole stage is the deterministic in-process
        equivalent — outputs are overwritten idempotently)."""
        self.ctx.event_bus.post(FetchFailed(
            stage.stage_id, exc.shuffle_id, exc.reduce_partition))
        if isinstance(exc, CorruptedBlockError):
            # a corrupt block rides the fetch-failure recovery path;
            # the extra event feeds IntegrityMetrics.recompute_recoveries
            self.ctx.event_bus.post(BlockCorrupted(
                stage.stage_id, exc.shuffle_id, exc.reduce_partition,
                exc.node))
        if fetch_failures >= self.ctx.conf.stage_max_failures:
            raise JobExecutionError(
                f"stage {stage.stage_id} aborted after {fetch_failures} "
                f"fetch failures (conf.stage_max_failures="
                f"{self.ctx.conf.stage_max_failures}): {exc}",
                stage_id=stage.stage_id,
                partition=exc.reduce_partition) from exc
        # rebuild the parent graph against the *current* shuffle/cache
        # state: exactly the stages whose map outputs are now missing
        stage.parents = self._parent_stages(stage.rdd, {})
        resubmitted: list[ShuffleDependency] = []
        self._run_parents(stage, job_id, phase, resubmitted, set(),
                          recomputation=True)
        self.ctx.event_bus.post(StagesResubmitted(
            stage.stage_id, len(resubmitted)))
