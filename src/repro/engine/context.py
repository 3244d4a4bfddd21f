"""The engine entry point: :class:`Context` (the ``SparkContext`` analogue).

A context owns a simulated :class:`~repro.engine.cluster.Cluster`, the
shuffle manager, the cache and the metrics collector.  Algorithms create
RDDs through :meth:`Context.parallelize` and drive them with actions.

Two execution modes:

* ``"spark"`` (default) — caching honoured, shuffle outputs reused
  across jobs, stage-oriented accounting;
* ``"hadoop"`` — models MapReduce for the BIGtensor baseline: caching is
  suppressed and every shuffle round is a separate job materialized
  through simulated HDFS (see the "Hadoop mode" section of
  ``docs/architecture.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from . import linthooks
from .accumulator import Accumulator
from .backends import create_backend
from .blocks import (KeyedRowBlock, partition_rows, record_count,
                     stable_argsort)
from .broadcast import Broadcast
from .clock import create_clock
from .cluster import Cluster
from .conf import EngineConf, resolve
from .errors import ContextStoppedError
from .events import EngineEventBus, NodeLost
from .faults import FaultInjector, FaultPlan
from .integrity import IntegrityManager
from .memory import MemoryManager
from .metrics import MetricsCollector
from .partitioner import Partitioner, slice_partitions
from .rdd import RDD, ParallelCollectionRDD
from .scheduler import DAGScheduler
from .shuffle import ShuffleManager
from .storage import CacheManager
from .taskscheduler import TaskScheduler


class Context:
    """Driver-side handle to the simulated cluster.

    Parameters
    ----------
    num_nodes:
        Cluster size (the paper sweeps 4-32 nodes).
    default_parallelism:
        Partition count for new RDDs; defaults to 8 partitions per node,
        a practical rule of thumb that keeps partition skew low while
        keeping the in-process simulation cheap.
    execution_mode:
        ``"spark"`` or ``"hadoop"`` (see module docstring).
    conf:
        An :class:`~repro.engine.conf.EngineConf`; a default one is
        created if omitted.  Either way it is resolved against the
        environment here, once (:func:`~repro.engine.conf.resolve`), and
        ``ctx.conf`` is the frozen, fully concrete result.
    """

    def __init__(self, num_nodes: int = 4,
                 default_parallelism: int | None = None,
                 execution_mode: str = "spark",
                 conf: EngineConf | None = None,
                 cluster: Cluster | None = None,
                 fault_plan: FaultPlan | None = None):
        if execution_mode not in ("spark", "hadoop"):
            raise ValueError(
                f"execution_mode must be 'spark' or 'hadoop', "
                f"got {execution_mode!r}")
        self.cluster = cluster or Cluster(num_nodes=num_nodes)
        self.conf = resolve(conf)
        #: engine time source (monotonic or virtual) every time-domain
        #: feature — injected delays, deadlines, backoff, quarantine —
        #: reads and sleeps through
        self.clock = create_clock(self.conf.clock)
        self.execution_mode = execution_mode
        self.default_parallelism = (
            default_parallelism if default_parallelism is not None
            else 8 * self.cluster.num_nodes)
        self.metrics = MetricsCollector(hadoop_mode=self.hadoop_mode)
        #: engine event bus: every scheduler-level lifecycle event flows
        #: through it to the metrics collector, then the fault injector
        self.event_bus = EngineEventBus()
        #: unified execution/storage memory accounting (see
        #: :mod:`repro.engine.memory`)
        self.memory = MemoryManager(
            total_bytes=self.conf.memory_total_bytes,
            memory_fraction=self.conf.memory_fraction,
            storage_fraction=self.conf.storage_fraction,
            storage_cap_bytes=self.conf.cache_capacity_bytes,
            metrics=self.metrics)
        #: structured fault injection (see :mod:`repro.engine.faults`)
        self.fault_plan = fault_plan or FaultPlan()
        self.faults = FaultInjector(self.fault_plan, self)
        #: data-integrity layer: seals/verifies every serialized blob
        #: when ``conf.integrity`` is on (see
        #: :mod:`repro.engine.integrity`)
        self.integrity = IntegrityManager(
            enabled=self.conf.integrity,
            plan=self.fault_plan,
            metrics=self.metrics.integrity)
        self._cache = CacheManager(self.conf.cache_capacity_bytes,
                                   metrics=self.metrics,
                                   memory=self.memory,
                                   integrity=self.integrity)
        self._shuffle_manager = ShuffleManager(self.cluster,
                                               faults=self.faults,
                                               memory=self.memory,
                                               integrity=self.integrity)
        #: executor backend (serial / process pool) the task scheduler
        #: runs stage task sets on
        self.backend = create_backend(self.conf.backend,
                                      self.conf.backend_workers)
        #: partition-level compute kernel the CP-ALS drivers dispatch
        #: through (record oracle / vectorized ndarray batches); the
        #: import is deferred here because ``repro.kernels`` imports
        #: engine error types
        from ..kernels import create_kernel
        self.kernel = create_kernel(self.conf.kernel,
                                    metrics=self.metrics,
                                    offload=self.backend.offload)
        self._task_scheduler = TaskScheduler(self, self.backend)
        self._scheduler = DAGScheduler(self)
        # the collector first: accounting must observe every event
        # before the fault injector, which may raise from it
        self.event_bus.subscribe(self.metrics)
        self.event_bus.subscribe(self.faults)
        self._rdd_counter = 0
        self._accumulators: list[Accumulator] = []
        self._broadcast_counter = 0
        #: the resource ledger: every broadcast not yet ``destroy()``ed
        #: (by id) and every RDD currently marked persisted (by id,
        #: maintained by ``RDD.persist``/``unpersist``).  Read by the
        #: lifecycle auditor, released by :meth:`release_scope`.
        self._broadcasts: dict[int, Broadcast] = {}
        self._persisted_rdds: dict[int, RDD] = {}
        self._stopped = False
        linthooks.context_created(self)

    # ------------------------------------------------------------------
    @property
    def hadoop_mode(self) -> bool:
        return self.execution_mode == "hadoop"

    @property
    def caching_enabled(self) -> bool:
        """Hadoop mode has no cross-job in-memory caching."""
        return not self.hadoop_mode

    def _next_rdd_id(self) -> int:
        if self._stopped:
            raise ContextStoppedError("context has been stopped")
        rid = self._rdd_counter
        self._rdd_counter += 1
        return rid

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------
    def parallelize(self, data: list, num_partitions: int | None = None,
                    partitioner: Partitioner | None = None) -> RDD:
        """Distribute a driver-side list into an RDD.

        With a ``partitioner``, records must be key-value pairs and are
        placed by key (producing a partitioned RDD that joins narrowly
        against equally-partitioned RDDs).
        """
        if self._stopped:
            raise ContextStoppedError("context has been stopped")
        if num_partitions is None:
            num_partitions = (partitioner.num_partitions if partitioner
                              else self.default_parallelism)
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        if partitioner is not None and \
                partitioner.num_partitions != num_partitions:
            raise ValueError(
                "partitioner.num_partitions disagrees with num_partitions")
        return ParallelCollectionRDD(self, list(data), num_partitions,
                                     partitioner)

    def parallelize_blocks(self, blocks: list,
                           partitioner: Partitioner | None = None) -> RDD:
        """Distribute pre-partitioned columnar blocks, one block per
        partition — the zero-copy path ``COOTensor.partition_blocks``
        feeds (no per-record slicing on the driver)."""
        if self._stopped:
            raise ContextStoppedError("context has been stopped")
        if not blocks:
            raise ValueError("parallelize_blocks needs at least one block")
        from .rdd import BlockCollectionRDD
        return BlockCollectionRDD(self, list(blocks), partitioner)

    # ------------------------------------------------------------------
    def kill_node(self, node_id: int) -> None:
        """Simulate losing a worker node mid-run.

        Everything the node held is invalidated: its shuffle map outputs
        (subsequent reduce-side reads raise ``FetchFailedError`` and the
        scheduler resubmits the parent stages from lineage) and its
        cached partitions (recomputed from lineage on the next read).
        Tasks whose partition was placed on the node are re-placed onto
        the remaining nodes.  Raises ``EngineError`` when this would
        leave no available node.
        """
        if not self.cluster.is_available(node_id) \
                and node_id in self.cluster.dead_nodes:
            return  # already dead
        # invalidate the cache first, while placement still maps
        # partitions onto the dying node
        cached_lost = self._cache.invalidate_node(node_id, self.cluster)
        outputs_lost, _records = \
            self._shuffle_manager.invalidate_node(node_id)
        self.cluster.kill_node(node_id)
        self.event_bus.post(NodeLost(node_id, outputs_lost, cached_lost))

    # ------------------------------------------------------------------
    def checkpoint(self, rdd: RDD, num_partitions: int | None = None,
                   partitioner: Partitioner | None = None) -> RDD:
        """Materialize ``rdd`` and return a lineage-free copy.

        Cost model: a checkpoint is a write of the full dataset to
        reliable storage plus a read-back.  In hadoop mode that is HDFS
        (MapReduce materializes every job boundary) and the volume is
        charged to the HDFS metrics; in spark mode it is the analogue of
        ``RDD.checkpoint()`` and the volume is charged to
        ``metrics.checkpoint_bytes_written``.

        In spark mode the source RDD's partitioner is preserved by
        default (checkpointing must not silently break co-partitioned
        joins); pass ``partitioner`` explicitly to re-key.  In hadoop
        mode the HDFS round-trip genuinely loses the partitioning — that
        overhead is part of what the BIGtensor baseline measures — so
        the partitioner is dropped unless one is given.
        """
        records = rdd.collect()
        n = num_partitions or rdd.num_partitions
        from .serialization import estimate_record_size
        size = sum(estimate_record_size(r) for r in records)
        count = record_count(records)
        if self.hadoop_mode:
            self.metrics.hadoop.hdfs_bytes_written += size
            self.metrics.hadoop.hdfs_bytes_read += size
            self.metrics.hadoop.hdfs_records_written += count
        else:
            self.metrics.checkpoint_bytes_written += size
            self.metrics.checkpoint_records_written += count
            if partitioner is None and rdd.partitioner is not None \
                    and rdd.partitioner.num_partitions == n:
                partitioner = rdd.partitioner
        if records and all(type(r) is KeyedRowBlock for r in records):
            # keyed rows (a factor) are placed as their records would
            # be, row by row, and stay one block per partition, each
            # in index order as every factor-side consumer reads it
            rows = KeyedRowBlock.concat(records)
            pids = (slice_partitions(count, n) if partitioner is None
                    else partitioner.partition_int_keys(rows.keys))
            by_key = stable_argsort(rows.keys)
            return self.parallelize_blocks(
                partition_rows(rows.take(by_key), pids[by_key], n),
                partitioner)
        return self.parallelize(records, n, partitioner)

    def accumulator(self, zero: Any = 0, name: str = "") -> Accumulator:
        """Create a task-writable additive counter."""
        acc = Accumulator(zero, name)
        self._accumulators.append(acc)
        return acc

    def broadcast(self, value: Any) -> Broadcast:
        """Replicate a read-only value to every node (charged to the
        broadcast network metrics)."""
        if self._stopped:
            raise ContextStoppedError("context has been stopped")
        bid = self._broadcast_counter
        self._broadcast_counter += 1
        bc = Broadcast(self, value, bid)
        self._broadcasts[bid] = bc
        return bc

    def live_broadcasts(self) -> list[Broadcast]:
        """Broadcasts created on this context that have not been
        ``destroy()``ed — the leak-detection hook the driver teardown
        tests assert on."""
        return list(self._broadcasts.values())

    # ------------------------------------------------------------------
    def _register_persist(self, rdd: "RDD") -> None:
        """Record a persist handle (called by ``RDD.persist``)."""
        self._persisted_rdds[rdd.rdd_id] = rdd

    def _register_unpersist(self, rdd_id: int) -> None:
        """Release a persist handle (called by ``RDD.unpersist``)."""
        self._persisted_rdds.pop(rdd_id, None)

    def live_persisted(self) -> list[tuple[int, str, int]]:
        """Persisted RDDs whose partitions are still materialized in the
        cache: ``(rdd_id, name, cached_bytes)`` triples.  The cache-leak
        analogue of :meth:`live_broadcasts` — everything listed here is
        memory pinned until ``unpersist()`` or context stop."""
        out = []
        for rdd_id, rdd in sorted(self._persisted_rdds.items()):
            nbytes = self._cache.rdd_size_bytes(rdd_id)
            if nbytes > 0:
                out.append((rdd_id, rdd.name, nbytes))
        return out

    @contextmanager
    def release_scope(self) -> Iterator[None]:
        """Bound the lifetime of everything persisted or broadcast
        inside the ``with`` block: on exit — normal or by exception —
        every RDD persisted and every broadcast created in the block
        that is still on the ledger is unpersisted / destroyed.

        Eager releases inside the block (a superseded factor, the
        broadcasts :meth:`drop_shuffle_outputs` finds unread) stay
        where peak memory wants them; the scope is what makes
        forgetting one, or dying between a ``persist`` and the line
        that would have recorded it, not a leak.  Handles that predate
        the block are not touched, so scopes nest.
        """
        held_rdds = set(self._persisted_rdds)
        held_broadcasts = set(self._broadcasts)
        try:
            yield
        finally:
            for rdd_id, rdd in list(self._persisted_rdds.items()):
                if rdd_id not in held_rdds:
                    rdd.unpersist()
            for bid, bc in list(self._broadcasts.items()):
                if bid not in held_broadcasts:
                    bc.destroy()

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def drop_shuffle_outputs(self) -> None:
        """Discard all retained shuffle map outputs, and destroy every
        broadcast handed to an RDD node that no persisted RDD's lineage
        reads (the lineage is walked only while one is live).

        Safe at any point: the scheduler recomputes dropped shuffles from
        lineage on demand.  Iterative drivers call this once per
        iteration, after caching everything still live, to bound memory —
        the analogue of Spark's ``ContextCleaner`` collecting shuffles
        and broadcasts whose RDDs went out of scope.
        """
        self._shuffle_manager.clear()
        handed = [bc for bc in self._broadcasts.values() if bc.handed]
        if handed:
            read = {bc.broadcast_id for rdd in self._persisted_rdds.values()
                    for node in rdd.lineage_rdds() for bc in node.broadcasts}
            for bc in handed:
                if bc.broadcast_id not in read:
                    bc.destroy()

    def clear_cache(self) -> None:
        """Drop every cached partition (RDDs recompute from lineage)."""
        self._cache.clear()

    def stop(self) -> None:
        """Release all engine state; the context is unusable afterwards."""
        if not self._stopped:
            # the lifecycle auditor must see the cache before it is
            # cleared; it only records findings (a strict session
            # raises LintError at its exit, not here)
            linthooks.context_stopping(self)
        self._stopped = True
        self.backend.shutdown()
        self._shuffle_manager.clear()
        self._cache.clear()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
