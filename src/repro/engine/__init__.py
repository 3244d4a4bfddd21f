"""``repro.engine`` — an in-process dataflow engine with Spark semantics.

The substrate beneath the CSTF reproduction: lazy RDD lineage, hash
partitioning, stage-splitting DAG scheduler, shuffle manager with
local/remote byte accounting, raw/serialized caching, accumulators, a
Hadoop execution mode and an analytic cost model for cluster-size sweeps.

Quick example::

    from repro.engine import Context

    with Context(num_nodes=4) as ctx:
        rdd = ctx.parallelize(range(1000)).map(lambda x: (x % 10, x))
        totals = rdd.reduce_by_key(lambda a, b: a + b).collect_as_map()
"""

from .accumulator import Accumulator
from .backends import (ExecutorBackend, ProcessPoolBackend, SerialBackend,
                       ThreadPoolBackend, create_backend)
from .blocks import ColumnarBlock, KeyedRowBlock
from .broadcast import Broadcast
from .clock import Clock, MonotonicClock, VirtualClock, create_clock
from .cluster import Cluster, NodeHealthTracker
from .conf import EngineConf
from .context import Context
from .costmodel import COMET, CostModel, HardwareProfile, RunStats, TimeBreakdown
from .errors import (BackendError, CacheEvictedError, CancelledAttempt,
                     ContextStoppedError, CorruptedBlockError,
                     CorruptedDataError, EngineError, FetchFailedError,
                     JobExecutionError, KernelError,
                     NumericalIntegrityError, OutOfMemoryError,
                     TaskFailedError, TaskTimedOutError)
from .events import BlockCorrupted, EngineEventBus, EngineListener
from .faults import (FaultInjector, FaultPlan, InjectedFaultError,
                     NodeKillEvent)
from .integrity import IntegrityManager
from .memory import (LEVEL_MEMORY_FACTOR, MemoryManager,
                     SpillableAppendOnlyMap, demote_level)
from .metrics import (FaultMetrics, HadoopMetrics, IntegrityMetrics,
                      JobMetrics, MemoryMetrics, MetricsCollector,
                      ShuffleReadMetrics, ShuffleWriteMetrics,
                      StageMetrics, StragglerMetrics)
from .partitioner import (HashPartitioner, Partitioner, RangePartitioner,
                          stable_hash)
from .rdd import RDD
from .serialization import (checksum_blob, estimate_record_size,
                            estimate_size, verify_blob)
from .speculation import (CancellationGroup, CancellationToken,
                          StageRuntimes, backoff_delay)
from .storage import CacheManager, StorageLevel
from .taskscheduler import TaskContext, TaskRunResult, TaskScheduler, TaskSet

__all__ = [
    "Accumulator",
    "BackendError",
    "Broadcast",
    "CacheEvictedError",
    "CacheManager",
    "CancellationGroup",
    "CancellationToken",
    "CancelledAttempt",
    "BlockCorrupted",
    "CorruptedBlockError",
    "CorruptedDataError",
    "Clock",
    "Cluster",
    "COMET",
    "Context",
    "ContextStoppedError",
    "ColumnarBlock",
    "CostModel",
    "EngineConf",
    "EngineError",
    "EngineEventBus",
    "EngineListener",
    "ExecutorBackend",
    "FaultInjector",
    "FaultMetrics",
    "FaultPlan",
    "FetchFailedError",
    "InjectedFaultError",
    "NodeKillEvent",
    "HadoopMetrics",
    "HardwareProfile",
    "HashPartitioner",
    "IntegrityManager",
    "IntegrityMetrics",
    "JobExecutionError",
    "JobMetrics",
    "KernelError",
    "KeyedRowBlock",
    "NumericalIntegrityError",
    "LEVEL_MEMORY_FACTOR",
    "MemoryManager",
    "MemoryMetrics",
    "MetricsCollector",
    "MonotonicClock",
    "NodeHealthTracker",
    "OutOfMemoryError",
    "SpillableAppendOnlyMap",
    "Partitioner",
    "ProcessPoolBackend",
    "RangePartitioner",
    "RDD",
    "RunStats",
    "SerialBackend",
    "ShuffleReadMetrics",
    "ShuffleWriteMetrics",
    "StageMetrics",
    "StageRuntimes",
    "StorageLevel",
    "StragglerMetrics",
    "TaskContext",
    "TaskFailedError",
    "TaskRunResult",
    "TaskScheduler",
    "TaskSet",
    "TaskTimedOutError",
    "ThreadPoolBackend",
    "TimeBreakdown",
    "VirtualClock",
    "backoff_delay",
    "checksum_blob",
    "create_backend",
    "create_clock",
    "demote_level",
    "estimate_record_size",
    "estimate_size",
    "stable_hash",
    "verify_blob",
]
