"""DAG scheduler: stage splitting, shuffle reuse, retries, faults."""

from __future__ import annotations

import pytest

from repro.engine import (Context, EngineConf, JobExecutionError,
                          TaskFailedError)

from .. import conformance as cf


class TestStageExecution:
    def test_narrow_chain_single_stage(self, ctx):
        ctx.parallelize(range(10), 2).map(lambda x: x).map_partitions(
            lambda it: it).collect()
        job = ctx.metrics.jobs[-1]
        assert len(job.stages) == 1
        assert not job.stages[0].is_shuffle_map

    def test_shuffle_creates_two_stages(self, ctx):
        ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a + b,
                                                   4).collect()
        job = ctx.metrics.jobs[-1]
        assert len(job.stages) == 2
        assert job.stages[0].is_shuffle_map
        assert not job.stages[1].is_shuffle_map

    def test_chained_shuffles_stage_count(self, ctx):
        rdd = (ctx.parallelize([(i % 3, i) for i in range(30)], 4)
               .reduce_by_key(lambda a, b: a + b, 4)
               .map(lambda kv: (kv[1] % 2, kv[0]))
               .reduce_by_key(lambda a, b: a + b, 4))
        rdd.collect()
        job = ctx.metrics.jobs[-1]
        assert len(job.stages) == 3
        assert job.shuffle_rounds == 2

    def test_cogroup_two_shuffled_parents_one_round(self, ctx):
        left = ctx.parallelize([(1, "a")], 2)
        right = ctx.parallelize([(1, "b")], 3)
        left.join(right, 4).collect()
        job = ctx.metrics.jobs[-1]
        # two map stages + one result stage, but ONE shuffle round
        assert job.shuffle_rounds == 1
        assert len(job.stages) == 3

    def test_shuffle_output_reused_across_jobs(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(
            lambda a, b: a + b, 4)
        rdd.collect()
        assert ctx.metrics.jobs[-1].shuffle_rounds == 1
        rdd.collect()  # map output reused: no new shuffle execution
        assert ctx.metrics.jobs[-1].shuffle_rounds == 0

    def test_dropped_shuffle_reexecuted(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(
            lambda a, b: a + b, 4)
        assert rdd.collect_as_map() == {0: 10, 1: 10, 2: 10}
        ctx.drop_shuffle_outputs()
        assert rdd.collect_as_map() == {0: 10, 1: 10, 2: 10}
        assert ctx.metrics.jobs[-1].shuffle_rounds == 1

    def test_diamond_lineage_shared_stage_runs_once(self, ctx):
        base = ctx.parallelize([(i % 4, 1) for i in range(40)], 4).reduce_by_key(
            lambda a, b: a + b, 4)
        left = base.map_values(lambda v: v + 1)
        right = base.map_values(lambda v: v - 1)
        joined = left.join(right, 4)
        out = joined.collect_as_map()
        assert out == {k: (11, 9) for k in range(4)}
        # base's shuffle executed once; the join itself is NARROW because
        # mapValues preserved base's partitioner on both branches
        assert ctx.metrics.jobs[-1].shuffle_rounds == 1

    def test_result_order_matches_partitions(self, ctx):
        out = ctx._scheduler.run_job(
            ctx.parallelize(range(12), 4),
            lambda p, it: (p, list(it)), "inspect")
        assert [p for p, _ in out] == [0, 1, 2, 3]


class TestFaultInjection:
    def test_transient_fault_retried(self):
        with Context(num_nodes=2, default_parallelism=2) as ctx:
            attempts = []

            def flaky(stage_id, partition, attempt):
                attempts.append((partition, attempt))
                if partition == 1 and attempt == 0:
                    raise RuntimeError("injected transient fault")

            ctx.event_bus.subscribe(cf.TaskStartHook(flaky))
            assert ctx.parallelize(range(10), 2).count() == 10
            assert (1, 1) in attempts  # partition 1 retried

    def test_permanent_fault_exhausts_retries(self):
        conf = EngineConf(task_max_failures=3)
        with Context(num_nodes=2, default_parallelism=2, conf=conf) as ctx:
            def broken(stage_id, partition, attempt):
                raise RuntimeError("injected permanent fault")
            ctx.event_bus.subscribe(cf.TaskStartHook(broken))
            # the terminal TaskFailedError is wrapped in JobExecutionError
            # carrying the failing stage and partition
            with pytest.raises(JobExecutionError) as exc:
                ctx.parallelize(range(4), 2).count()
            assert exc.value.stage_id == 0
            assert exc.value.partition == 0
            cause = exc.value.__cause__
            assert isinstance(cause, TaskFailedError)
            assert cause.attempts == 3

    def test_fault_in_lazy_map_function_retried(self):
        with Context(num_nodes=2, default_parallelism=2) as ctx:
            state = {"failed": False}

            def poison(x):
                if x == 3 and not state["failed"]:
                    state["failed"] = True
                    raise RuntimeError("lazy fault")
                return x

            out = ctx.parallelize(range(6), 2).map(poison).collect()
            assert out == list(range(6))

    def test_shuffle_map_stage_fault_retried(self):
        with Context(num_nodes=2, default_parallelism=2) as ctx:
            state = {"n": 0}

            def once(stage_id, partition, attempt):
                state["n"] += 1
                if state["n"] == 1:
                    raise RuntimeError("first map task dies")

            ctx.event_bus.subscribe(cf.TaskStartHook(once))
            out = ctx.parallelize([(i % 2, 1) for i in range(10)], 2)\
                .reduce_by_key(lambda a, b: a + b, 2).collect_as_map()
            assert out == {0: 5, 1: 5}


class TestContextLifecycle:
    def test_stopped_context_rejects_work(self):
        ctx = Context(num_nodes=2)
        ctx.stop()
        from repro.engine import ContextStoppedError
        with pytest.raises(ContextStoppedError):
            ctx.parallelize([1, 2])

    def test_context_manager_stops(self):
        with Context(num_nodes=2) as ctx:
            ctx.parallelize([1]).count()
        from repro.engine import ContextStoppedError
        with pytest.raises(ContextStoppedError):
            ctx.parallelize([1])

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="execution_mode"):
            Context(execution_mode="flink")

    def test_parallelize_validations(self, ctx):
        with pytest.raises(ValueError, match="num_partitions"):
            ctx.parallelize([1], 0)
        from repro.engine import HashPartitioner
        with pytest.raises(ValueError, match="disagrees"):
            ctx.parallelize([(1, 1)], 4, HashPartitioner(2))

    def test_checkpoint_truncates_lineage(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 4)\
            .reduce_by_key(lambda a, b: a + b, 4)
        cp = ctx.checkpoint(rdd)
        ctx.drop_shuffle_outputs()
        assert sorted(cp.collect()) == sorted(rdd.collect())
        # checkpointed copy needs no shuffle even after the drop
        metrics_rounds = [j.shuffle_rounds for j in ctx.metrics.jobs]
        assert metrics_rounds[-2] == 0  # cp.collect()
