"""Graceful degradation of full CP-ALS runs under memory pressure.

The acceptance bar for the memory manager: squeezing the cache budget
below the tensor RDD's footprint (or injecting per-node OOM budgets)
may cost demotions, disk spill and retries — but never a different
answer.  Like the fault-injection suite, these tests honour
``REPRO_FAULT_SEED`` so CI can sweep a seed matrix.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.engine import Context, EngineConf, FaultPlan, StorageLevel
from repro.tensor import random_factors, uniform_sparse

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


@pytest.fixture(scope="module")
def tensor():
    return uniform_sparse((12, 10, 14), 220, rng=6 + SEED)


@pytest.fixture(scope="module")
def init(tensor):
    return random_factors(tensor.shape, 2, 17 + SEED)


def run(cls, tensor, init, conf=None, fault_plan=None,
        level=StorageLevel.MEMORY_RAW):
    with Context(num_nodes=4, default_parallelism=8, conf=conf,
                 fault_plan=fault_plan) as ctx:
        driver = cls(ctx)
        driver.storage_level = level
        result = driver.decompose(tensor, 2, max_iterations=3, tol=0.0,
                                  initial_factors=init)
        peak = ctx.metrics.memory.storage_peak_bytes
        mem = ctx.metrics.memory
    return result, peak, mem


def assert_identical(res, ref):
    assert np.array_equal(res.lambdas, ref.lambdas)
    for a, b in zip(res.factors, ref.factors):
        assert np.array_equal(a, b)
    assert res.final_fit == ref.final_fit


class TestConstrainedCache:
    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_squeezed_cache_is_bit_identical(self, cls, tensor, init):
        ref, peak, free_mem = run(cls, tensor, init)
        assert free_mem.spill_bytes == 0 and free_mem.demotions == 0
        budget = max(1, peak // 4)
        res, _, mem = run(
            cls, tensor, init,
            conf=EngineConf(cache_capacity_bytes=budget),
            level=StorageLevel.MEMORY_AND_DISK)
        assert mem.spill_bytes > 0
        assert mem.demotions >= 1
        assert_identical(res, ref)

    def test_demoted_queue_block_round_trips_through_its_frame(
            self, tensor, init, monkeypatch):
        """CSTF-QCOO's cached queue is a keyed block with a 3-D
        ``rows`` column; squeezed out of memory it must come back from
        its raw-buffer frame (not a pickle) as the block it was — the
        run still equals the record oracle's."""
        from repro.engine import storage
        from repro.engine.blocks import ColumnarBlock, is_block_payload
        read_back = []
        real = storage.deserialize_partition

        def spy(blob):
            records = real(blob)
            read_back.extend((is_block_payload(blob), r) for r in records)
            return records
        monkeypatch.setattr(storage, "deserialize_partition", spy)
        ref, peak, _ = run(CstfQCOO, tensor, init,
                           conf=EngineConf(kernel="record"))
        res, _, mem = run(
            CstfQCOO, tensor, init,
            conf=EngineConf(kernel="vectorized",
                            cache_capacity_bytes=max(1, peak // 4)),
            level=StorageLevel.MEMORY_AND_DISK)
        assert mem.demotions >= 1
        queues = [framed for framed, r in read_back
                  if type(r) is ColumnarBlock and r.rows is not None
                  and r.rows.ndim == 3 and r.key_mode is not None]
        assert queues and all(queues)
        assert_identical(res, ref)

    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_memory_only_eviction_is_bit_identical(self, cls, tensor,
                                                   init):
        """Same squeeze at plain MEMORY_RAW: entries are evicted and
        recomputed from lineage rather than demoted — still exact."""
        ref, peak, _ = run(cls, tensor, init)
        res, _, _ = run(
            cls, tensor, init,
            conf=EngineConf(cache_capacity_bytes=max(1, peak // 4)))
        assert_identical(res, ref)


class TestOOMInjection:
    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_oom_budget_kills_tasks_but_converges(self, cls, tensor,
                                                  init):
        ref, _, _ = run(cls, tensor, init)
        plan = FaultPlan(seed=SEED,
                         oom_node_budgets={n: 2_000 for n in range(4)})
        res, _, mem = run(cls, tensor, init, fault_plan=plan)
        assert mem.oom_kills >= 1
        assert mem.demotions >= 1 or mem.task_spill_bytes > 0
        assert_identical(res, ref)

    # CSTF-COO rows keep their bare ids; CSTF-QCOO's are prefixed
    @pytest.mark.parametrize("cls,budget", [
        pytest.param(cls, budget, id=f"{prefix}{budget}")
        for cls, prefix in ((CstfCOO, ""), (CstfQCOO, "qcoo-"))
        for budget in (1_000, 2_000, 3_000)])
    def test_block_join_trips_the_same_ooms_as_the_oracle(
            self, tensor, init, cls, budget):
        """In-flight keyed blocks are admitted at their wire size —
        the bytes of the tuples they stand for — so the vectorized
        CSTF-COO and CSTF-QCOO joins are killed and healed exactly
        where the record kernel is.  (Sized by ``nbytes`` they slip
        under the budget and the injection silently stops firing.)
        Serial backend: with concurrent tasks the kill count depends
        on which attempt reaches admission before another's demotion
        lands."""
        plan = FaultPlan(seed=SEED,
                         oom_node_budgets={n: budget for n in range(4)})
        outcomes = {}
        for kernel in ("record", "vectorized"):
            res, _, mem = run(cls, tensor, init,
                              conf=EngineConf(kernel=kernel,
                                              backend="serial"),
                              fault_plan=plan)
            outcomes[kernel] = (res, mem)
        (rec, rec_mem), (vec, vec_mem) = outcomes.values()
        assert vec_mem.oom_kills == rec_mem.oom_kills >= 1
        assert vec_mem.demotions == rec_mem.demotions
        assert vec_mem.task_spill_bytes == rec_mem.task_spill_bytes
        assert_identical(vec, rec)
