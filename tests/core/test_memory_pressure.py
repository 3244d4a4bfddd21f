"""Graceful degradation of full CP-ALS runs under memory pressure.

The acceptance bar for the memory manager: squeezing the cache budget
below the tensor RDD's footprint (or injecting per-node OOM budgets)
may cost demotions, disk spill and retries — but never a different
answer.
"""

from __future__ import annotations

import pytest

from repro.engine import FaultPlan

from .. import conformance as cf


class TestConstrainedCache:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_squeezed_cache_is_bit_identical(self, request, monkeypatch,
                                             cls):
        free = cf.oracle(driver=cf.DRIVER_OF[cls]).metrics.memory
        assert free.spill_bytes == 0 and free.demotions == 0
        cf.check_kept(request, monkeypatch)

    def test_demoted_queue_block_round_trips_through_its_frame(
            self, request, monkeypatch):
        """CSTF-QCOO's cached queue is a keyed block with a 3-D
        ``rows`` column; squeezed out of memory it must come back from
        its serialized form as the block it was — the run still equals
        the record oracle's."""
        from repro.engine import storage
        from repro.engine.blocks import ColumnarBlock
        cf.oracle(driver="qcoo")   # before the spy: the oracle's reads
        read_back = []
        real = storage.deserialize_partition

        def spy(blob):
            records = real(blob)
            read_back.extend(records)
            return records
        monkeypatch.setattr(storage, "deserialize_partition", spy)
        cf.check_kept(request, monkeypatch)
        assert any(type(r) is ColumnarBlock and r.rows is not None
                   and r.rows.ndim == 3 and r.key_mode is not None
                   for r in read_back)

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_memory_only_eviction_is_bit_identical(self, request,
                                                   monkeypatch, cls):
        """Same squeeze at plain MEMORY_RAW: entries are evicted and
        recomputed from lineage rather than demoted — still exact."""
        cf.check_kept(request, monkeypatch)


class TestOOMInjection:
    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_oom_budget_kills_tasks_but_converges(self, request,
                                                  monkeypatch, cls):
        (got,) = cf.check_kept(request, monkeypatch)
        memory = got.metrics.memory
        assert memory.demotions >= 1 or memory.task_spill_bytes > 0

    # CSTF-COO rows keep their bare ids; CSTF-QCOO's are prefixed
    @pytest.mark.parametrize("cls,budget", [
        pytest.param(cls, budget, id=f"{prefix}{budget}")
        for cls, prefix in (("CstfCOO", ""), ("CstfQCOO", "qcoo-"))
        for budget in (1_000, 2_000, 3_000)])
    def test_block_join_trips_the_same_ooms_as_the_oracle(self, cls,
                                                          budget):
        """In-flight keyed blocks are admitted at their wire size —
        the bytes of the tuples they stand for — so the vectorized
        CSTF-COO and CSTF-QCOO joins are killed and healed exactly
        where the record kernel is.  (Sized by ``nbytes`` they slip
        under the budget and the injection silently stops firing.)
        Serial backend: a join stage sends no worker request, so the
        process backend runs it exactly as serial does."""
        plan = FaultPlan(seed=0,
                         oom_node_budgets={n: budget for n in range(4)})
        rec, vec = (cf.run(driver=cf.DRIVER_OF[cls], kernel=kernel,
                           backend="serial", plan=plan)
                    for kernel in cf.KERNELS)
        assert vec.metrics.memory.oom_kills \
            == rec.metrics.memory.oom_kills >= 1
        assert vec.metrics.memory.demotions == rec.metrics.memory.demotions
        assert vec.metrics.memory.task_spill_bytes \
            == rec.metrics.memory.task_spill_bytes
        cf.assert_bit_identical(rec, vec)
        cf.assert_bit_identical(cf.oracle(driver=cf.DRIVER_OF[cls]), vec)
