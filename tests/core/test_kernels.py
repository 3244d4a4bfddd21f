"""Kernel-layer determinism and driver resource-leak regressions.

The vectorized kernel must be a pure throughput knob: every CP-ALS
decomposition it produces — COO and QCOO, 3rd- and 4th-order, clean and
under the fault-seed matrix, straight through or checkpoint/resumed —
has to be bit-identical to the record kernel's.  Alongside the
determinism suite live the driver leak regressions this PR fixed: the
broadcast-strategy MTTKRP now destroys its broadcasts, and a decompose
that dies mid-iteration no longer pins persisted RDDs in the cache.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.baselines import BigtensorCP
from repro.core import (CstfCOO, CstfDimTree, CstfQCOO, DistributedTucker,
                        InMemoryCheckpointStore)
from repro.engine import (Context, EngineConf, EngineError, FaultPlan,
                          HashPartitioner, JobExecutionError, KernelError)
from repro.engine.blocks import (KeyedRowBlock, iter_records,
                                 partition_rows, record_count)
from repro.kernels import (LeverageSampler, RecordKernel, VectorizedKernel,
                           combine_rows_batch, create_kernel, fold_rows,
                           segmented_left_fold)
from repro.tensor import COOTensor, random_factors, uniform_sparse

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

KERNELS = ("record", "vectorized")


@pytest.fixture(scope="module")
def tensor3():
    return uniform_sparse((12, 10, 14), 220, rng=6)


@pytest.fixture(scope="module")
def init3(tensor3):
    return random_factors(tensor3.shape, 2, 17)


@pytest.fixture(scope="module")
def tensor4():
    return uniform_sparse((8, 10, 6, 7), 150, rng=11)


@pytest.fixture(scope="module")
def init4(tensor4):
    return random_factors(tensor4.shape, 2, 23)


def run(cls, tensor, init, kernel, fault_plan=None, driver_kwargs=None,
        decompose_kwargs=None, **conf_kwargs):
    conf = EngineConf(kernel=kernel, **conf_kwargs)
    kwargs = dict(decompose_kwargs or {})
    if init is not None:  # resume_from excludes initial_factors
        kwargs["initial_factors"] = init
    with Context(num_nodes=4, default_parallelism=8, conf=conf,
                 fault_plan=fault_plan) as ctx:
        assert ctx.kernel.name == kernel
        result = cls(ctx, **(driver_kwargs or {})).decompose(
            tensor, 2, max_iterations=3, tol=0.0, **kwargs)
        batches = ctx.metrics.kernel_batches
        return result, batches


def assert_bit_identical(a, b):
    assert np.array_equal(a.lambdas, b.lambdas)
    assert len(a.factors) == len(b.factors)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    assert a.fit_history == b.fit_history


# ----------------------------------------------------------------------
# segmented-sum unit tests against a dict-fold oracle
# ----------------------------------------------------------------------
class TestSegsum:
    def dict_fold(self, pairs):
        acc = {}
        for k, v in pairs:
            acc[k] = acc[k] + v if k in acc else v
        return acc

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_matches_dict_fold_bitwise(self, width):
        rng = np.random.default_rng(100 + width)
        keys = rng.integers(0, 9, size=64).astype(np.int64)
        rows = rng.standard_normal((64, width)) * 10.0 ** rng.integers(
            -3, 4, size=(64, 1))
        oracle = self.dict_fold(zip(keys.tolist(), rows))
        out_keys, out_rows = segmented_left_fold(keys, rows)
        # first-occurrence emission order, same as dict insertion order
        assert out_keys.tolist() == list(oracle)
        for i, k in enumerate(out_keys.tolist()):
            assert out_rows[i].tobytes() == oracle[k].tobytes()

    def test_singleton_keys_pass_through(self):
        keys = np.array([7, 3, 5], dtype=np.int64)
        rows = np.array([[1.1, 2.2], [3.3, 4.4], [5.5, 6.6]])
        out_keys, out_rows = segmented_left_fold(keys, rows)
        assert out_keys.tolist() == [7, 3, 5]
        assert out_rows.tobytes() == rows.tobytes()

    def test_fold_rows_is_strict_left_fold(self):
        rng = np.random.default_rng(5)
        for width in (1, 2, 5):
            rows = rng.standard_normal((17, width)) * 1e6
            expected = rows[0]
            for r in rows[1:]:
                expected = expected + r
            assert fold_rows(rows).tobytes() == expected.tobytes()

    def test_combine_rows_batch_emits_plain_int_keys(self):
        out = combine_rows_batch([(np.int64(3), np.array([1.0])),
                                  (3, np.array([2.0]))])
        assert len(out) == 1 and type(out[0][0]) is int


# ----------------------------------------------------------------------
# kernel selection / configuration
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with Context(num_nodes=2) as ctx:
            assert ctx.conf.kernel == "vectorized"
            assert isinstance(ctx.kernel, VectorizedKernel)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "record")
        with Context(num_nodes=2) as ctx:
            assert isinstance(ctx.kernel, RecordKernel)
        # explicit conf wins over the environment
        with Context(num_nodes=2,
                     conf=EngineConf(kernel="vectorized")) as ctx:
            assert isinstance(ctx.kernel, VectorizedKernel)
        assert isinstance(create_kernel("record"), RecordKernel)

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError):
            create_kernel("simd")

    def test_context_resolves_conf(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with Context(num_nodes=2, conf=EngineConf(kernel="record")) as ctx:
            assert ctx.kernel.name == "record"
        with Context(num_nodes=2) as ctx:
            assert ctx.kernel.name == "vectorized"

    def test_record_kernel_counts_no_batches(self, tensor3, init3):
        _, batches = run(CstfCOO, tensor3, init3, "record")
        assert batches == 0

    def test_vectorized_kernel_counts_batches(self, tensor3, init3):
        _, batches = run(CstfCOO, tensor3, init3, "vectorized")
        assert batches > 0


# ----------------------------------------------------------------------
# bit-identity: vectorized vs record
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_third_order(self, cls, tensor3, init3):
        record, _ = run(cls, tensor3, init3, "record")
        vector, _ = run(cls, tensor3, init3, "vectorized")
        assert_bit_identical(record, vector)

    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_fourth_order(self, cls, tensor4, init4):
        record, _ = run(cls, tensor4, init4, "record")
        vector, _ = run(cls, tensor4, init4, "vectorized")
        assert_bit_identical(record, vector)

    def test_broadcast_strategy(self, tensor3, init3):
        kwargs = {"factor_strategy": "broadcast"}
        record, _ = run(CstfCOO, tensor3, init3, "record",
                        driver_kwargs=kwargs)
        vector, _ = run(CstfCOO, tensor3, init3, "vectorized",
                        driver_kwargs=kwargs)
        assert_bit_identical(record, vector)

    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_under_injected_faults(self, cls, tensor3, init3):
        plan = FaultPlan(seed=SEED, task_failure_prob=0.05)
        record, _ = run(cls, tensor3, init3, "record", fault_plan=plan)
        vector, _ = run(cls, tensor3, init3, "vectorized",
                        fault_plan=plan)
        assert_bit_identical(record, vector)

    @pytest.mark.parametrize("seed", [SEED, SEED + 10, SEED + 20])
    def test_fault_seed_matrix(self, tensor3, init3, seed):
        plan = FaultPlan(seed=seed, task_failure_prob=0.03)
        record, _ = run(CstfCOO, tensor3, init3, "record",
                        fault_plan=plan)
        vector, _ = run(CstfCOO, tensor3, init3, "vectorized",
                        fault_plan=plan)
        assert_bit_identical(record, vector)

    def check_resume_crosses_kernels(self, cls, tensor, init):
        record, _ = run(cls, tensor, init, "record")
        store = InMemoryCheckpointStore()
        run(cls, tensor, init, "vectorized",
            decompose_kwargs={"checkpoint_every": 1,
                              "checkpoint_store": store})
        resumed, _ = run(
            cls, tensor, None, "vectorized",
            decompose_kwargs={"checkpoint_store": store,
                              "resume_from": 0})
        assert_bit_identical(record, resumed)

    def test_checkpoint_resume_crosses_kernels(self, tensor3, init3):
        """An uninterrupted record-kernel run must equal a vectorized
        run resumed from a mid-run snapshot (and vice versa)."""
        self.check_resume_crosses_kernels(CstfCOO, tensor3, init3)

    @pytest.mark.parametrize("tensor,init", [
        ("tensor3", "init3"), ("tensor4", "init4")], ids=["order3", "order4"])
    def test_qcoo_checkpoint_resume_crosses_kernels(self, tensor, init,
                                                    request):
        """The reason ``qcoo_canonical`` exists: the resumed run
        rebuilds its queue with N-1 init joins where the uninterrupted
        one carried it across iterations, and both must sum the same
        rows in the same order."""
        self.check_resume_crosses_kernels(
            CstfQCOO, request.getfixturevalue(tensor),
            request.getfixturevalue(init))

    def test_gram_identical(self, tensor3):
        factor = random_factors(tensor3.shape, 1, 3)[0]
        with Context(num_nodes=3, default_parallelism=6) as ctx:
            rdd = rows_rdd(ctx, list(enumerate(factor)), 1)
            rec = RecordKernel().gram(rdd, 1)
            vec = VectorizedKernel().gram(rdd, 1)
        # rank 1 exercises the width-1 pairwise-summation guard
        assert rec.tobytes() == vec.tobytes()


# ----------------------------------------------------------------------
# the block join: same answers, same shuffles, degenerate inputs
# ----------------------------------------------------------------------
def shuffle_profile(ctx):
    """Per-stage shuffle traffic, in execution order."""
    return [(st.shuffle_write.bytes_written,
             st.shuffle_write.records_written,
             st.shuffle_read.total_bytes, st.shuffle_read.total_records)
            for job in ctx.metrics.jobs for st in job.stages
            if st.is_shuffle_map]


def run_profiled(tensor, rank, kernel, partitions=8, iterations=2,
                 cls=CstfCOO, **conf_kwargs):
    init = random_factors(tensor.shape, rank, 29)
    with Context(num_nodes=4, default_parallelism=partitions,
                 conf=EngineConf(kernel=kernel, **conf_kwargs)) as ctx:
        result = cls(ctx).decompose(
            tensor, rank, max_iterations=iterations, tol=0.0,
            initial_factors=init)
        return (result, ctx.metrics.total_shuffle_rounds(),
                shuffle_profile(ctx))


def rows_rdd(ctx, records, rank, num_partitions=None):
    """A factor-shaped RDD holding ``(index, row)`` ``records``: one
    ``KeyedRowBlock`` per partition, hash-partitioned by index, rows in
    the order given (a factor's is index order)."""
    part = HashPartitioner(num_partitions or ctx.default_parallelism)
    rows = KeyedRowBlock.from_records(records, rank)
    return ctx.parallelize_blocks(
        partition_rows(rows, part.partition_int_keys(rows.keys),
                       part.num_partitions), part)


def single_mttkrp(tensor, factors, mode, kernel, factor_records=None):
    """One CSTF-COO MTTKRP's output records; ``factor_records[m]``
    replaces mode ``m``'s factor RDD content."""
    rank = factors[0].shape[1]
    with Context(num_nodes=4, default_parallelism=8,
                 conf=EngineConf(kernel=kernel)) as ctx, \
            ctx.release_scope():
        driver = CstfCOO(ctx)
        tensor_rdd = driver._distribute_tensor(tensor)
        factor_rdds = []
        for m, factor in enumerate(factors):
            rows = (factor_records or {}).get(
                m, [(i, factor[i].copy()) for i in range(factor.shape[0])])
            factor_rdds.append(
                rows_rdd(ctx, rows, rank, driver.num_partitions))
        out = driver._mttkrp(mode, tensor_rdd, factor_rdds, rank).collect()
        return list(iter_records(out)), ctx.metrics.total_shuffle_rounds()


def assert_same_rows(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, ra), (_, rb) in zip(a, b):
        assert ra.tobytes() == rb.tobytes()


#: (shape, nnz, rank, partitions) of the block-join conformance matrix
JOIN_CASES = {
    "order2": ((9, 7), 30, 2, 8),           # one join; a queue of 1
    "rank1": ((12, 10, 14), 220, 1, 8),     # width-1 fold_rows pad
    "order4": ((8, 10, 6, 7), 150, 3, 8),
    "order5": ((4, 5, 3, 4, 3), 120, 2, 8),
    "rank>mode": ((3, 10, 8), 60, 5, 8),    # rank above the smallest mode
    "empty": ((6, 5, 4), 5, 2, 16),         # mostly empty partitions
}


def table4_rounds(cls, order, iterations):
    """Shuffle rounds of ``iterations`` CP-ALS iterations (Table 4):
    N MTTKRPs of N rounds each for CSTF-COO; of 2 each, after N-1
    queue-building joins, for CSTF-QCOO."""
    if cls is CstfQCOO:
        return iterations * order * 2 + (order - 1)
    return iterations * order * order


class TestBlockJoin:
    # CSTF-COO cases keep their bare ids; CSTF-QCOO's are prefixed
    @pytest.mark.parametrize("cls,shape,nnz,rank,partitions", [
        pytest.param(cls, *case, id=prefix + name)
        for cls, prefix in ((CstfCOO, ""), (CstfQCOO, "qcoo-"))
        for name, case in JOIN_CASES.items()])
    def test_bit_identical_with_equal_shuffles(self, cls, shape, nnz, rank,
                                               partitions):
        tensor = uniform_sparse(shape, nnz, rng=41)
        rec, rec_rounds, rec_profile = run_profiled(
            tensor, rank, "record", partitions, cls=cls)
        vec, vec_rounds, vec_profile = run_profiled(
            tensor, rank, "vectorized", partitions, cls=cls)
        assert_bit_identical(rec, vec)
        assert rec_rounds == vec_rounds == \
            table4_rounds(cls, len(shape), iterations=2)
        # stage by stage, the queue-building init stages included
        assert rec_profile == vec_profile

    def check_map_side_combine_off(self, cls, tensor):
        rec, rec_rounds, rec_profile = run_profiled(
            tensor, 2, "record", cls=cls, map_side_combine=False)
        vec, vec_rounds, vec_profile = run_profiled(
            tensor, 2, "vectorized", cls=cls, map_side_combine=False)
        assert_bit_identical(rec, vec)
        assert rec_rounds == vec_rounds
        assert rec_profile == vec_profile

    def test_map_side_combine_off(self, tensor3):
        self.check_map_side_combine_off(CstfCOO, tensor3)

    def test_qcoo_map_side_combine_off(self, tensor3):
        self.check_map_side_combine_off(CstfQCOO, tensor3)

    def test_qcoo_runs_no_cogroup_and_no_tuple(self, tensor4, init4,
                                               monkeypatch):
        """One path: under the vectorized kernel CSTF-QCOO's lineage
        holds block joins only, and nothing between the cached tensor
        and ``combine_rows_block`` is a per-nonzero tuple."""
        from repro.engine import ColumnarBlock, KeyedRowBlock
        from repro.engine.rdd import BlockJoinRDD, CoGroupedRDD
        from repro.engine.shuffle import ShuffleManager
        shuffled = []
        real_write = ShuffleManager.write

        def spy(self, shuffle_id, map_partition, records, *args, **kw):
            records = list(records)
            shuffled.extend(type(r) for r in records)
            return real_write(self, shuffle_id, map_partition, records,
                              *args, **kw)
        monkeypatch.setattr(ShuffleManager, "write", spy)
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel="vectorized")) as ctx, \
                ctx.release_scope():
            driver = CstfQCOO(ctx)
            tensor_rdd = driver._distribute_tensor(tensor4)
            factor_rdds = [driver._distribute_factor(f) for f in init4]
            driver._setup(tensor_rdd, tensor4, factor_rdds, 2)
            m_rdd = driver._mttkrp(0, tensor_rdd, factor_rdds, 2)
            classes = [type(r) for r in m_rdd.lineage_rdds()]
            assert classes.count(BlockJoinRDD) == tensor4.order
            assert CoGroupedRDD not in classes
            assert record_count(m_rdd.collect()) == tensor4.shape[0]
            assert ctx.metrics.kernel_batch_records > 0
        assert set(shuffled) == {ColumnarBlock, KeyedRowBlock}

    def test_qcoo_cached_queue_is_priced_as_its_tuples(self, tensor4,
                                                       init4):
        """The cost model prices what ``RunStats`` holds, and CSTF-QCOO
        re-caches its queue every MTTKRP: a cached queue block must be
        charged what the tuples it stands for were, or every modelled
        QCOO second moves by representation alone.  Every kernel reads
        the same tensor blocks and holds factors and MTTKRP outputs as
        the same keyed row blocks, so no field may tell the kernels
        apart on any of the four dataflows — ``cache_bytes`` (a keyed
        block rests at its records' size), ``records_processed`` and
        ``node_skew`` (a result stage counts a block as its rows) and
        ``shuffle_records`` included."""
        import dataclasses
        from repro.engine.costmodel import RunStats

        def stats(cls, kernel, **driver_kwargs):
            # integrity pinned off: ``checksummed_bytes`` measures the
            # serialized form, which is the one thing kernels may vary
            with Context(num_nodes=4, default_parallelism=8,
                         conf=EngineConf(kernel=kernel,
                                         integrity=False)) as ctx:
                cls(ctx, **driver_kwargs).decompose(
                    tensor4, 2, max_iterations=2, tol=0.0,
                    initial_factors=init4)
                return dataclasses.asdict(
                    RunStats.from_metrics(ctx.metrics))
        cached = {}
        for name, cls, kwargs in (
                ("coo-join", CstfCOO, {}),
                ("coo-broadcast", CstfCOO,
                 {"factor_strategy": "broadcast"}),
                ("qcoo", CstfQCOO, {}),
                ("lev", CstfCOO, {"sampler": "lev", "sample_count": 32})):
            rec = stats(cls, "record", **kwargs)
            assert rec == stats(cls, "vectorized", **kwargs), name
            assert rec["records_processed"] > rec["shuffle_records"] > 0
            assert rec["node_skew"] >= 1.0 and rec["cache_bytes"] > 0
            cached[name] = rec["cache_bytes"]
        assert cached["qcoo"] > 10 * cached["coo-join"]  # the queues

    def test_qcoo_duplicate_coordinates_tie_in_arrival_order(self):
        """``decompose`` refuses duplicate coordinates, but the queue
        dataflow is defined on them and its canonical sort is stable:
        duplicates keep their arrival order, which is part of the
        bit-identity contract (three copies, so the order of the
        partial sums shows in the bits)."""
        tensor = uniform_sparse((5, 4, 6), 40, rng=3)
        records = list(tensor.records())
        rng = np.random.default_rng(8)
        for pick in rng.integers(0, len(records), 12):
            for _ in range(2):
                records.insert(int(rng.integers(0, len(records))),
                               (records[pick][0], float(rng.normal())))
        duplicated = COOTensor([idx for idx, _ in records],
                               [val for _, val in records], tensor.shape)
        factors = random_factors(tensor.shape, 3, 9)
        outcomes = {}
        for kernel in KERNELS:
            with Context(num_nodes=4, default_parallelism=8,
                         conf=EngineConf(kernel=kernel)) as ctx, \
                    ctx.release_scope():
                driver = CstfQCOO(ctx)
                tensor_rdd = driver._distribute_tensor(duplicated)
                factor_rdds = [driver._distribute_factor(f)
                               for f in factors]
                driver._setup(tensor_rdd, tensor, factor_rdds, 3)
                ms = [list(iter_records(driver._mttkrp(
                    mode, tensor_rdd, factor_rdds, 3).collect()))
                      for mode in range(3)]
                queue = [list(iter_records(part)) for part in
                         driver._queue_rdd.glom().collect()]
                outcomes[kernel] = (ms, queue)
        (rec_ms, rec_queue), (vec_ms, vec_queue) = outcomes.values()
        for rec_m, vec_m in zip(rec_ms, vec_ms):
            assert_same_rows(rec_m, vec_m)
        flat = [r for part in rec_queue for r in part]
        assert len(flat) == len(records)
        # same coordinates, different values: the tie order is visible
        assert [[(k, rec) for k, (rec, _) in part]
                for part in rec_queue] == \
            [[(k, rec) for k, (rec, _) in part] for part in vec_queue]

    @pytest.mark.parametrize("consumer", ["key_blocks", "sample_rdd",
                                          "broadcast_contributions"])
    def test_stray_record_tensor_is_refused_by_name(self, tensor3, init3,
                                                    consumer):
        """A tensor RDD built outside ``_distribute_tensor`` holds
        ``(idx, val)`` records, not blocks: every block consumer says
        what it got and how to build the right thing, instead of dying
        inside ``concat`` on a tuple."""
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel="vectorized")) as ctx:
            loose = ctx.parallelize(list(tensor3.records()), 8)
            if consumer == "key_blocks":
                out = loose.key_blocks(1)
            else:
                bcs = {m: ctx.broadcast(init3[m]) for m in (0, 2)}
                if consumer == "sample_rdd":
                    scores = {m: ctx.broadcast(np.ones(tensor3.shape[m]))
                              for m in (0, 2)}
                    loose = LeverageSampler(16).sample_rdd(
                        loose, scores, 1, iteration=0)
                out = ctx.kernel.broadcast_contributions(loose, bcs, 1)
            with pytest.raises(JobExecutionError) as err:
                out.collect()
        message = str(err.value)
        assert "must hold ColumnarBlocks, got tuple" in message
        assert "partition_blocks" in message
        assert "parallelize_blocks" in message

    def test_missing_factor_keys_drop_their_nonzeros(self, tensor3, init3):
        """Inner-join semantics: nonzeros whose joined key has no
        factor row vanish from the MTTKRP, in both kernels alike."""
        partial = {2: [(i, init3[2][i].copy())
                       for i in range(init3[2].shape[0]) if i % 3],
                   1: [(i, init3[1][i].copy()) for i in (0, 4, 5, 9)]}
        full, _ = single_mttkrp(tensor3, init3, 0, "vectorized")
        rec, _ = single_mttkrp(tensor3, init3, 0, "record",
                               factor_records=partial)
        vec, _ = single_mttkrp(tensor3, init3, 0, "vectorized",
                               factor_records=partial)
        assert_same_rows(rec, vec)
        assert 0 < len(vec) <= len(full)
        dropped_everything = {2: []}
        assert single_mttkrp(tensor3, init3, 0, "vectorized",
                             factor_records=dropped_everything)[0] == []

    def test_duplicate_factor_keys_raise_located_error(self, tensor3,
                                                       init3):
        """The record path would emit a cross product per duplicate;
        the block join refuses instead of gathering one row."""
        rows = [(i, init3[2][i].copy()) for i in range(init3[2].shape[0])]
        dup_key = int(tensor3.indices[0, 2])
        rows.insert(dup_key, (dup_key, init3[2][dup_key] * 2.0))
        cause = self.row_side_error(tensor3, init3, rows, "more than once")
        assert f"key {dup_key} " in str(cause)
        assert "coo-acc-mode2" in str(cause) and "partition" in str(cause)

    @staticmethod
    def row_side_error(tensor3, init3, rows, phrase):
        with pytest.raises(JobExecutionError) as err:
            single_mttkrp(tensor3, init3, 0, "vectorized",
                          factor_records={2: rows})
        cause = err.value
        while cause is not None and phrase not in str(cause):
            cause = cause.__cause__
        assert isinstance(cause, EngineError)
        return cause

    def test_unsorted_factor_partition_is_told_from_a_duplicate(
            self, tensor3, init3):
        """The gather reads the co-partitioned row side in place, so it
        must be in index order; a partition that is not says so, with
        the partition and the offending key — it is not mistaken for a
        duplicate, and not silently gathered from."""
        rows = [(i, init3[2][i].copy())
                for i in reversed(range(init3[2].shape[0]))]
        cause = self.row_side_error(tensor3, init3, rows,
                                    "not sorted by row index")
        assert "coo-acc-mode2 partition" in str(cause)
        assert "more than once" not in str(cause)
        follows, prev = (int(w) for w in re.findall(
            r"key (\d+) follows (\d+)", str(cause))[0])
        assert follows < prev


# ----------------------------------------------------------------------
# the factor side: one KeyedRowBlock per partition, degenerate inputs
# ----------------------------------------------------------------------
def untouched_row_tensor():
    """Mode 0 declares 20 indices; no nonzero touches rows 12-19."""
    base = uniform_sparse((12, 10, 14), 220, rng=6)
    return COOTensor(base.indices, base.values, (20, 10, 14))


#: name -> (tensor, rank, driver kwargs, conf kwargs)
FACTOR_SIDE_CASES = {
    # a mode with fewer indices than partitions: empty factor blocks
    "short-mode": (uniform_sparse((40, 30, 3), 200, rng=5), 2, {}, {}),
    "rank1": (uniform_sparse((12, 10, 14), 220, rng=41), 1, {}, {}),
    "rank>mode": (uniform_sparse((3, 10, 8), 60, rng=41), 5, {}, {}),
    "order2": (uniform_sparse((9, 7), 30, rng=41), 2, {}, {}),
    "order5": (uniform_sparse((4, 5, 3, 4, 3), 120, rng=41), 2, {}, {}),
    "nonnegative": (uniform_sparse((12, 10, 14), 220, rng=6), 2,
                    {"nonnegative": True}, {}),
    "ridge": (uniform_sparse((12, 10, 14), 220, rng=6), 2,
              {"regularization": 0.05}, {}),
    "no-map-side-combine": (uniform_sparse((12, 10, 14), 220, rng=6), 2,
                            {}, {"map_side_combine": False}),
    "untouched-row": (untouched_row_tensor(), 2, {}, {}),
    # small enough to deny the row combiner its one-shot booking: map
    # outputs and M arrive as records and are batched again
    "denied-booking": (uniform_sparse((12, 10, 14), 220, rng=6), 2, {},
                       {"memory_total_bytes": 100}),
}

_ORACLES: dict = {}


def factor_side_run(name, cls, kernel, backend="serial", **decompose_kwargs):
    tensor, rank, driver_kwargs, conf_kwargs = FACTOR_SIDE_CASES[name]
    if "resume_from" not in decompose_kwargs:
        decompose_kwargs["initial_factors"] = random_factors(
            tensor.shape, rank, 29)
    conf = EngineConf(kernel=kernel, backend=backend,
                      backend_workers=None if backend == "serial" else 2,
                      **conf_kwargs)
    with Context(num_nodes=4, default_parallelism=8, conf=conf) as ctx:
        return cls(ctx, **driver_kwargs).decompose(
            tensor, rank, max_iterations=3, tol=0.0, **decompose_kwargs)


def factor_side_oracle(name, cls):
    """The serial record-kernel run of one case, computed once."""
    if (name, cls) not in _ORACLES:
        _ORACLES[name, cls] = factor_side_run(name, cls, "record")
    return _ORACLES[name, cls]


@pytest.mark.parametrize("backend", ["serial", "threads", "process"])
@pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO],
                         ids=["coo", "qcoo"])
class TestFactorSide:
    @pytest.mark.parametrize("name", FACTOR_SIDE_CASES)
    def test_bit_identical_to_the_record_oracle(self, name, cls, backend):
        assert_bit_identical(
            factor_side_oracle(name, cls),
            factor_side_run(name, cls, "vectorized", backend))

    @pytest.mark.parametrize("name", ["short-mode", "untouched-row"])
    def test_resume_equals_the_uninterrupted_run(self, name, cls,
                                                 backend):
        """A resumed run distributes the snapshot's factors afresh, in
        index order, where the uninterrupted one carried blocks the
        normalise step sorted: the Gram must not notice."""
        store = InMemoryCheckpointStore()
        factor_side_run(name, cls, "vectorized", backend,
                        checkpoint_every=1, checkpoint_store=store)
        resumed = factor_side_run(name, cls, "vectorized", backend,
                                  checkpoint_store=store, resume_from=0)
        assert_bit_identical(factor_side_oracle(name, cls), resumed)


def cause_of(err, phrase):
    """The exception in ``err``'s cause chain whose text has ``phrase``."""
    cause = err.value
    while cause is not None and phrase not in str(cause):
        cause = cause.__cause__
    assert cause is not None, f"no cause mentions {phrase!r}"
    return cause


class TestLoudAndLocated:
    """Every factor-side consumer reads a partition through
    ``coalesce_rows``; what it refuses, it refuses by name."""

    @pytest.mark.parametrize("consumer", ["block_join", "gram", "fit"])
    def test_stray_record_factor_is_refused_by_name(self, tensor3, init3,
                                                    consumer):
        rows = list(enumerate(init3[2]))
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel="vectorized")) as ctx, \
                ctx.release_scope():
            loose = ctx.parallelize(rows, 8, HashPartitioner(8))
            # a result stage's partition function is not retried: the
            # Gram's refusal arrives raw, the others through the job
            with pytest.raises((JobExecutionError, TypeError)) as err:
                if consumer == "block_join":
                    driver = CstfCOO(ctx)
                    ctx.kernel.coo_join(
                        driver._distribute_tensor(tensor3).key_blocks(2),
                        loose, 1, False, 8).collect()
                elif consumer == "gram":
                    ctx.kernel.gram(loose, 2)
                else:
                    ctx.kernel.column_sums(ctx.kernel.row_products(
                        rows_rdd(ctx, rows, 2), loose, 8), 2)
        message = str(cause_of(err, "must hold KeyedRowBlocks"))
        assert "got tuple" in message
        assert "_distribute_factor" in message
        assert "sum_rows_by_key" in message

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fit_refuses_an_m_key_with_no_factor_row(self, kernel, init3):
        """An unchecked gather would pair the key with a neighbour's
        row and report a wrong fit (the per-record inner join dropped
        it silently); both kernels name the partition and the key."""
        m_rows = list(enumerate(init3[2]))
        missing = 5
        factor_rows = [kv for kv in m_rows if kv[0] != missing]
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel=kernel)) as ctx, \
                ctx.release_scope():
            driver = CstfCOO(ctx)
            with pytest.raises(JobExecutionError) as err:
                driver._fit(rows_rdd(ctx, m_rows, 2),
                            rows_rdd(ctx, factor_rows, 2),
                            np.ones(2), None, norm_x=1.0)
            # and with every key present the products are M * A
            prods = ctx.kernel.row_products(
                rows_rdd(ctx, m_rows[::-1], 2), rows_rdd(ctx, m_rows, 2), 8)
            got = dict(iter_records(prods.collect()))
        message = str(cause_of(err, "has no row on the right side"))
        part = HashPartitioner(8).get_partition(missing)
        assert f"rowProducts partition {part}: key {missing} " in message
        assert sorted(got) == list(range(len(m_rows)))
        for key, row in m_rows:
            assert got[key].tobytes() == (row * row).tobytes()

    @pytest.mark.parametrize("cls", [BigtensorCP, CstfCOO, CstfQCOO])
    def test_hadoop_mode_kernels_agree_bit_for_bit(self, cls):
        """A hadoop-mode factor is re-cut by ``Context.checkpoint``
        every update; the vectorized Gram sums its blocks as they lie,
        so they must lie in the index order the oracle sorts into.
        (Indices no nonzero touches make the slices straddle the old
        partitions; a full index set re-cuts along them.)"""
        tensor3 = uniform_sparse((40, 30, 50), 60, rng=3)
        init3 = random_factors(tensor3.shape, 2, 5)
        results = []
        for kernel in KERNELS:
            with Context(num_nodes=4, default_parallelism=8,
                         execution_mode="hadoop",
                         conf=EngineConf(kernel=kernel)) as ctx:
                results.append(cls(ctx).decompose(
                    tensor3, 2, max_iterations=2, tol=0.0,
                    initial_factors=init3))
        assert_bit_identical(*results)

    @pytest.mark.parametrize("mode", ["spark", "hadoop"])
    def test_checkpoint_recuts_keyed_rows_in_index_order(self, mode, init3):
        """Rows land where their records would — by key under a kept
        partitioner, in equal slices of the collected order without
        one — and every new partition is one block sorted by key."""
        records = list(enumerate(init3[2]))[::-1]
        with Context(num_nodes=4, default_parallelism=8,
                     execution_mode=mode) as ctx:
            source = rows_rdd(ctx, records, 2)
            copy = ctx.checkpoint(source)
            expected = ctx.checkpoint(
                source.materialize_records()).glom().collect()
            parts = copy.glom().collect()
            empty = ctx.checkpoint(rows_rdd(ctx, [], 2))
            assert record_count(empty.collect()) == 0
            assert all(type(b) is KeyedRowBlock for b in empty.collect())
            with pytest.raises(ValueError, match="holds no rows"):
                CstfCOO(ctx)._collect_factor(empty, 2)
        assert (copy.partitioner is None) == (mode == "hadoop")
        for part, recs in zip(parts, expected):
            (block,) = part
            assert block.keys.tolist() == sorted(k for k, _ in recs)
            for key, row in recs:
                at = block.keys.tolist().index(key)
                assert block.rows[at].tobytes() == row.tobytes()

    def test_result_stage_counts_a_block_as_its_rows(self, init3):
        """``output_records`` follows ``blocks.record_count``: a result
        stage over block partitions reports what the record form did
        (``RDD.count()`` itself still counts items)."""
        with Context(num_nodes=4, default_parallelism=8) as ctx:
            rdd = rows_rdd(ctx, list(enumerate(init3[2])), 2)
            rdd.collect()
            stage = ctx.metrics.jobs[-1].stages[-1]
            assert stage.output_records == init3[2].shape[0]
            assert sum(stage.records_per_node.values()) == \
                init3[2].shape[0]
            assert rdd.count() == 8


def test_denied_booking_case_really_hands_records_back(monkeypatch):
    """The budget of the ``denied-booking`` case makes
    ``SpillableAppendOnlyMap.merge_batch`` expand the combiner's block
    on both dataflows (without it the case would prove nothing)."""
    from repro.engine.memory import SpillableAppendOnlyMap
    handed_back = []
    real = SpillableAppendOnlyMap.merged_items

    def spy(self):
        handed_back.append(self._site)
        return real(self)
    monkeypatch.setattr(SpillableAppendOnlyMap, "merged_items", spy)
    for cls in (CstfCOO, CstfQCOO):
        handed_back.clear()
        factor_side_run("denied-booking", cls, "vectorized")
        assert {site[0] for site in handed_back} == {"map", "reduce"}


# ----------------------------------------------------------------------
# driver resource-leak regressions
# ----------------------------------------------------------------------
#: every driver the failure-site sweep covers: (execution mode, class,
#: driver kwargs)
SWEEP_DRIVERS = {
    "coo-join": ("spark", CstfCOO, {}),
    "coo-broadcast": ("spark", CstfCOO, {"factor_strategy": "broadcast"}),
    "coo-lev": ("spark", CstfCOO, {"sampler": "lev", "sample_count": 64}),
    "qcoo": ("spark", CstfQCOO, {}),
    "dimtree": ("spark", CstfDimTree, {}),
    "bigtensor": ("hadoop", BigtensorCP, {}),
    "tucker": ("spark", DistributedTucker, {}),
}


def sweep_run(driver, tensor, init):
    """Two iterations of ``driver``; the arrays a rerun must repeat."""
    if isinstance(driver, DistributedTucker):
        res = driver.decompose(tensor, (2, 2, 2), max_iterations=2, tol=0.0)
        return [res.core, *res.factors]
    res = driver.decompose(tensor, 2, max_iterations=2, tol=0.0,
                           initial_factors=init)
    return [res.lambdas, *res.factors]


class TestLeaks:
    @pytest.mark.parametrize("partition", [0, 7], ids=["first", "last"])
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("name", SWEEP_DRIVERS)
    def test_failure_site_sweep(self, name, backend, partition, tensor3,
                                init3):
        """Kill the run at every stage it has — set-up and both
        iterations — by failing one partition of every stage from a
        threshold on, and require after each propagated
        ``JobExecutionError`` that nothing stays cached, broadcast or
        persisted, and (at every fourth site, to bound the runtime)
        that the same driver object then repeats a fresh driver's
        clean run bit for bit.  The last partition matters: when the
        first one fails on the serial backend nothing of the dying
        stage is cached yet, which hid the leak of a freshly solved
        factor."""
        mode, cls, kwargs = SWEEP_DRIVERS[name]

        def context():
            return Context(num_nodes=4, default_parallelism=8,
                           execution_mode=mode,
                           conf=EngineConf(task_max_failures=2,
                                           retry_backoff_base_s=0.0,
                                           backend=backend,
                                           backend_workers=4))

        with context() as ctx:
            want = sweep_run(cls(ctx, **kwargs), tensor3, init3)
            stages = ctx._scheduler._next_stage_id
        sites, leaky = 0, []
        for threshold in range(stages):
            with context() as ctx:
                def hook(stage_id, part, attempt):
                    if stage_id >= threshold and part == partition:
                        raise RuntimeError("injected fault")
                ctx.fault_injector = hook
                driver = cls(ctx, **kwargs)
                try:
                    sweep_run(driver, tensor3, init3)
                except JobExecutionError:
                    sites += 1
                else:
                    break  # no later stage has this partition
                held = (dict(ctx._cache._entries), ctx.live_broadcasts(),
                        ctx.live_persisted())
                if any(held):
                    leaky.append((threshold, held))
                if any(held) or threshold % 4:
                    continue
                ctx.fault_injector = None
                got = sweep_run(driver, tensor3, init3)
                assert all(np.array_equal(a, b)
                           for a, b in zip(got, want)), threshold
        assert sites >= 12  # set-up and two iterations were reached
        assert leaky == [], f"{len(leaky)} of {sites} sites leak"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_broadcasts_destroyed_after_decompose(self, kernel, tensor3,
                                                  init3):
        """Regression: the broadcast strategy used to create one
        broadcast per fixed mode per MTTKRP and never destroy any."""
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel=kernel)) as ctx:
            driver = CstfCOO(ctx, factor_strategy="broadcast")
            driver.decompose(tensor3, 2, max_iterations=3, tol=0.0,
                             initial_factors=init3)
            assert ctx.metrics.broadcast_count > 0
            assert ctx.live_broadcasts() == []

    @pytest.mark.parametrize("cls", [CstfCOO, CstfQCOO])
    def test_failed_decompose_releases_cache(self, cls, tensor3, init3):
        """Regression: a JobExecutionError escaping mid-iteration used
        to leak the persisted tensor, queue and factor RDDs."""
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(task_max_failures=2)) as ctx:
            def hook(stage_id, partition, attempt):
                if stage_id >= 8 and partition == 0:
                    raise RuntimeError("injected mid-iteration fault")
            ctx.fault_injector = hook
            with pytest.raises(JobExecutionError):
                cls(ctx).decompose(tensor3, 2, max_iterations=3,
                                   tol=0.0, initial_factors=init3)
            assert len(ctx._cache._entries) == 0

    def test_failed_broadcast_decompose_destroys_broadcasts(
            self, tensor3, init3):
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(task_max_failures=2)) as ctx:
            def hook(stage_id, partition, attempt):
                if stage_id >= 8 and partition == 0:
                    raise RuntimeError("injected mid-iteration fault")
            ctx.fault_injector = hook
            driver = CstfCOO(ctx, factor_strategy="broadcast")
            with pytest.raises(JobExecutionError):
                driver.decompose(tensor3, 2, max_iterations=3, tol=0.0,
                                 initial_factors=init3)
            assert ctx.live_broadcasts() == []
            assert len(ctx._cache._entries) == 0
