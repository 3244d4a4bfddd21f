"""Kernel-layer determinism and driver resource-leak regressions.

The vectorized kernel must be a pure throughput knob: every CP-ALS
decomposition it produces — COO and QCOO, 3rd- and 4th-order, clean and
under injected faults, straight through or checkpoint/resumed — has to
be bit-identical to the record kernel's.  Alongside the determinism
suite live the driver leak regressions: the broadcast-strategy MTTKRP
destroys its broadcasts, and a decompose that dies mid-iteration does
not pin persisted RDDs in the cache.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import CstfCOO, CstfQCOO
from repro.engine import (Context, EngineConf, EngineError,
                          HashPartitioner, JobExecutionError, KernelError)
from repro.engine.blocks import (ColumnarBlock, KeyedRowBlock, iter_records,
                                 partition_rows, record_count)
from repro.kernels import (LeverageSampler, RecordKernel, VectorizedKernel,
                           combine_rows_batch, create_kernel, fold_rows,
                           segmented_left_fold)
from repro.tensor import COOTensor, random_factors, uniform_sparse

from .. import conformance as cf

KERNELS = cf.KERNELS


@pytest.fixture(scope="module")
def tensor3():
    return cf.tensor("order3")


@pytest.fixture(scope="module")
def init3():
    return cf.initial("order3")


@pytest.fixture(scope="module")
def tensor4():
    return cf.tensor("order4")


@pytest.fixture(scope="module")
def init4():
    return cf.initial("order4")


# ----------------------------------------------------------------------
# segmented-sum unit tests against a dict-fold oracle
# ----------------------------------------------------------------------
class TestSegsum:
    def dict_fold(self, pairs):
        acc = {}
        for k, v in pairs:
            acc[k] = acc[k] + v if k in acc else v
        return dict(sorted(acc.items()))

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_matches_dict_fold_bitwise(self, width):
        rng = np.random.default_rng(100 + width)
        keys = rng.integers(0, 9, size=64).astype(np.int64)
        rows = rng.standard_normal((64, width)) * 10.0 ** rng.integers(
            -3, 4, size=(64, 1))
        oracle = self.dict_fold(zip(keys.tolist(), rows))
        out_keys, out_rows = segmented_left_fold(keys, rows)
        # ascending key order, as the record path's sorted reduce output
        assert out_keys.tolist() == list(oracle)
        for i, k in enumerate(out_keys.tolist()):
            assert out_rows[i].tobytes() == oracle[k].tobytes()

    def test_singleton_keys_pass_through(self):
        keys = np.array([7, 3, 5], dtype=np.int64)
        rows = np.array([[1.1, 2.2], [3.3, 4.4], [5.5, 6.6]])
        out_keys, out_rows = segmented_left_fold(keys, rows)
        assert out_keys.tolist() == [3, 5, 7]
        assert out_rows.tobytes() == rows[[1, 2, 0]].tobytes()

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

    def test_record_kernel_counts_no_batches(self, request, monkeypatch):
        (got,) = cf.check_kept(request, monkeypatch)
        assert got.metrics.kernel_batches == 0

    def test_vectorized_kernel_counts_batches(self, request, monkeypatch):
        (got,) = cf.check_kept(request, monkeypatch)
        assert got.metrics.kernel_batches > 0


# ----------------------------------------------------------------------
# bit-identity: vectorized vs record
# ----------------------------------------------------------------------
class TestBitIdentity:
    """Each runs its cells under both kernels against the record oracle."""

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_third_order(self, request, monkeypatch, cls):
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_fourth_order(self, request, monkeypatch, cls):
        cf.check_kept(request, monkeypatch)

    def test_broadcast_strategy(self, request, monkeypatch):
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_under_injected_faults(self, request, monkeypatch, cls):
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 10, 20])
    def test_fault_seed_matrix(self, request, monkeypatch, seed):
        cf.check_kept(request, monkeypatch)

    def test_checkpoint_resume_crosses_kernels(self, request, monkeypatch):
        """A run checkpointed under one kernel and resumed under the
        other, from a mid-run snapshot, equals the record oracle."""
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("case", ["order3", "order4"])
    def test_qcoo_checkpoint_resume_crosses_kernels(self, request,
                                                    monkeypatch, case):
        """The reason ``qcoo_canonical`` exists: the resumed run
        rebuilds its queue with N-1 init joins where the uninterrupted
        one carried it across iterations, and both must sum the same
        rows in the same order."""
        cf.check_kept(request, monkeypatch)

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


class TestBlockJoin:
    """The conformance matrix of the block join (order 2-5, rank 1,
    rank above the smallest mode, mostly empty partitions, both
    drivers): both kernels equal the record oracle, with Table 4's
    shuffle rounds and equal per-stage shuffle traffic."""

    # CSTF-COO cases keep their bare ids; CSTF-QCOO's are prefixed
    @pytest.mark.parametrize("name", [
        prefix + name for prefix in ("", "qcoo-") for name in cf.JOIN_CASES])
    def test_bit_identical_with_equal_shuffles(self, request, monkeypatch,
                                               name):
        cf.check_kept(request, monkeypatch)

    def test_map_side_combine_off(self, request, monkeypatch):
        cf.check_kept(request, monkeypatch)

    def test_qcoo_map_side_combine_off(self, request, monkeypatch):
        cf.check_kept(request, monkeypatch)

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

    def test_qcoo_cached_queue_is_priced_as_its_tuples(self):
        """The cost model prices what ``RunStats`` holds, and CSTF-QCOO
        re-caches its queue every MTTKRP: a cached queue block must be
        charged what the tuples it stands for were, or every modelled
        QCOO second moves by representation alone.  Every kernel reads
        the same tensor blocks and holds factors and MTTKRP outputs as
        the same keyed row blocks, so no field may tell the kernels
        apart on any of the four dataflows — ``cache_bytes`` (a keyed
        block rests at its records' size), ``records_processed`` and
        ``node_skew`` (a result stage counts a block as its rows) and
        ``shuffle_records`` included.  (Integrity pinned off:
        ``checksummed_bytes`` measures the serialized form, the one
        thing kernels may vary.)"""
        import dataclasses
        from repro.engine.costmodel import RunStats
        cached = {}
        for driver, sampler in (("coo-join", "exact"),
                                ("coo-broadcast", "exact"),
                                ("qcoo", "exact"), ("coo-join", "lev")):
            rec, vec = (dataclasses.asdict(RunStats.from_metrics(cf.run(
                "order4", driver, kernel=kernel, sampler=sampler,
                sample_count=32, iterations=2,
                conf={"integrity": False}).metrics)) for kernel in KERNELS)
            assert rec == vec, (driver, sampler)
            assert rec["records_processed"] > rec["shuffle_records"] > 0
            assert rec["node_skew"] >= 1.0 and rec["cache_bytes"] > 0
            cached[driver, sampler] = rec["cache_bytes"]
        # the queues
        assert cached["qcoo", "exact"] > 10 * cached["coo-join", "exact"]

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
                         driver._queue_rdd.map_partitions(
                             lambda it: [list(it)]).collect()]
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
        cause = cause_of(err, phrase)
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


def test_both_joins_emit_in_probe_order():
    """``BlockJoinRDD`` and ``RDD.join`` equal a Python probe loop over
    the left side in fetch order, byte for byte: a reduce partition
    holds its map partitions' rows in map order, each map partition's
    in storage order, and a key with no right row drops its rows.  A
    right key that appears twice still raises in the block join."""
    rng = np.random.default_rng(3)
    n, size, rank, parts = 400, 60, 2, 4
    keys = rng.integers(0, size, n)
    other = rng.integers(0, 9, n)
    values = rng.standard_normal(n)
    factor = rng.standard_normal((size, rank))
    kept = [i for i in range(size) if i % 7]
    pid = HashPartitioner(parts).partition_int_keys(keys)
    # the probe loop: reduce partition by reduce partition, the left
    # side in fetch order (four contiguous map partitions)
    probe = [i for p in range(parts) for i in range(n)
             if pid[i] == p and keys[i] % 7]
    with Context(num_nodes=2, default_parallelism=parts) as ctx:
        right = rows_rdd(ctx, [(i, factor[i]) for i in kept], rank, parts)
        tensor = ColumnarBlock((keys, other), values)
        left = ctx.parallelize_blocks([
            tensor.take(slice(lo, lo + n // parts))
            for lo in range(0, n, n // parts)]).key_blocks(0)
        joined = left.block_join(
            right, lambda blk, rows: blk.values[:, None] * rows, 1,
            num_partitions=parts).collect()
        pairs = ctx.parallelize(
            [(int(k), (int(o), float(v)))
             for k, o, v in zip(keys, other, values)], parts
        ).join(right.materialize_records(), parts).collect()
        twice = [(i, factor[i]) for i in kept]
        twice.insert(1, (1, factor[1]))     # kept[0] is 1
        duplicated = rows_rdd(ctx, twice, rank, parts)
        with pytest.raises(JobExecutionError) as err:
            left.block_join(duplicated, lambda blk, rows: rows, 1,
                            num_partitions=parts).collect()
    block = ColumnarBlock.concat(joined)
    assert block.column(0).tolist() == keys[probe].tolist()
    assert block.column(1).tolist() == other[probe].tolist()
    assert block.rows.tobytes() == \
        (values[:, None] * factor[keys])[probe].tobytes()
    assert [(k, lv) for k, (lv, _) in pairs] == [
        (int(keys[i]), (int(other[i]), float(values[i]))) for i in probe]
    assert np.stack([rv for _, (_, rv) in pairs]).tobytes() == \
        factor[keys[probe]].tobytes()
    assert "key 1 appears more than once" in str(
        cause_of(err, "more than once"))


# ----------------------------------------------------------------------
# the factor side: one KeyedRowBlock per partition, degenerate inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("cls", ["coo", "qcoo"])
class TestFactorSide:
    """The vectorized kernel on every backend equals the record oracle
    on the degenerate shapes of ``cf.FACTOR_SIDE_CASES``."""

    @pytest.mark.parametrize("name", cf.FACTOR_SIDE_CASES)
    def test_bit_identical_to_the_record_oracle(self, request, monkeypatch,
                                                name, cls, backend):
        cf.check_kept(request, monkeypatch)

    @pytest.mark.parametrize("name", ["short-mode", "untouched-row"])
    def test_resume_equals_the_uninterrupted_run(self, request, monkeypatch,
                                                 name, cls, backend):
        """A resumed run distributes the snapshot's factors afresh, in
        index order, where the uninterrupted one carried blocks the
        normalise step sorted: the Gram must not notice."""
        cf.check_kept(request, monkeypatch)


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

    def test_row_products_refuse_a_negative_key(self, init3):
        """The gather looks rows up by key, and keys are mode indices:
        a negative one is named, not wrapped around to another row."""
        rows = [(-1, init3[2][0])] + list(enumerate(init3[2]))
        with Context(num_nodes=4, default_parallelism=8,
                     conf=EngineConf(kernel="vectorized")) as ctx, \
                ctx.release_scope():
            prods = ctx.kernel.row_products(
                rows_rdd(ctx, rows, 2), rows_rdd(ctx, rows, 2), 8)
            with pytest.raises(JobExecutionError) as err:
                prods.collect()
        message = str(cause_of(err, "is negative"))
        part = HashPartitioner(8).get_partition(-1)
        assert f"rowProducts partition {part}: key -1 " in message

    @pytest.mark.parametrize("cls", ["BigtensorCP", "CstfCOO", "CstfQCOO"])
    def test_hadoop_mode_kernels_agree_bit_for_bit(self, cls):
        """A hadoop-mode factor is re-cut by ``Context.checkpoint``
        every update; the vectorized Gram sums its blocks as they lie,
        so they must lie in the index order the oracle sorts into.
        (Indices no nonzero touches make the slices straddle the old
        partitions; a full index set re-cuts along them.)"""
        data = uniform_sparse((40, 30, 50), 60, rng=3)
        init = random_factors(data.shape, 2, 5)
        driver = {"BigtensorCP": "bigtensor", **cf.DRIVER_OF}[cls]
        cf.assert_bit_identical(*(
            cf.run(driver=driver, kernel=kernel, data=data, init=init,
                   iterations=2, mode="hadoop") for kernel in KERNELS))

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
                source.materialize_records()).map_partitions(
                    lambda it: [list(it)]).collect()
            parts = copy.map_partitions(lambda it: [list(it)]).collect()
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


@pytest.mark.parametrize("driver", ["coo-join", "qcoo"])
def test_denied_booking_row_sum_builds_no_spill_map(driver, monkeypatch):
    """Under the ``denied-booking`` case's budget the vectorized row
    sum's map- and reduce-side combines keep their blocks whole: no
    combine buffer is built, and the factors are the oracle's bits."""
    from repro.engine.memory import SpillableAppendOnlyMap
    built = []
    real = SpillableAppendOnlyMap.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("site"))
        real(self, *args, **kwargs)
    monkeypatch.setattr(SpillableAppendOnlyMap, "__init__", spy)
    got = cf.run("denied-booking", driver, kernel="vectorized")
    assert built == []
    monkeypatch.undo()
    cf.assert_bit_identical(cf.oracle("denied-booking", driver), got)


# ----------------------------------------------------------------------
# driver resource-leak regressions
# ----------------------------------------------------------------------
class TestLeaks:
    @pytest.mark.parametrize("partition", [0, 7], ids=["first", "last"])
    @pytest.mark.parametrize("backend", ["serial"])
    @pytest.mark.parametrize("name", cf.SWEEP_DRIVERS)
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
        mode, cls, kwargs = cf.DRIVERS[name]

        def context():
            return Context(num_nodes=4, default_parallelism=8,
                           execution_mode=mode,
                           conf=EngineConf(task_max_failures=2,
                                           retry_backoff_base_s=0.0,
                                           backend=backend,
                                           backend_workers=4,
                                           **cf.DRIVER_CONF.get(name, {})))

        with context() as ctx:
            want = cf.sweep_run(cls(ctx, **kwargs), tensor3, init3)
            stages = ctx._scheduler._next_stage_id
        sites, leaky = 0, []
        for threshold in range(stages):
            with context() as ctx:
                def hook(stage_id, part, attempt):
                    if stage_id >= threshold and part == partition:
                        raise RuntimeError("injected fault")
                listener = cf.TaskStartHook(hook)
                ctx.event_bus.subscribe(listener)
                driver = cls(ctx, **kwargs)
                try:
                    cf.sweep_run(driver, tensor3, init3)
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
                ctx.event_bus.unsubscribe(listener)
                got = cf.sweep_run(driver, tensor3, init3)
                assert all(np.array_equal(a, b)
                           for a, b in zip(got, want)), threshold
        assert sites >= 12  # set-up and two iterations were reached
        assert leaky == [], f"{len(leaky)} of {sites} sites leak"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_broadcasts_destroyed_after_decompose(self, kernel):
        """Regression: the broadcast strategy used to create one
        broadcast per fixed mode per MTTKRP and never destroy any
        (``cf.run`` checks that none is live afterwards)."""
        got = cf.run(driver="coo-broadcast", kernel=kernel)
        assert got.metrics.broadcast_count > 0

    @staticmethod
    def mid_iteration_fault(stage_id, partition, attempt):
        if stage_id >= 8 and partition == 0:
            raise RuntimeError("injected mid-iteration fault")

    @pytest.mark.parametrize("cls", ["CstfCOO", "CstfQCOO"])
    def test_failed_decompose_releases_cache(self, cls):
        """Regression: a JobExecutionError escaping mid-iteration used
        to leak the persisted tensor, queue and factor RDDs."""
        cf.run(driver=cf.DRIVER_OF[cls], injector=self.mid_iteration_fault,
               conf={"task_max_failures": 2}, raises=JobExecutionError)

    def test_failed_broadcast_decompose_destroys_broadcasts(self):
        cf.run(driver="coo-broadcast", injector=self.mid_iteration_fault,
               conf={"task_max_failures": 2}, raises=JobExecutionError)
