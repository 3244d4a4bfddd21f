"""FileCheckpointStore: atomic commit, manifests, torn-write fallback.

Exercises the atomic write-temp-plus-rename checkpoint protocol and the
checksummed-manifest verification on resume: a truncated (torn) or
bit-flipped shard must never be resumed from — ``load(None)`` falls
back to the newest *good* snapshot, and a run resumed from it converges
bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (CPCheckpoint, DirectoryCheckpointStore,
                        FileCheckpointStore)
from repro.engine import CorruptedDataError, FaultPlan, IntegrityMetrics
from repro.engine.integrity import site_rng

from .. import conformance as cf


def snapshot(iteration: int, value: float = 1.0) -> CPCheckpoint:
    """A small deterministic checkpoint for store-level tests."""
    return CPCheckpoint(
        algorithm="cp-als", rank=2, iteration=iteration,
        lambdas=np.array([value, value + 1.0]),
        factors=[np.full((4, 2), value), np.full((3, 2), value * 2)],
        fit_history=[0.1 * (i + 1) for i in range(iteration + 1)])


class TestAtomicProtocol:
    def test_save_load_round_trip(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        ck = snapshot(0)
        store.save(ck)
        loaded = store.load()
        assert loaded.iteration == 0
        assert loaded.algorithm == ck.algorithm
        assert loaded.rank == ck.rank
        assert np.array_equal(loaded.lambdas, ck.lambdas)
        for a, b in zip(loaded.factors, ck.factors):
            assert np.array_equal(a, b)
        assert loaded.fit_history == ck.fit_history

    def test_no_temp_files_survive_save(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        store.save(snapshot(0))
        leftovers = [p for p in (tmp_path / "ckpts").rglob("*.tmp")]
        assert leftovers == []

    def test_manifest_written_last_gates_visibility(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        store.save(snapshot(0))
        # a crash before the manifest commit = shards without manifest:
        # invisible to iterations()/load()
        half = tmp_path / "ckpts" / "ckpt-000005"
        half.mkdir()
        (half / "lambdas.npy").write_bytes(b"partial")
        assert store.iterations() == [0]
        assert store.load().iteration == 0

    def test_manifest_records_per_shard_checksums(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        store.save(snapshot(3))
        manifest = json.loads(
            (tmp_path / "ckpts" / "ckpt-000003" /
             "manifest.json").read_text())
        assert manifest["iteration"] == 3
        assert manifest["num_factors"] == 2
        for name in ("lambdas", "fit_history", "factor_0", "factor_1"):
            assert {"crc32", "bytes"} <= set(manifest["shards"][name])

    def test_directory_store_alias(self):
        assert DirectoryCheckpointStore is FileCheckpointStore

    def test_empty_store_raises_keyerror(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        with pytest.raises(KeyError):
            store.load()


class TestTornWriteFallback:
    def test_truncated_shard_falls_back_to_previous_good(self, tmp_path):
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(tmp_path / "ckpts", metrics=metrics)
        store.save(snapshot(0))
        store.save(snapshot(1, value=5.0))
        shard = tmp_path / "ckpts" / "ckpt-000001" / "factor_0.npy"
        with open(shard, "r+b") as fh:
            fh.truncate(shard.stat().st_size // 2)
        loaded = store.load()
        assert loaded.iteration == 0
        assert metrics.torn_writes_detected >= 1
        assert metrics.checkpoint_fallbacks == 1

    def test_bit_flipped_shard_falls_back(self, tmp_path):
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(tmp_path / "ckpts", metrics=metrics)
        store.save(snapshot(0))
        store.save(snapshot(1, value=5.0))
        shard = tmp_path / "ckpts" / "ckpt-000001" / "lambdas.npy"
        blob = bytearray(shard.read_bytes())
        blob[-1] ^= 0xFF
        shard.write_bytes(bytes(blob))
        assert store.load().iteration == 0
        assert metrics.corrupted_blocks >= 1

    def test_explicit_load_of_torn_checkpoint_raises(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpts")
        store.save(snapshot(0))
        shard = tmp_path / "ckpts" / "ckpt-000000" / "factor_1.npy"
        with open(shard, "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(CorruptedDataError):
            store.load(0)
        with pytest.raises(KeyError):
            store.load()  # no good checkpoint at all left

    def test_shards_verified_counter(self, tmp_path):
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(tmp_path / "ckpts", metrics=metrics)
        store.save(snapshot(0))
        store.load()
        assert metrics.checkpoint_shards_verified == 4


class TestInjectedFaults:
    def test_torn_write_injection_is_seeded(self, tmp_path):
        plan = FaultPlan(torn_write_prob=1.0)
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(tmp_path / "ckpts", fault_plan=plan,
                                    metrics=metrics)
        store.save(snapshot(0))
        # a torn write is no byte flip: it is counted where it is found
        assert metrics.corruptions_injected == 0
        with pytest.raises(KeyError):
            store.load()
        assert metrics.torn_writes_detected == 1

    def test_checkpoint_corruption_injection(self, tmp_path):
        plan = FaultPlan(corrupt_checkpoint_prob=1.0)
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(tmp_path / "ckpts", fault_plan=plan,
                                    metrics=metrics)
        store.save(snapshot(0))
        assert metrics.corruptions_injected == 1
        with pytest.raises(CorruptedDataError):
            store.load(0)

    def test_probability_zero_never_injects(self, tmp_path):
        metrics = IntegrityMetrics()
        store = FileCheckpointStore(
            tmp_path / "ckpts", fault_plan=FaultPlan(),
            metrics=metrics)
        for it in range(3):
            store.save(snapshot(it))
        assert metrics.corruptions_injected == 0
        assert store.load().iteration == 2

    def test_draws_depend_only_on_seed_and_iteration(self):
        for seed in (0, 1, 2):
            a = site_rng(seed, "ckpt-torn", 4).random()
            assert a == site_rng(seed, "ckpt-torn", 4).random()
            assert a != site_rng(seed + 1, "ckpt-torn", 4).random()


class TestResumeAfterTornWrite:
    def test_resume_falls_back_and_converges_bit_identically(
            self, tmp_path):
        """The newest checkpoint shard is torn on disk; resume must fall
        back to the previous good iteration and finish bit-identical to
        an uninterrupted run — with the integrity layer on."""
        store = FileCheckpointStore(tmp_path / "ckpts")
        cf.run(iterations=2, conf=cf.INTEGRITY, store=store,
               checkpoint_every=1)
        assert store.iterations() == [0, 1]

        # tear the newest snapshot (iteration 1) on disk
        shard = tmp_path / "ckpts" / "ckpt-000001" / "factor_0.npy"
        with open(shard, "r+b") as fh:
            fh.truncate(shard.stat().st_size // 2)

        metrics = IntegrityMetrics()
        resumed = cf.run(iterations=4, conf=cf.INTEGRITY,
                         resume_from="latest",
                         store=FileCheckpointStore(tmp_path / "ckpts",
                                                   metrics=metrics))
        assert metrics.checkpoint_fallbacks == 1
        assert metrics.torn_writes_detected >= 1
        # fallback re-runs iterations 1..3 from snapshot 0 and must land
        # bit-identical to the uninterrupted 4-iteration run
        cf.assert_bit_identical(cf.oracle(iterations=4), resumed)
