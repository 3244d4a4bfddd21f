"""End-to-end data integrity: detect corruption, heal from lineage.

Runs the same CP-ALS decomposition twice — once clean, once under a
seeded fault plan that flips bytes in shuffle blocks and tears
checkpoint shards — with the integrity layer (``EngineConf.integrity``)
verifying a CRC-32 on every blob read.  Every injected corruption is
detected and healed by lineage recomputation, the torn checkpoint is
skipped at resume time in favour of the newest good snapshot, and the
final factors are bit-identical to the clean run.

Run:  python examples/integrity_demo.py

This example doubles as the dynamic racecheck target for the integrity
layer in CI: under ``repro lint --racecheck`` the lockset detector
watches the new IntegrityManager / IntegrityMetrics / Broadcast
fetch-cache locks while corruption recovery runs on the process
backend, whose orchestration threads run the broadcast strategy's
MTTKRP map stages.
"""

from __future__ import annotations

import tempfile

from pathlib import Path

import numpy as np

from repro.core import CstfCOO, FileCheckpointStore
from repro.engine import Context, EngineConf, FaultPlan
from repro.tensor import random_factors, uniform_sparse


def main() -> None:
    tensor = uniform_sparse((14, 12, 10), 400, rng=3)
    init = random_factors(tensor.shape, 2, 11)

    with Context(num_nodes=4, default_parallelism=8) as ctx:
        clean = CstfCOO(ctx, factor_strategy="broadcast").decompose(
            tensor, 2, max_iterations=3, tol=0.0, initial_factors=init)
    print(f"clean fit        : {clean.final_fit:.6f}")

    plan = FaultPlan(seed=0, corrupt_block_prob=0.05, torn_write_prob=0.5)
    conf = EngineConf(integrity=True, backend="process",
                      backend_workers=2)
    with tempfile.TemporaryDirectory() as tmp:
        with Context(num_nodes=4, default_parallelism=8,
                     fault_plan=plan, conf=conf) as ctx:
            store = FileCheckpointStore(Path(tmp) / "ckpts",
                                        fault_plan=plan,
                                        metrics=ctx.metrics.integrity)
            hostile = CstfCOO(ctx, factor_strategy="broadcast").decompose(
                tensor, 2, max_iterations=3, tol=0.0,
                initial_factors=init, checkpoint_every=1,
                checkpoint_store=store)
            integrity = ctx.metrics.integrity
            print(f"blocks verified  : {integrity.blocks_verified:,} "
                  f"({integrity.checksum_bytes:,} B checksummed)")
            print(f"corruption       : {integrity.corrupted_blocks} "
                  f"detected / {integrity.corruptions_injected} injected")
            print(f"recoveries       : "
                  f"{integrity.recompute_recoveries} lineage recomputes")
            try:
                snap = store.load()
                print(f"resume point     : iteration {snap.iteration} "
                      f"(newest snapshot that verified)")
            except KeyError:
                print("resume point     : none survived (all torn)")
            print(f"ckpt shards      : "
                  f"{integrity.checkpoint_shards_verified} verified, "
                  f"{integrity.checkpoint_fallbacks} fallbacks, "
                  f"{integrity.torn_writes_detected} torn writes")

    identical = all(
        np.array_equal(a, b)
        for a, b in zip(clean.factors, hostile.factors))
    print(f"bit-identical    : {identical}")
    assert identical, "corruption must never change committed results"


if __name__ == "__main__":
    main()
