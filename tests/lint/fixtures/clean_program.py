"""The leaky fixture's clean twin — every handle released, RNG seeded.

``repro lint --run tests/lint/fixtures/clean_program.py`` must report
zero findings: this is the false-positive regression guard for the
dynamic passes (closure analyzer sees the seeded RNG instance and the
accumulator; lifecycle auditor sees every handle released; lockset
monitor sees only locked accesses).
"""

from __future__ import annotations

import random

from repro.engine import Context, EngineConf


def main() -> None:
    conf = EngineConf(backend="serial")
    with Context(num_nodes=4, default_parallelism=8, conf=conf) as ctx:
        weights = ctx.broadcast([1.0, 2.0, 3.0, 4.0])
        data = ctx.parallelize(list(range(1_000)), 8) \
            .set_name("clean-input")
        data.persist()
        tallies = ctx.accumulator(0, name="tallies")
        rng = random.Random(42)
        base = rng.random()

        def jitter(x: int) -> float:
            tallies.add(1)
            return x * weights.value[x % 4] + base

        total = data.map(jitter).sum()
        print(f"total={total:.3f} tallies={tallies.value}")

        data.unpersist()
        weights.destroy()


if __name__ == "__main__":
    main()
