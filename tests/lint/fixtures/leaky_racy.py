"""Deliberately buggy engine program — the lint acceptance fixture.

Seeded findings (each caught by a different pass):

1. a broadcast that is never ``destroy()``ed          (lifecycle)
2. a persisted RDD that is never ``unpersist()``ed    (lifecycle)
3. an unseeded module-level RNG call in a closure     (closures)
4. an unsynchronized shared-dict write in a closure   (closures;
   double-counted on lineage recomputation)

``repro lint --run tests/lint/fixtures/leaky_racy.py`` must report all
four; its clean twin ``clean_program.py`` must report none.
"""

from __future__ import annotations

import random

from repro.engine import Context, EngineConf


def main() -> None:
    conf = EngineConf(backend="serial")
    ctx = Context(num_nodes=4, default_parallelism=8, conf=conf)

    # finding 1: leaked broadcast (never destroyed)
    weights = ctx.broadcast([1.0, 2.0, 3.0, 4.0])

    # finding 2: leaked persisted RDD (never unpersisted)
    data = ctx.parallelize(list(range(1_000)), 8).set_name("leaky-input")
    data.persist()

    tallies: dict[int, int] = {}

    def jitter(x: int) -> float:
        # finding 3: shared module-level RNG — nondeterministic on
        # recomputation
        noise = random.random()
        # finding 4: unsynchronized write to a captured dict —
        # double-counted on lineage recomputation
        tallies[x % 4] = tallies.get(x % 4, 0) + 1
        return x * weights.value[x % 4] + noise

    total = data.map(jitter).sum()
    print(f"total={total:.3f} tallies={len(tallies)}")

    ctx.stop()


if __name__ == "__main__":
    main()
