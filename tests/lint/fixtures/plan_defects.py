"""Deliberately defective engine program — the plan-audit acceptance
fixture.

Seeded findings, one per rule family of the plan/lock-order/
determinism passes:

1. a ``join`` between an int-keyed and a tuple-keyed RDD
                                            (plan-schema-mismatch)
2. a hand-built shuffle of a ``reduce_by_key`` output onto the
   partitioner it already has                (plan-redundant-shuffle)
3. an uncached mapped RDD consumed by two jobs (plan-uncached-reuse)
4. two threads taking the same pair of monitored locks in opposite
   orders                                    (lock-order-cycle)
5. a module-level ``np.random`` draw          (determinism-global-rng)

``repro lint --plan --racecheck --strict --run <this file>`` must
report all five families and exit 1; the real examples under
``examples/`` must stay clean under the same flags.

The lock pair is taken sequentially (each thread joined before the
next starts) so the cycle exists only in the acquisition-order graph,
never as an actual deadlock — the fixture always terminates.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.engine import Context, EngineConf, HashPartitioner
from repro.engine import linthooks
from repro.engine.rdd import ShuffledRDD


def _lock_order_cycle() -> None:
    a = linthooks.make_lock("FixtureLockA")
    b = linthooks.make_lock("FixtureLockB")

    def forward() -> None:
        with a:
            with b:
                pass

    def backward() -> None:
        with b:
            with a:
                pass

    for fn in (forward, backward):
        t = threading.Thread(target=fn)
        t.start()
        t.join()


def main() -> None:
    _lock_order_cycle()

    # determinism-global-rng: draws from the process-global NumPy RNG
    noise = float(np.random.random())

    conf = EngineConf(backend="serial")
    with Context(num_nodes=2, default_parallelism=4, conf=conf) as ctx:
        # plan-schema-mismatch: int keys joined against tuple keys
        by_int = ctx.parallelize(
            [(i, i * noise) for i in range(16)], 4) \
            .set_name("keyed-by-int")
        by_pair = ctx.parallelize(
            [((i, i + 1), float(i)) for i in range(16)], 4) \
            .set_name("keyed-by-pair")
        mismatched = by_int.join(by_pair, 4).set_name("bad-join")
        mismatched.count()

        # plan-redundant-shuffle: already hash-partitioned into 4
        # partitions, then shuffled again onto the same partitioner (the
        # engine's own operators elide this; a hand-built shuffle does not)
        pre = ctx.parallelize(
            [(i % 8, 1) for i in range(32)], 4) \
            .reduce_by_key(lambda x, y: x + y, 4) \
            .set_name("prepartitioned")
        redundant = ShuffledRDD(pre, HashPartitioner(4)) \
            .set_name("redundantly-shuffled")
        redundant.count()

        # plan-uncached-reuse: the mapped RDD feeds two jobs with no
        # persist() between them
        reused = ctx.parallelize(list(range(64)), 4) \
            .map(lambda x: x * 2).set_name("reused-uncached")
        reused.count()
        reused.sum()


if __name__ == "__main__":
    main()
