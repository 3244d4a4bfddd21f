"""A tour of the dataflow engine underneath CSTF.

The reproduction's substrate is a general Spark-semantics engine; this
example uses it directly — no tensors — to show the machinery the
algorithms are built on: lazy lineage, co-partitioned narrow joins,
caching, broadcast variables, fault tolerance and the metrics the paper
measures with.

Run:  python examples/engine_tour.py
"""

from __future__ import annotations

from repro.engine import Context, EngineListener, HashPartitioner


def main() -> None:
    with Context(num_nodes=4, default_parallelism=8) as ctx:
        # --- a small log-analytics pipeline -------------------------
        events = ctx.parallelize(
            [(f"user{e % 13}", e % 5) for e in range(2000)]
        ).set_name("events")

        per_user = events.reduce_by_key(lambda a, b: a + b, 8)\
            .set_name("per-user-score").cache()
        top = per_user.top(3, key=lambda kv: kv[1])
        print("top users      :", top)

        # a lookup table distributed with the SAME partitioner joins
        # without any shuffle — the trick CSTF's factor matrices use
        part = HashPartitioner(8)
        profiles = ctx.parallelize(
            [(f"user{u}", f"tier-{u % 3}") for u in range(13)], 8, part)
        rounds_before = ctx.metrics.total_shuffle_rounds()
        joined = per_user.partition_by(part).join(profiles, 8)
        enriched = joined.map_values(
            lambda pair: {"score": pair[0], "tier": pair[1]}).collect()
        print("join shuffles  :",
              ctx.metrics.total_shuffle_rounds() - rounds_before,
              "(lookup side moved nothing)")

        # broadcast: ship a small table everywhere instead of joining
        weights = ctx.broadcast({0: 1.0, 1: 0.5, 2: 2.0, 3: 0.1, 4: 1.5})
        weighted = events.map(
            lambda kv: kv[1] * weights.value[kv[1]]).sum()
        print(f"weighted total : {weighted:,.1f} "
              f"(broadcast payload {weights.size_bytes} B)")

        # fault tolerance: a task that dies once is retried invisibly.
        # An event-bus listener fails an attempt by raising from
        # on_task_start (a task closure writing captured state instead
        # would count twice on lineage recomputation: `repro lint`
        # flags that, lock or no lock)
        class FailOnce(EngineListener):
            fired = False

            def on_task_start(self, event):
                if event.partition == 3 and not self.fired:
                    self.fired = True
                    raise RuntimeError("transient executor failure")

        fault = FailOnce()
        ctx.event_bus.subscribe(fault)
        assert ctx.parallelize(range(2001), 8).count() == 2001
        ctx.event_bus.unsubscribe(fault)
        print("fault injected :", fault.fired, "-> job still exact")

        # lineage and metrics introspection
        print("\nlineage of the enriched dataset:")
        print(joined.to_debug_string())
        print("\nengine metrics digest:")
        print(ctx.metrics.summary())

        # release the handles we created: cached partitions and
        # broadcast replicas are pinned until told otherwise, and the
        # lifecycle auditor (`repro lint --run`) reports anything
        # still live at teardown
        per_user.unpersist()
        weights.destroy()


if __name__ == "__main__":
    main()
