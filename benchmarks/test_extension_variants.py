"""Extension figure — Figure 2(a) re-plotted with the reproduction's
additional variant, broadcast factor replication, alongside the
paper's three algorithms.

Not a paper figure; it positions the extensions against the published
design space on the paper's own workload (delicious3d, 4-32 nodes).
"""

from __future__ import annotations


from repro.analysis import NODE_COUNTS, format_series
from repro.core import CstfCOO
from repro.engine import Context, CostModel, RunStats
from repro.datasets import get_spec

from _harness import CONFIG, report, runtime_sweep, tensor_for

DATASET = "delicious3d"


def _broadcast_sweep() -> list[float]:
    """Broadcast-strategy runtime series (measured manually: the shared
    harness only caches the named registry algorithms)."""
    tensor = tensor_for(DATASET)

    def run(iters):
        with Context(num_nodes=CONFIG.measure_nodes,
                     default_parallelism=CONFIG.partitions) as ctx:
            CstfCOO(ctx, factor_strategy="broadcast").decompose(
                tensor, CONFIG.rank, max_iterations=iters, tol=0.0,
                compute_fit=False)
            flops = 9.0 * tensor.nnz * CONFIG.rank * iters
            return RunStats.from_metrics(ctx.metrics, flops=flops)

    one, two = run(1), run(2)
    steady = two - one
    setup = one - steady
    e = CONFIG.emulate_iterations
    stats = (setup + steady * e) * (1.0 / e)
    stats = stats.scaled(get_spec(DATASET).nnz / tensor.nnz)
    model = CostModel(CONFIG.profile)
    return [model.estimate(stats, n, "spark").total_s
            for n in NODE_COUNTS]


def test_extension_variant_comparison(benchmark):
    def measure():
        series = {
            "cstf-coo": runtime_sweep("cstf-coo", DATASET),
            "cstf-qcoo": runtime_sweep("cstf-qcoo", DATASET),
            "coo-broadcast": _broadcast_sweep(),
            "bigtensor": runtime_sweep("bigtensor", DATASET),
        }
        return series

    series = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = format_series(
        "Extension: all variants on delicious3d (modelled seconds at "
        "paper scale)", "nodes", list(NODE_COUNTS), series)
    text += ("\n\nCaveat: the broadcast line is optimistic — at R=2 the "
             "replicated factors are small, and the cost model prices "
             "neither the driver-side collect bottleneck nor the "
             "replicated memory footprint; both grow linearly in R and "
             "mode sizes, which is why CSTF (and DMS/SPLATT) avoid "
             "full replication at scale.")
    report("extension_variants", text)

    for alg, secs in series.items():
        assert all(s > 0 for s in secs), alg
        assert secs[-1] < secs[0], alg
    # every CSTF variant beats the Hadoop baseline at every size
    for i in range(len(NODE_COUNTS)):
        for alg in ("cstf-coo", "cstf-qcoo", "coo-broadcast"):
            assert series[alg][i] < series["bigtensor"][i]