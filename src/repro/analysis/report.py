"""Self-contained experiment report generation.

``generate_report`` runs the full evaluation (Table 4, Table 5, the
Figure 2/3 sweeps, Figure 4 communication, Figure 5 per-mode behaviour)
through the public harness and renders one markdown document with
paper-vs-measured numbers — the programmatic equivalent of the
benchmark suite, callable as ``python -m repro report``.
"""

from __future__ import annotations

from ..datasets.registry import FOURTH_ORDER, THIRD_ORDER
from ..datasets.synthetic import make_dataset
from .communication import qcoo_savings
from .complexity import measured_mttkrp_rounds, theoretical_cost
from .experiments import (MeasurementConfig, mode_runtime_series,
                          run_and_measure, runtime_series)
from .reporting import format_table

#: paper claims quoted in the rendered report
PAPER = {
    "table4": {"bigtensor": 4, "cstf-coo": 3, "cstf-qcoo": 2},
    "fig4_remote": {"delicious3d": 0.35, "flickr": 0.31},
}


def _section_table4(config: MeasurementConfig) -> str:
    tensor = make_dataset("synt3d", config.target_nnz, config.seed)
    rows = []
    for alg in ("bigtensor", "cstf-coo", "cstf-qcoo"):
        _, m1 = run_and_measure(alg, tensor, 1, config)
        _, m2 = run_and_measure(alg, tensor, 2, config)
        steady = (measured_mttkrp_rounds(m2, 3, 1)[1]
                  - measured_mttkrp_rounds(m1, 3, 1)[1])
        theory = theoretical_cost(alg, 3, tensor.nnz, config.rank,
                                  shape=tensor.shape)
        rows.append([alg, theory.shuffles, steady,
                     "yes" if steady == theory.shuffles else "NO"])
    return format_table(
        ["algorithm", "shuffles (paper)", "shuffles (measured)",
         "match"], rows,
        title="## Table 4 — shuffles per mode-1 MTTKRP")


def _section_runtimes(config: MeasurementConfig) -> str:
    lines = ["## Figures 2 and 3 — runtime sweeps (modelled seconds)"]
    for dataset in THIRD_ORDER:
        series = runtime_series(
            dataset, ("cstf-coo", "cstf-qcoo", "bigtensor"), config)
        rows = []
        for i, n in enumerate(series.node_counts):
            rows.append([n] + [series.seconds[a][i] for a in
                               series.algorithms])
        lines.append(format_table(
            ["nodes"] + list(series.algorithms), rows,
            title=f"### {dataset}"))
        big = series.speedup("bigtensor", "cstf-coo")
        lines.append(f"BIG/COO speedup {min(big):.1f}-{max(big):.1f}x "
                     "(paper band 2.2-6.9x)")
    for dataset in FOURTH_ORDER:
        series = runtime_series(dataset, ("cstf-coo", "cstf-qcoo"),
                                config)
        gain = series.speedup("cstf-coo", "cstf-qcoo")
        lines.append(f"### {dataset}: COO->QCOO "
                     f"{min(gain):.2f}-{max(gain):.2f}x")
    return "\n\n".join(lines)


def _section_communication(config: MeasurementConfig) -> str:
    rows = []
    for dataset, paper in PAPER["fig4_remote"].items():
        summary, _c, _q = qcoo_savings(dataset, config)
        rows.append([dataset, f"{paper:.0%}",
                     f"{summary.remote_bytes_reduction:.1%}",
                     f"{summary.remote_records_reduction:.1%}"])
    return format_table(
        ["dataset", "paper", "bytes reduction", "records reduction"],
        rows, title="## Figure 4 — QCOO remote communication reduction")


def _section_modes(config: MeasurementConfig) -> str:
    ms = mode_runtime_series("nell1", ("cstf-coo", "cstf-qcoo"),
                             config, num_nodes=4)
    rows = [[f"mode {m + 1}", ms.seconds["cstf-coo"][m],
             ms.seconds["cstf-qcoo"][m]] for m in range(3)]
    return format_table(
        ["mode", "cstf-coo (s)", "cstf-qcoo (s)"], rows,
        title="## Figure 5 — per-mode MTTKRP on nell1, 4 nodes "
              "(iteration 1)")


def _section_memory(config: MeasurementConfig) -> str:
    """Graceful degradation: rerun CP-ALS with the cache budget squeezed
    below the tensor RDD's footprint and show the run still produces the
    identical fit, paying for it in demotions and disk spill."""
    from ..engine.conf import EngineConf
    from ..engine.storage import StorageLevel
    from .experiments import make_context, make_driver

    tensor = make_dataset("synt3d", min(config.target_nnz, 3000),
                          config.seed)

    def run(conf: EngineConf | None, level: StorageLevel):
        ctx = make_context("cstf-qcoo", config, conf=conf)
        driver = make_driver("cstf-qcoo", ctx, config)
        driver.storage_level = level
        result = driver.decompose(tensor, config.rank, max_iterations=3,
                                  tol=0.0, seed=config.seed)
        mem = ctx.metrics.memory
        ctx.stop()
        return result.final_fit, mem

    fit_free, mem_free = run(None, StorageLevel.MEMORY_RAW)
    budget = max(1, mem_free.storage_peak_bytes // 4)
    fit_tight, mem_tight = run(EngineConf(cache_capacity_bytes=budget),
                               StorageLevel.MEMORY_AND_DISK)

    rows = [
        ["cache budget (B)", "unbounded", f"{budget:,}"],
        ["final fit", f"{fit_free:.6f}", f"{fit_tight:.6f}"],
        ["storage peak (B)", f"{mem_free.storage_peak_bytes:,}",
         f"{mem_tight.storage_peak_bytes:,}"],
        ["spill bytes", f"{mem_free.spill_bytes:,}",
         f"{mem_tight.spill_bytes:,}"],
        ["demotions", mem_free.demotions, mem_tight.demotions],
    ]
    verdict = ("identical" if fit_free == fit_tight
               else "DIVERGED")
    return format_table(
        ["metric", "unconstrained", "constrained"], rows,
        title="## Memory pressure — QCOO under a squeezed cache "
              f"budget (fits {verdict})")


def generate_report(config: MeasurementConfig | None = None) -> str:
    """Run the evaluation and render the full markdown report."""
    config = config or MeasurementConfig(target_nnz=6000)
    sections = [
        "# CSTF reproduction report",
        f"Analogue size: {config.target_nnz:,} nonzeros; R = "
        f"{config.rank}; measurement cluster {config.measure_nodes} "
        f"nodes / {config.partitions} partitions.",
        _section_table4(config),
        _section_runtimes(config),
        _section_communication(config),
        _section_modes(config),
        _section_memory(config),
    ]
    return "\n\n".join(sections) + "\n"
