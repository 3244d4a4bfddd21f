"""Benchmark suite configuration."""

from __future__ import annotations

import sys
import pathlib

# make the local helper importable when pytest is invoked from the repo root
sys.path.insert(0, str(pathlib.Path(__file__).parent))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: artifact stem -> the experiment it regenerates
EXPERIMENT_INDEX = {
    "table4": "Table 4 — MTTKRP cost comparison",
    "table4_intermediate": "Table 4 — intermediate data per round",
    "table5": "Table 5 — dataset summary",
    "fig2a_delicious3d": "Figure 2(a) — 3rd-order runtime, delicious3d",
    "fig2b_nell1": "Figure 2(b) — 3rd-order runtime, nell1",
    "fig2c_synt3d": "Figure 2(c) — 3rd-order runtime, synt3d",
    "fig3a_delicious4d": "Figure 3(a) — 4th-order runtime, delicious4d",
    "fig3b_flickr": "Figure 3(b) — 4th-order runtime, flickr",
    "fig4a_delicious3d": "Figure 4(a) — remote shuffle bytes, delicious3d",
    "fig4a_flickr": "Figure 4(a) — remote shuffle bytes, flickr",
    "fig4b_delicious3d": "Figure 4(b) — local shuffle bytes, delicious3d",
    "fig4b_flickr": "Figure 4(b) — local shuffle bytes, flickr",
    "fig5a_nell1": "Figure 5(a) — per-mode MTTKRP, nell1",
    "fig5b_delicious3d": "Figure 5(b) — per-mode MTTKRP, delicious3d",
    "headline_speedups": "Abstract — speedup claims",
    "headline_communication": "Abstract — communication reduction",
    "ablation_caching": "Ablation — raw vs serialized caching (§4.1)",
    "ablation_gram": "Ablation — gram reuse (§4.2)",
    "ablation_partitioning": "Ablation — nonzero partitioning (§6.6)",
    "ablation_partition_count": "Ablation — partition count",
    "ablation_order": "Ablation — QCOO saving vs order (§5)",
    "ablation_broadcast": "Ablation — factor replication",
    "ablation_combine": "Ablation — map-side combining",
    "backend_scaling": "Backend scaling — serial vs process-pool executors",
    "extension_variants": "Extension — all variants, Figure 2(a) panel",
    "extension_weak_scaling": "Extension — weak scaling",
    "extension_rank_sweep": "Extension — rank sensitivity",
    "sampled_mttkrp": "Extension — CP-ARLS-LEV sampled MTTKRP",
}


def pytest_sessionfinish(session, exitstatus):
    """Write benchmarks/results/INDEX.md mapping artifacts to the
    experiments they regenerate."""
    if not RESULTS_DIR.exists():
        return
    lines = ["# Regenerated experiment artifacts", ""]
    for path in sorted(RESULTS_DIR.glob("*.txt")):
        title = EXPERIMENT_INDEX.get(path.stem, path.stem)
        lines.append(f"* [`{path.name}`]({path.name}) — {title}")
    (RESULTS_DIR / "INDEX.md").write_text("\n".join(lines) + "\n")
