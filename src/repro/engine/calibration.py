"""Cost-model calibration against observed runtimes.

The default :class:`~repro.engine.costmodel.HardwareProfile` encodes
Comet-era constants.  When a user has *real* measurements — e.g. a few
(algorithm, cluster size, seconds) points from their own Spark cluster —
the model should adapt.  The estimate decomposes into four resource
terms (compute, network, synchronisation latency, disk/startup), each
linear in a per-term multiplier, so calibration is a non-negative least
squares fit:

    T_obs(point) ~ a * compute + b * network + c * latency + d * hadoop

Multipliers near 1 mean the default profile already matches the
hardware; the returned :class:`CalibratedCostModel` applies them to
every estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import COMET, CostModel, HardwareProfile, RunStats, TimeBreakdown


@dataclass(frozen=True)
class CalibrationPoint:
    """One observed runtime: the measured dataflow statistics, the
    cluster size it ran on, and the wall-clock seconds observed."""

    stats: RunStats
    num_nodes: int
    observed_s: float
    mode: str = "spark"


@dataclass(frozen=True)
class TermMultipliers:
    """Per-resource scale factors produced by calibration."""

    compute: float = 1.0
    network: float = 1.0
    latency: float = 1.0
    hadoop: float = 1.0


class CalibratedCostModel(CostModel):
    """A cost model whose term magnitudes were fit to observations."""

    def __init__(self, profile: HardwareProfile = COMET,
                 multipliers: TermMultipliers = TermMultipliers()):
        super().__init__(profile)
        self.multipliers = multipliers

    def estimate(self, stats: RunStats, num_nodes: int,
                 mode: str = "spark") -> TimeBreakdown:
        base = super().estimate(stats, num_nodes, mode)
        m = self.multipliers
        return TimeBreakdown(
            compute_s=base.compute_s * m.compute,
            network_s=base.network_s * m.network,
            round_latency_s=base.round_latency_s * m.latency,
            job_latency_s=base.job_latency_s * m.latency,
            disk_s=base.disk_s * m.hadoop,
            startup_s=base.startup_s * m.hadoop,
            components=base.components)


def _term_vector(model: CostModel, point: CalibrationPoint) -> np.ndarray:
    t = CostModel.estimate(model, point.stats, point.num_nodes,
                           point.mode)
    return np.array([t.compute_s, t.network_s,
                     t.round_latency_s + t.job_latency_s,
                     t.disk_s + t.startup_s])


def calibrate(points: list[CalibrationPoint],
              profile: HardwareProfile = COMET) -> CalibratedCostModel:
    """Fit non-negative per-term multipliers to the observations.

    Terms that never appear in the observations (e.g. the hadoop term
    for spark-only points) keep multiplier 1.  At least one point is
    required; more points than active terms give a least-squares fit.
    """
    if not points:
        raise ValueError("need at least one calibration point")
    base = CostModel(profile)
    design = np.array([_term_vector(base, p) for p in points])
    target = np.array([p.observed_s for p in points])
    if (target <= 0).any():
        raise ValueError("observed runtimes must be positive")

    active = design.sum(axis=0) > 0
    multipliers = np.ones(4)
    if active.any():
        # imported where it is called: every driver and every pool
        # worker imports this package, none of them calibrates, and
        # scipy.optimize is half of that import's time
        from scipy.optimize import nnls
        solution, _residual = nnls(design[:, active], target)
        multipliers[active] = solution
    return CalibratedCostModel(profile, TermMultipliers(
        compute=float(multipliers[0]),
        network=float(multipliers[1]),
        latency=float(multipliers[2]),
        hadoop=float(multipliers[3])))
