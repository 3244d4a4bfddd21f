"""The four benchmark workloads and the geometry they share.

Importing this module imports nothing from ``repro``: ``run.py`` reads
the names here before it has put ``src`` on the child's path.  The
functions that build inputs and drivers import ``repro`` when called,
which happens only inside the measured child process.
"""

from __future__ import annotations

from dataclasses import dataclass

#: cluster geometry every workload runs on
NUM_NODES = 8
NUM_PARTITIONS = 32

#: nonzeros every layer probe is cut down to
PROBE_NNZ = 50_000

#: target nnz of every tensor under ``--quick``
QUICK_NNZ = 10_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a tensor recipe, a driver and its conf."""

    name: str
    why: str
    #: ``"coo"`` or ``"qcoo"``
    driver: str
    #: ``make_dataset`` name, or ``"lowrank"`` for the planted model
    dataset: str
    target_nnz: int
    rank: int
    #: timed iterations per repetition (each repetition runs ``1 + k``)
    k: int
    factor_strategy: str = "join"
    backend: str = "serial"
    backend_workers: int | None = None
    sampler: str = "exact"
    sample_count: int | None = None

    def make_tensor(self, seed: int, quick: bool):
        """The workload's tensor, a function of ``seed`` only."""
        nnz = QUICK_NNZ if quick else self.target_nnz
        if self.dataset == "lowrank":
            from repro.tensor import low_rank_sparse
            tensor, _planted = low_rank_sparse(
                (300, 300, 300), nnz, 4, noise=0.1, rng=seed)
            return tensor
        from repro.datasets import make_dataset
        return make_dataset(self.dataset, nnz, seed)

    def make_conf(self):
        """Every knob named, so no ``REPRO_*`` default can leak in."""
        from repro.engine import EngineConf
        return EngineConf(
            backend=self.backend, backend_workers=self.backend_workers,
            kernel="vectorized", clock="monotonic", integrity=False,
            speculation=False, sampler=self.sampler,
            sample_count=self.sample_count)

    def make_context(self):
        """A fresh context on the shared geometry."""
        from repro.engine import Context
        return Context(num_nodes=NUM_NODES,
                       default_parallelism=NUM_PARTITIONS,
                       conf=self.make_conf())

    def make_driver(self, ctx):
        """The CP-ALS driver this workload measures."""
        from repro.core import CstfCOO, CstfQCOO
        if self.driver == "qcoo":
            return CstfQCOO(ctx, NUM_PARTITIONS)
        return CstfCOO(ctx, NUM_PARTITIONS,
                       factor_strategy=self.factor_strategy)

    def expected_shuffle_rounds(self, driver, order: int,
                                iterations: int) -> int:
        """Table 4's count for ``iterations`` iterations of ``driver``."""
        if self.sampler == "lev":
            return iterations * order
        rounds = iterations * order * driver.shuffles_per_mttkrp(order)
        if self.driver == "qcoo":
            rounds += order - 1   # the queue is built by N-1 joins
        return rounds


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="coo3-join",
        why="paper's headline CSTF-COO join dataflow: N shuffles per "
            "MTTKRP of thin records, so shuffle, sizing, hashing and "
            "cogroup dominate and kernels do almost nothing",
        driver="coo", dataset="delicious3d", target_nnz=100_000,
        rank=2, k=3),
    Workload(
        name="qcoo4-join",
        why="CSTF-QCOO on a 4th-order tensor: 2 shuffles per MTTKRP of "
            "fat records carrying ndarray queues, so a change tuned "
            "for tuples of ints that costs ndarray records shows here",
        driver="qcoo", dataset="flickr", target_nnz=60_000,
        rank=2, k=3),
    Workload(
        name="bcast3-kernel",
        why="broadcast strategy at 1e6 nnz and R=16: columnar blocks, "
            "no joins, kernels dominate; bypasses join and shuffle "
            "optimisations (prediction: no change)",
        driver="coo", dataset="lowrank", target_nnz=1_000_000,
        rank=16, k=6, factor_strategy="broadcast"),
    Workload(
        name="lev3-pool",
        why="CP-ARLS-LEV sampling on the process backend: cost "
            "independent of nnz, many short tasks, so scheduler, pool "
            "and driver-side overheads dominate",
        driver="coo", dataset="lowrank", target_nnz=1_000_000,
        rank=4, k=10, factor_strategy="broadcast",
        backend="process", backend_workers=2,
        sampler="lev", sample_count=4096),
)}
