"""Command-line interface: ``python -m repro <command>``.

Nine subcommands cover the library's main entry points without writing
code:

``datasets``
    Print the Table 5 registry (published characteristics).
``decompose``
    Factorize a dataset analogue or a FROSTT ``.tns`` file with a chosen
    algorithm and print fit/communication statistics.
``communication``
    The Figure 4 experiment: per-phase remote/local shuffle volume of
    COO vs QCOO on one dataset.
``sweep``
    The Figure 2/3 experiment: measured dataflow priced across a node
    sweep for one dataset.
``ranksweep``
    Fit against rank with local CP-ALS, plus CORCONDIA per rank.
``advise``
    Profile a tensor's structure and recommend COO or QCOO.
``report``
    Run the full evaluation and emit it as markdown.
``lint``
    Dataflow lint: closure, leak, determinism and plan checks.
``plan``
    Export and audit the job plan graphs a program builds."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from .analysis import (MeasurementConfig, format_series, format_table,
                       qcoo_savings)
from .analysis.experiments import (NODE_COUNTS, execution_mode,
                                   make_context, make_driver, paper_scale,
                                   per_iteration_stats)
from .datasets import DATASETS, get_spec, make_dataset
from .engine import CostModel, EngineConf, EngineError, StorageLevel
from .engine.conf import check, resolve
from .tensor import read_tns

ALGORITHMS = ("cstf-coo", "cstf-qcoo", "bigtensor")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSTF reproduction (ICPP 2018) command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table 5 dataset registry")

    dec = sub.add_parser("decompose", help="run a CP decomposition")
    dec.add_argument("--dataset", choices=sorted(DATASETS),
                     default="nell1")
    dec.add_argument("--tns", metavar="FILE",
                     help="FROSTT .tns file (overrides --dataset)")
    dec.add_argument("--algorithm", choices=ALGORITHMS,
                     default="cstf-qcoo")
    dec.add_argument("--rank", type=int, default=2)
    dec.add_argument("--iterations", type=int, default=10)
    dec.add_argument("--nnz", type=int, default=5000,
                     help="analogue size when using --dataset")
    dec.add_argument("--nodes", type=int, default=8)
    dec.add_argument("--partitions", type=int, default=None)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--regularization", type=float, default=0.0)
    dec.add_argument("--nonnegative", action="store_true")
    dec.add_argument("--storage-level",
                     choices=[lvl.value for lvl in StorageLevel],
                     default=StorageLevel.MEMORY_RAW.value,
                     help="persistence level for the tensor RDD "
                          "(memory_and_disk* levels demote to disk "
                          "under cache pressure)")
    dec.add_argument("--cache-budget", type=int, default=None,
                     metavar="BYTES",
                     help="per-node cache capacity; undersizing it "
                          "forces eviction/demotion")
    dec.add_argument("--memory-budget", type=int, default=None,
                     metavar="BYTES",
                     help="per-node unified memory (execution + "
                          "storage); undersizing it forces shuffle "
                          "aggregation to spill")
    dec.add_argument("--backend", default=None,
                     help="executor backend running stage tasks: "
                          "'serial' (one after another, the default) or "
                          "'process' (a worker-process pool computing "
                          "columnar batches over shared memory); "
                          "bit-identical.  "
                          "Defaults to $REPRO_BACKEND, then 'serial'")
    dec.add_argument("--backend-workers", type=int, default=None,
                     metavar="N",
                     help="process backend worker count (default: "
                          "$REPRO_BACKEND_WORKERS, then min(8, cpus))")
    dec.add_argument("--kernel", default=None,
                     help="partition-level MTTKRP kernel: 'vectorized' "
                          "(ndarray batches, the default) or 'record' "
                          "(per-record closures; bit-identical "
                          "results).  Defaults to $REPRO_KERNEL, then "
                          "'vectorized'")
    dec.add_argument("--sampler", default=None,
                     help="MTTKRP estimator: 'exact' (every nonzero, "
                          "the default) or 'lev' (CP-ARLS-LEV "
                          "leverage-score sampling — unbiased, "
                          "sublinear in nnz, bit-identical across "
                          "backends at a fixed seed; the reported fit "
                          "is an estimate).  Defaults to "
                          "$REPRO_SAMPLER, then 'exact'")
    dec.add_argument("--sample-count", type=int, default=None,
                     metavar="S",
                     help="nonzeros drawn per partition per MTTKRP "
                          "under --sampler lev (default: "
                          "$REPRO_SAMPLE_COUNT, then 1024)")
    dec.add_argument("--speculation", action="store_true", default=False,
                     help="cancel task attempts running past a "
                          "multiple of their stage's median runtime and "
                          "run a backup attempt on another node "
                          "(bit-identical either way).  "
                          "Defaults to $REPRO_SPECULATION, then off")
    dec.add_argument("--task-deadline", type=float, default=None,
                     metavar="SECONDS", dest="task_deadline_s",
                     help="hard per-attempt deadline: overrunning "
                          "attempts are abandoned at a cooperative "
                          "checkpoint and retried on another node.  "
                          "Defaults to $REPRO_TASK_DEADLINE_S, then "
                          "no deadline")
    dec.add_argument("--retry-backoff", type=float, default=None,
                     metavar="SECONDS",
                     help="base seeded-jitter exponential backoff "
                          "before task retries (default 0.01; 0 "
                          "disables sleeping)")
    dec.add_argument("--quarantine-threshold", type=float, default=None,
                     metavar="SCORE",
                     help="decayed per-node failure/straggle score at "
                          "which a node is temporarily quarantined "
                          "from placement (default: disabled)")
    dec.add_argument("--clock", default=None,
                     help="engine time source: 'monotonic' (real time, "
                          "the default) or 'virtual' (sleeps advance a "
                          "counter — simulated time).  Defaults to "
                          "$REPRO_CLOCK, then 'monotonic'")
    dec.add_argument("--integrity", action="store_true", default=False,
                     help="enable the end-to-end data-integrity layer: "
                          "CRC-32 checksums on shuffle blocks, "
                          "broadcasts, cached/spilled blobs and "
                          "checkpoint shards, verified on every read; "
                          "detected corruption heals by lineage "
                          "recomputation.  Defaults to "
                          "$REPRO_INTEGRITY, then off")
    dec.add_argument("--corrupt-block-prob", type=float, default=0.0,
                     metavar="P",
                     help="fault injection: per-read probability of "
                          "flipping one byte in a checksummed blob "
                          "(shuffle/broadcast/cache/spill); needs "
                          "--integrity to be detected")
    dec.add_argument("--torn-write-prob", type=float, default=0.0,
                     metavar="P",
                     help="fault injection: per-checkpoint probability "
                          "of truncating one shard after commit "
                          "(detected and healed on resume)")
    dec.add_argument("--fault-seed", type=int, default=0,
                     help="seed for the site-seeded fault injection "
                          "draws (corruption, torn writes)")

    comm = sub.add_parser("communication",
                          help="Figure 4: COO vs QCOO shuffle volume")
    comm.add_argument("--dataset", choices=sorted(DATASETS),
                      default="delicious3d")
    comm.add_argument("--nnz", type=int, default=8000)
    comm.add_argument("--nodes", type=int, default=8)

    sweep = sub.add_parser("sweep",
                           help="Figure 2/3: runtime vs cluster size")
    sweep.add_argument("--dataset", choices=sorted(DATASETS),
                       default="nell1")
    sweep.add_argument("--algorithms", nargs="+", choices=ALGORITHMS,
                       default=["cstf-coo", "cstf-qcoo"])
    sweep.add_argument("--nnz", type=int, default=8000)
    sweep.add_argument("--node-counts", nargs="+", type=int,
                       default=list(NODE_COUNTS))

    rs = sub.add_parser("ranksweep",
                        help="fit-vs-rank elbow + CORCONDIA")
    rs.add_argument("--dataset", choices=sorted(DATASETS),
                    default="nell1")
    rs.add_argument("--tns", metavar="FILE")
    rs.add_argument("--ranks", nargs="+", type=int,
                    default=[1, 2, 3, 4, 5])
    rs.add_argument("--iterations", type=int, default=15)
    rs.add_argument("--nnz", type=int, default=3000)
    rs.add_argument("--seed", type=int, default=0)

    adv = sub.add_parser("advise",
                         help="suggest a CSTF variant for a tensor")
    adv.add_argument("--dataset", choices=sorted(DATASETS),
                     default="nell1")
    adv.add_argument("--tns", metavar="FILE")
    adv.add_argument("--nnz", type=int, default=5000)
    adv.add_argument("--nodes", type=int, default=8)
    adv.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("report",
                         help="run the full evaluation, emit markdown")
    rep.add_argument("--nnz", type=int, default=6000)
    rep.add_argument("--out", metavar="FILE",
                     help="write to a file instead of stdout")

    lint = sub.add_parser(
        "lint", help="dataflow lint: closure, leak, determinism and "
                     "plan checks")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to scan statically "
                           "(closure + determinism rules)")
    lint.add_argument("--run", metavar="PROG",
                      help="execute PROG under the dynamic lint "
                           "session (closure + lifecycle hooks)")
    lint.add_argument("--args", nargs=argparse.REMAINDER, default=[],
                      help="arguments passed through to PROG")
    lint.add_argument("--plan", action="store_true", dest="plan",
                      help="with --run: audit every job's plan graph "
                           "before it executes (schema mismatches, "
                           "block churn, uncached reuse, redundant "
                           "shuffles); PROG's source also gets the "
                           "determinism rules")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit findings as JSON")

    plan = sub.add_parser(
        "plan", help="export and audit job plan graphs (no tasks run "
                     "beyond the program's own)")
    plan.add_argument("prog", metavar="PROG",
                      help="program to execute under the plan auditor")
    plan.add_argument("--args", nargs=argparse.REMAINDER, default=[],
                      help="arguments passed through to PROG")
    plan.add_argument("--explain", action="store_true",
                      help="print each job's full plan graph (schema, "
                           "partitioner, storage level per RDD)")
    return parser


def _cmd_datasets() -> int:
    rows = [[s.name, s.order, s.max_mode_size, s.nnz, s.density,
             s.description[:48]] for s in DATASETS.values()]
    print(format_table(
        ["dataset", "order", "max mode", "nnz", "density", "description"],
        rows, title="Table 5: evaluation datasets (published values)"))
    return 0


#: env-backed conf field -> the decompose flag that sets it
_CONF_FLAGS = {"backend": "--backend", "backend_workers": "--backend-workers",
               "kernel": "--kernel", "sampler": "--sampler",
               "sample_count": "--sample-count", "clock": "--clock",
               "task_deadline_s": "--task-deadline"}


def _engine_conf(args: argparse.Namespace) -> EngineConf:
    """The decompose flags as a resolved conf: each env-backed flag is
    validated by :func:`~repro.engine.conf.check` under its own name,
    then the environment fills what the flags leave unset.  Raises
    :class:`~repro.engine.errors.EngineError` naming the flag or the
    variable at fault."""
    conf = EngineConf(cache_capacity_bytes=args.cache_budget,
                      memory_total_bytes=args.memory_budget,
                      speculation=args.speculation or None,
                      quarantine_threshold=args.quarantine_threshold,
                      integrity=args.integrity or None,
                      **{field: check(field, getattr(args, field), flag)
                         for field, flag in _CONF_FLAGS.items()
                         if getattr(args, field) is not None})
    if args.retry_backoff is not None:
        conf = replace(conf, retry_backoff_base_s=args.retry_backoff)
    return resolve(conf)


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        conf = _engine_conf(args)
    except EngineError as exc:
        print(f"repro decompose: error: {exc}", file=sys.stderr)
        return 2
    if args.tns:
        tensor = read_tns(args.tns).deduplicate()
        source = args.tns
    else:
        tensor = make_dataset(args.dataset, args.nnz, args.seed)
        source = f"{args.dataset} analogue"
    print(f"tensor    : {tensor}  ({source})")

    config = MeasurementConfig(
        rank=args.rank, measure_nodes=args.nodes,
        partitions=args.partitions or 4 * args.nodes, seed=args.seed)
    fault_plan = None
    if args.corrupt_block_prob or args.torn_write_prob:
        from .engine.faults import FaultPlan
        fault_plan = FaultPlan(seed=args.fault_seed,
                               corrupt_block_prob=args.corrupt_block_prob,
                               torn_write_prob=args.torn_write_prob)
    ctx = make_context(args.algorithm, config, conf=conf,
                       fault_plan=fault_plan)
    driver = make_driver(args.algorithm, ctx, config)
    driver.regularization = args.regularization
    driver.nonnegative = args.nonnegative
    driver.storage_level = StorageLevel(args.storage_level)
    result = driver.decompose(
        tensor, args.rank, max_iterations=args.iterations,
        seed=args.seed)

    print(f"algorithm : {result.algorithm}")
    fit_kind = " [sampled estimate]" if result.fit_is_estimate else ""
    print(f"fit       : {result.final_fit:.6f}{fit_kind} "
          f"({'converged' if result.converged else 'max iterations'} "
          f"after {len(result.iterations)} iterations)")
    read = ctx.metrics.total_shuffle_read()
    print(f"shuffles  : {ctx.metrics.total_shuffle_rounds()} rounds, "
          f"{read.remote_bytes:,} remote B, {read.local_bytes:,} local B")
    print(ctx.metrics.summary())
    ctx.stop()
    return 0


def _cmd_communication(args: argparse.Namespace) -> int:
    config = MeasurementConfig(target_nnz=args.nnz,
                               measure_nodes=args.nodes,
                               partitions=4 * args.nodes)
    summary, coo, qcoo = qcoo_savings(args.dataset, config)
    order = get_spec(args.dataset).order
    phases = [f"MTTKRP-{m}" for m in range(1, order + 1)] + ["Other"]
    coo_map, qcoo_map = coo.phase_map(), qcoo.phase_map()
    rows = []
    for p in phases:
        c, q = coo_map.get(p), qcoo_map.get(p)
        rows.append([p, c.remote_bytes if c else 0,
                     q.remote_bytes if q else 0,
                     c.local_bytes if c else 0,
                     q.local_bytes if q else 0])
    print(format_table(
        ["phase", "COO remote", "QCOO remote", "COO local", "QCOO local"],
        rows, title=f"Figure 4: shuffle bytes per phase on {args.dataset} "
                    f"({args.nodes} nodes, one steady iteration)"))
    print(f"\nQCOO reduction: remote bytes "
          f"{summary.remote_bytes_reduction:.1%}, local bytes "
          f"{summary.local_bytes_reduction:.1%}, remote records "
          f"{summary.remote_records_reduction:.1%}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = MeasurementConfig(target_nnz=args.nnz)
    tensor = make_dataset(args.dataset, config.target_nnz, config.seed)
    model = CostModel(config.profile)
    series = {}
    for alg in args.algorithms:
        if alg == "bigtensor" and tensor.order != 3:
            print(f"skipping bigtensor: supports 3rd-order only "
                  f"(dataset is order {tensor.order})", file=sys.stderr)
            continue
        stats = paper_scale(per_iteration_stats(alg, tensor, config),
                            tensor, args.dataset)
        series[alg] = [model.estimate(stats, n, execution_mode(alg)).total_s
                       for n in args.node_counts]
    print(format_series(
        f"per-iteration runtime on {args.dataset} at published scale "
        "(modelled)", "nodes", args.node_counts, series))
    return 0


def _load_tensor(args: argparse.Namespace):
    if getattr(args, "tns", None):
        return read_tns(args.tns).deduplicate(), args.tns
    tensor = make_dataset(args.dataset, args.nnz, args.seed)
    return tensor, f"{args.dataset} analogue"


def _cmd_ranksweep(args: argparse.Namespace) -> int:
    from .analysis.diagnostics import corcondia, rank_sweep, suggest_rank
    tensor, source = _load_tensor(args)
    print(f"tensor : {tensor}  ({source})")
    sweep = rank_sweep(tensor, args.ranks,
                       max_iterations=args.iterations, seed=args.seed)
    rows = [[rank, fit, corcondia(tensor, model)]
            for rank, fit, model in sweep]
    print(format_table(["rank", "fit", "corcondia"], rows,
                       title="rank sweep (local CP-ALS)"))
    print(f"\nsuggested rank (fit elbow): {suggest_rank(sweep)}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .tensor.stats import profile_tensor, recommend_algorithm
    tensor, source = _load_tensor(args)
    prof = profile_tensor(tensor)
    print(f"tensor : {tensor}  ({source})")
    print(f"skew (gini) per mode     : "
          + ", ".join(f"{g:.2f}" for g in prof.skew))
    print(f"fiber collapse per mode  : "
          + ", ".join(f"{c:.2f}" for c in prof.collapse))
    rec = recommend_algorithm(tensor, cluster_nodes=args.nodes)
    print(f"\nrecommended variant on {args.nodes} nodes: {rec.algorithm}")
    for reason in rec.reasons:
        print(f"  - {reason}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import LintReport, LintSession, run_program, scan_paths
    report = LintReport()
    if not args.paths and not args.run:
        print("repro lint: nothing to do (give PATHs to scan and/or "
              "--run PROG)", file=sys.stderr)
        return 2
    if args.paths:
        scan_paths(args.paths, report)
    if args.run:
        if args.plan:
            # the executed program's closures are analysed at runtime;
            # its source gets the determinism rules only
            scan_paths([args.run], report, closure_checks=False)
        session = LintSession(plan=args.plan)
        with session:
            run_program(args.run, list(args.args), session=session)
        report.merge(session.report)
        if session.plan_auditor is not None:
            print(f"plan: {session.plan_auditor.summary()}",
                  file=sys.stderr)
    if args.as_json:
        print(report.render_json())
    else:
        print(report.render_text())
    if report.errors():
        return 1
    if args.strict and report.warnings():
        return 1
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .lint import LintSession, run_program
    session = LintSession(plan=True, keep_plans=True)
    with session:
        run_program(args.prog, list(args.args), session=session)
    auditor = session.plan_auditor
    assert auditor is not None
    for index, (description, graph) in enumerate(session.plans, 1):
        print(f"== job {index}: {description} "
              f"(root rdd {graph.root}, {len(graph.nodes)} RDDs) ==")
        print(graph.render(explain=args.explain))
        print()
    findings = auditor.report
    print(f"plan audit: {auditor.summary()}")
    if findings:
        print(findings.render_text())
    return 1 if findings.errors() else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "decompose":
        return _cmd_decompose(args)
    if args.command == "communication":
        return _cmd_communication(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "ranksweep":
        return _cmd_ranksweep(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "report":
        from .analysis.report import generate_report
        text = generate_report(MeasurementConfig(target_nnz=args.nnz))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
