"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Generate (or load) a dataset and print its statistics.
``generate-data``
    Materialize a synthetic BK/FS-like world as SNAP-format files.
``assign``
    Run the assignment algorithms on one day and print the metric table.
``sweep``
    Run a paper-style parameter sweep (comparison or ablation) and print
    the per-figure series; optionally save JSON/CSV.
``seeds``
    Greedy influence-maximization seed selection over the social network.
``stream``
    Play one day (or, with ``--days N``, a multi-day horizon with
    overnight relocation and churn) as an event stream through the
    micro-batched :class:`~repro.stream.StreamRuntime` and print
    latency/throughput metrics; supports checkpointing/resuming runs and
    latency-budget admission control (``--admission-budget/-policy``).

Every command accepts ``--world bk|fs --scale S --seed N`` to pick the
synthetic world, or ``--snap-dir DIR`` to read SNAP-format files instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.data import (
    CheckInDataset,
    InstanceBuilder,
    brightkite_like,
    foursquare_like,
    generate_dataset,
    load_dataset_from_snap,
)
from repro.framework.config import PipelineConfig


#: Assignment algorithms offered by ``assign`` and ``stream``.
ASSIGNER_NAMES = ("MTA", "IA", "EIA", "DIA", "MI", "NN")


def _assigner_registry() -> dict[str, type]:
    from repro.assignment import (
        DIAAssigner,
        EIAAssigner,
        IAAssigner,
        MIAssigner,
        MTAAssigner,
        NearestNeighborAssigner,
    )

    return {
        "MTA": MTAAssigner,
        "IA": IAAssigner,
        "EIA": EIAAssigner,
        "DIA": DIAAssigner,
        "MI": MIAssigner,
        "NN": NearestNeighborAssigner,
    }


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--world", choices=("bk", "fs"), default="bk",
                        help="synthetic world family (default: bk)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="population scale factor (default: 0.1)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument("--snap-dir", type=Path, default=None,
                        help="load SNAP files (edges.txt/checkins.txt/"
                             "categories.txt) from this directory instead")


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topics", type=int, default=20, help="LDA topics")
    parser.add_argument("--rrr-sets", type=int, default=20_000,
                        help="fixed RRR sample count")
    parser.add_argument("--rpo", action="store_true",
                        help="use the RPO bounds instead of fixed sampling")
    parser.add_argument("--affinity", choices=("lda", "tfidf"), default="lda")
    parser.add_argument("--movement", default="pareto",
                        help="movement family (pareto/exponential/lognormal/rayleigh)")


def _dataset_from(args: argparse.Namespace) -> CheckInDataset:
    if args.snap_dir is not None:
        categories = args.snap_dir / "categories.txt"
        return load_dataset_from_snap(
            name=args.snap_dir.name,
            edges_path=args.snap_dir / "edges.txt",
            checkins_path=args.snap_dir / "checkins.txt",
            categories_path=categories if categories.exists() else None,
        )
    factory = brightkite_like if args.world == "bk" else foursquare_like
    return generate_dataset(factory(scale=args.scale, seed=args.seed))


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        num_topics=args.topics,
        affinity_engine=args.affinity,
        movement_family=args.movement,
        propagation_mode="rpo" if args.rpo else "fixed",
        num_rrr_sets=args.rrr_sets,
        seed=args.seed,
    )


# ------------------------------------------------------------------ commands
def cmd_info(args: argparse.Namespace) -> int:
    dataset = _dataset_from(args)
    print(dataset.describe())
    box = dataset.bounding_box()
    print(f"area: {box.width:.1f} x {box.height:.1f} km")
    builder = InstanceBuilder(dataset)
    days = builder.richest_days(count=4)
    print(f"richest days: {days}")
    for day in days:
        instance = builder.build_day(day)
        print(f"  day {day}: {instance.num_workers} workers, "
              f"{instance.num_tasks} tasks")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.data import validate_dataset

    dataset = _dataset_from(args)
    report = validate_dataset(dataset)
    print(report)
    return 0 if report.passed else 1


def cmd_generate_data(args: argparse.Namespace) -> int:
    from repro.data.writers import save_dataset_to_snap

    dataset = _dataset_from(args)
    paths = save_dataset_to_snap(dataset, args.out)
    print(dataset.describe())
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def cmd_assign(args: argparse.Namespace) -> int:
    from repro.framework import Simulator

    known = _assigner_registry()
    names = args.algorithms or ["MTA", "IA", "EIA", "DIA", "MI"]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}; "
              f"choose from {', '.join(known)}", file=sys.stderr)
        return 2

    dataset = _dataset_from(args)
    builder = InstanceBuilder(dataset, valid_hours=args.valid_hours,
                              reachable_km=args.radius)
    day = args.day if args.day is not None else builder.richest_days(count=1)[0]
    instance = builder.build_day(
        day, num_tasks=args.num_tasks, num_workers=args.num_workers,
        assignment_hour=args.assignment_hour, seed=args.seed,
    )
    print(f"{instance.name}: {instance.num_workers} workers, "
          f"{instance.num_tasks} tasks")

    config = _pipeline_config(args)
    simulator = Simulator(config)
    results = simulator.run_instance(instance, [known[name]() for name in names])

    header = f"{'algorithm':10s} {'assigned':>9s} {'AI':>9s} {'AP':>9s} " \
             f"{'travel km':>10s} {'cpu s':>8s}"
    print("\n" + header)
    print("-" * len(header))
    for metrics in results:
        print(f"{metrics.algorithm:10s} {metrics.num_assigned:9d} "
              f"{metrics.average_influence:9.4f} {metrics.average_propagation:9.3f} "
              f"{metrics.average_travel_km:10.2f} {metrics.cpu_seconds:8.3f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentRunner,
        ExperimentSettings,
        format_series,
        format_sweep_table,
        run_ablation_sweep,
        run_comparison_sweep,
    )
    from repro.experiments.io import export_csv, save_sweep
    from repro.experiments.report import write_report

    dataset = _dataset_from(args)
    settings = ExperimentSettings(scale=args.scale, num_days=args.days,
                                  seed=args.seed,
                                  assignment_hour=args.assignment_hour)
    runner = ExperimentRunner(dataset, settings, _pipeline_config(args))

    grids = {
        "num_tasks": settings.task_sweep,
        "num_workers": settings.worker_sweep,
        "valid_hours": settings.valid_hours_sweep,
        "reachable_km": settings.radius_sweep,
    }
    values = grids[args.parameter]
    if args.kind == "ablation":
        result = run_ablation_sweep(runner, args.parameter, values)
        print(format_series(result, "average_influence",
                            title=f"AI vs {args.parameter} ({dataset.name})"))
    else:
        result = run_comparison_sweep(runner, args.parameter, values)
        print(format_sweep_table(result, title=f"{dataset.name} vs {args.parameter}"))

    if args.out:
        print(f"saved JSON: {save_sweep(result, args.out)}")
    if args.csv:
        print(f"saved CSV: {export_csv(result, args.csv)}")
    if args.markdown:
        title = f"{dataset.name} — {args.kind} vs {args.parameter}"
        path = write_report({title: result}, args.markdown,
                            heading="Sweep report")
        print(f"saved markdown: {path}")
    return 0


def cmd_seeds(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.propagation import (
        RRRCollection,
        SocialGraph,
        sample_rrr_sets,
        select_seeds,
    )

    dataset = _dataset_from(args)
    builder = InstanceBuilder(dataset)
    day = builder.richest_days(count=1)[0]
    instance = builder.build_day(day)
    graph = SocialGraph(instance.all_worker_ids, instance.social_edges)
    print(f"social network: {graph.num_workers} workers, "
          f"{graph.num_edges // 2} friendships")

    rng = np.random.default_rng(args.seed)
    collection = RRRCollection(num_workers=graph.num_workers)
    roots, members = sample_rrr_sets(graph, args.rrr_sets, rng)
    collection.extend(roots, members)

    result = select_seeds(collection, args.k)
    print(f"\nestimated spread of {len(result.seeds)} seeds: "
          f"{result.estimated_spread:.2f} workers")
    print(f"{'rank':>5s} {'worker':>8s} {'marginal sets':>14s}")
    for rank, (index, marginal) in enumerate(
        zip(result.seeds, result.marginal_coverage), start=1
    ):
        print(f"{rank:5d} {graph.worker_at(index):8d} {marginal:14d}")
    return 0


def _admission_request(args: argparse.Namespace) -> dict | None:
    """The run's admission-control identity (None when disabled)."""
    if args.admission_budget is None:
        return None
    return {
        "policy": args.admission_policy or "defer",
        "budget_seconds": args.admission_budget,
    }


def _validate_stream_flags(args: argparse.Namespace, trigger) -> str | None:
    """Check checkpoint/trigger/shard/admission flag combinations early.

    Returns an error message (or None) — run *before* datasets are built
    and influence models fitted, so a mismatched ``--resume`` fails in
    milliseconds with a clear message instead of a fingerprint traceback
    after minutes of fitting.
    """
    if args.shards is not None and args.shards < 1:
        return f"--shards must be >= 1, got {args.shards}"
    if args.patience_hours is not None and not args.patience_hours >= 0:
        return f"--patience-hours must be non-negative, got {args.patience_hours}"
    if args.max_rounds is not None and args.max_rounds < 0:
        return f"--max-rounds must be non-negative, got {args.max_rounds}"
    if args.days < 1:
        return f"--days must be >= 1, got {args.days}"
    if args.segment_days is not None and args.segment_days < 1:
        return f"--segment-days must be >= 1, got {args.segment_days}"
    if args.metrics_port is not None and not 0 <= args.metrics_port <= 65535:
        return f"--metrics-port must be in [0, 65535], got {args.metrics_port}"
    if args.admission_policy is not None and args.admission_budget is None:
        return "--admission-policy requires --admission-budget"
    if args.admission_budget is not None and not args.admission_budget > 0:
        return f"--admission-budget must be positive, got {args.admission_budget}"
    if args.checkpoint_every is not None:
        if args.checkpoint is None:
            return "--checkpoint-every requires --checkpoint"
        if args.checkpoint_every < 1:
            return f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
    if args.resume is None:
        return None

    from repro.exceptions import DataError
    from repro.stream import load_checkpoint_meta, validate_checkpoint_meta

    if not args.resume.exists():
        return f"--resume checkpoint not found: {args.resume}"
    try:
        meta = load_checkpoint_meta(args.resume)
        validate_checkpoint_meta(
            meta,
            trigger_kind=trigger.kind,
            patience_hours=args.patience_hours,
            sharded=args.shards is not None,
            shard_request=(
                {"shards": args.shards, "cell_km": None}
                if args.shards is not None else None
            ),
            admission=_admission_request(args),
            segmented=args.segment_days is not None,
        )
    except DataError as error:
        return (
            f"cannot resume from {args.resume}: {error} "
            "(--trigger/--patience-hours/--shards/--admission-*/"
            "--segment-days must match the checkpointed run)"
        )
    except (OSError, ValueError) as error:
        return f"cannot read checkpoint {args.resume}: {error}"
    return None


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        AdaptiveTrigger,
        CountTrigger,
        HybridTrigger,
        TimeWindowTrigger,
        canonical_checkpoint_path,
    )

    # One canonical on-disk path for every save/load below: bare paths get
    # the .ckpt suffix here, so --checkpoint run/ckpt and --resume run/ckpt
    # always mean the same manifest.
    if args.checkpoint is not None:
        args.checkpoint = canonical_checkpoint_path(args.checkpoint)
    if args.resume is not None:
        args.resume = canonical_checkpoint_path(args.resume)

    assigner = _assigner_registry()[args.algorithm]()

    try:
        if args.trigger == "count":
            trigger = CountTrigger(args.batch_count)
        elif args.trigger == "window":
            trigger = TimeWindowTrigger(args.window_hours)
        elif args.trigger == "hybrid":
            trigger = HybridTrigger(args.batch_count, args.window_hours)
        else:
            trigger = AdaptiveTrigger(
                target_seconds=args.latency_budget,
                initial_window_hours=args.window_hours,
            )
    except ValueError as error:
        print(f"invalid --trigger {args.trigger} settings: {error}", file=sys.stderr)
        return 2

    problem = _validate_stream_flags(args, trigger)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2

    from repro.obs import MetricsRegistry, MetricsServer, Observability, Tracer

    registry = MetricsRegistry() if args.metrics_port is not None else None
    tracer = Tracer() if args.trace is not None else None
    obs = (
        Observability(registry=registry, tracer=tracer)
        if registry is not None or tracer is not None
        else None
    )
    server = None
    try:
        if registry is not None:
            # Bind before the (potentially slow) dataset build and model
            # fit so scrapers can reach /metrics for the whole run.
            server = MetricsServer(registry, port=args.metrics_port).start()
            print(f"metrics: {server.url}", flush=True)
        return _run_stream(args, assigner, trigger, obs)
    finally:
        if server is not None:
            server.close()
        if tracer is not None:
            written = tracer.write(args.trace)
            print(f"trace: {written}", flush=True)


def _run_stream(args: argparse.Namespace, assigner, trigger, obs) -> int:
    from repro.exceptions import DataError
    from repro.stream import (
        AdmissionController,
        StreamRuntime,
        day_stream,
        multi_day_stream,
    )
    from repro.stream.events import KIND_ARRIVAL, KIND_RELOCATE

    dataset = _dataset_from(args)
    builder = InstanceBuilder(dataset)
    day = args.day if args.day is not None else builder.richest_days(count=1)[0]
    if args.days > 1:
        replay_days = [
            d for d in range(day, day + args.days)
            if dataset.checkins_on_day(d)
        ]
        instance, log = multi_day_stream(
            dataset, replay_days,
            valid_hours=args.valid_hours, reachable_km=args.radius,
        )
    else:
        instance, log = day_stream(
            dataset, day, valid_hours=args.valid_hours, reachable_km=args.radius
        )
    print(f"{instance.name}: {len(log)} events "
          f"({int((log.kinds == KIND_ARRIVAL).sum())} arrivals, "
          f"{int((log.kinds == KIND_RELOCATE).sum())} relocations, "
          f"{len(instance.tasks)} tasks)")

    if args.segment_days is not None:
        from repro.stream import SegmentedEventLog

        log = SegmentedEventLog.from_log(
            log, segment_hours=24.0 * args.segment_days
        )
        print(f"segments: {log.segment_count} windows of "
              f"{args.segment_days} day(s), {len(log)} events")

    admission = None
    if args.admission_budget is not None:
        admission = AdmissionController(
            budget_seconds=args.admission_budget,
            policy=args.admission_policy or "defer",
        )

    influence = None
    if not args.no_influence:
        from repro.framework import DITAPipeline

        influence = DITAPipeline(_pipeline_config(args)).fit(instance).influence_model()

    if args.resume is not None:
        try:
            runtime = StreamRuntime.resume(
                args.resume, assigner, influence, trigger, instance, log,
                patience_hours=args.patience_hours,
                shards=args.shards, admission=admission, obs=obs,
            )
        except DataError as error:
            print(f"cannot resume from {args.resume}: {error}", file=sys.stderr)
            return 2
    else:
        runtime = StreamRuntime(
            assigner, influence, trigger, instance, log,
            patience_hours=args.patience_hours,
            shards=args.shards, admission=admission, obs=obs,
        )
    if args.resume is not None:
        print(f"resumed from {args.resume} "
              f"at round {len(runtime.result.rounds)}")
    if runtime.shard_request is not None:
        layout = runtime.shard_executor.layout
        print(f"sharded: {layout.num_shards} shards over "
              f"{len(layout.cells)} cells")
    if args.checkpoint_every is None:
        result = runtime.run(max_rounds=args.max_rounds)
    else:
        remaining = args.max_rounds
        result = runtime.run(max_rounds=0)
        while not runtime.done and (remaining is None or remaining > 0):
            step = (
                args.checkpoint_every if remaining is None
                else min(args.checkpoint_every, remaining)
            )
            result = runtime.run(max_rounds=step)
            saved = runtime.checkpoint(args.checkpoint)
            print(f"checkpoint: {saved} "
                  f"(after round {len(result.rounds)})", flush=True)
            if remaining is not None:
                remaining -= step

    active = [r for r in result.rounds if r.assigned or r.drained_events]
    shown = active[-args.show_rounds:] if args.show_rounds > 0 else []
    if shown:
        print(f"\n{'t':>7s} {'online':>7s} {'open':>6s} {'drained':>8s} "
              f"{'assigned':>9s} {'expired':>8s} {'churned':>8s}")
    for record in shown:
        print(f"{record.time:7.2f} {record.online_workers:7d} "
              f"{record.open_tasks:6d} {record.drained_events:8d} "
              f"{record.assigned:9d} {record.expired_tasks:8d} "
              f"{record.churned_workers:8d}")
    print(f"\n{result.summary().as_text()}")
    if runtime.shard_request is not None:
        phases = result.metrics.phase_totals()
        print("phases (s):        " + "  ".join(
            f"{name} {seconds:.3f}" for name, seconds in phases.items()
        ))
    if not runtime.done:
        print(f"\nstopped after {args.max_rounds} rounds "
              "(stream not exhausted)")
    if args.checkpoint is not None:
        saved = runtime.checkpoint(args.checkpoint)
        print(f"checkpoint: {saved}")
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Influence-aware task assignment (ICDE 2022) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="dataset statistics")
    _add_world_arguments(info)
    info.set_defaults(handler=cmd_info)

    validate = subparsers.add_parser(
        "validate", help="statistical validation checks on a dataset"
    )
    _add_world_arguments(validate)
    validate.set_defaults(handler=cmd_validate)

    generate = subparsers.add_parser("generate-data",
                                     help="write a synthetic world as SNAP files")
    _add_world_arguments(generate)
    generate.add_argument("--out", type=Path, required=True,
                          help="output directory")
    generate.set_defaults(handler=cmd_generate_data)

    assign = subparsers.add_parser("assign", help="one-day assignment run")
    _add_world_arguments(assign)
    _add_pipeline_arguments(assign)
    assign.add_argument("--day", type=int, default=None,
                        help="zero-based day (default: richest)")
    assign.add_argument("--num-tasks", type=int, default=None)
    assign.add_argument("--num-workers", type=int, default=None)
    assign.add_argument("--valid-hours", type=float, default=5.0)
    assign.add_argument("--radius", type=float, default=25.0)
    assign.add_argument("--assignment-hour", type=float, default=None,
                        help="assignment instant as an offset into the day "
                             "(default: day start; 24 = day end)")
    assign.add_argument("--algorithms", nargs="*", default=None,
                        help="subset of MTA IA EIA DIA MI NN")
    assign.set_defaults(handler=cmd_assign)

    sweep = subparsers.add_parser("sweep", help="paper-style parameter sweep")
    _add_world_arguments(sweep)
    _add_pipeline_arguments(sweep)
    sweep.add_argument("--parameter", required=True,
                       choices=("num_tasks", "num_workers", "valid_hours",
                                "reachable_km"))
    sweep.add_argument("--kind", choices=("comparison", "ablation"),
                       default="comparison")
    sweep.add_argument("--days", type=int, default=2,
                       help="days averaged per point")
    sweep.add_argument("--assignment-hour", type=float, default=None,
                       help="assignment instant offset into the day "
                            "(use 24 for ϕ sweeps so deadlines bind)")
    sweep.add_argument("--out", type=Path, default=None, help="save JSON here")
    sweep.add_argument("--csv", type=Path, default=None, help="save CSV here")
    sweep.add_argument("--markdown", type=Path, default=None,
                       help="save a markdown report here")
    sweep.set_defaults(handler=cmd_sweep)

    seeds = subparsers.add_parser("seeds",
                                  help="greedy influence-maximization seeds")
    _add_world_arguments(seeds)
    seeds.add_argument("--k", type=int, default=10, help="number of seeds")
    seeds.add_argument("--rrr-sets", type=int, default=50_000)
    seeds.set_defaults(handler=cmd_seeds)

    stream = subparsers.add_parser(
        "stream", help="event-driven streaming run over one day"
    )
    _add_world_arguments(stream)
    _add_pipeline_arguments(stream)
    stream.add_argument("--day", type=int, default=None,
                        help="zero-based day (default: richest)")
    stream.add_argument("--days", type=int, default=1,
                        help="replay this many consecutive days as one "
                             "continuous stream with overnight relocation "
                             "and churn (default: 1)")
    stream.add_argument("--segment-days", type=int, default=None,
                        metavar="N",
                        help="stream the horizon through bounded-memory "
                             "event-log segments of N days each instead of "
                             "one materialized log (bit-identical replay; "
                             "peak memory follows the segment window)")
    stream.add_argument("--valid-hours", type=float, default=5.0)
    stream.add_argument("--radius", type=float, default=25.0)
    stream.add_argument("--algorithm", choices=ASSIGNER_NAMES, default="IA")
    stream.add_argument("--no-influence", action="store_true",
                        help="skip fitting the influence model")
    stream.add_argument("--trigger",
                        choices=("count", "window", "hybrid", "adaptive"),
                        default="window", help="micro-batch policy")
    stream.add_argument("--batch-count", type=int, default=25,
                        help="admissions per round (count/hybrid triggers)")
    stream.add_argument("--window-hours", type=float, default=1.0,
                        help="round spacing in sim hours (window/hybrid/adaptive)")
    stream.add_argument("--latency-budget", type=float, default=0.25,
                        help="adaptive trigger's per-round latency target (s)")
    stream.add_argument("--patience-hours", type=float, default=None,
                        help="churn unassigned workers after this many hours")
    stream.add_argument("--admission-budget", type=float, default=None,
                        help="per-round latency budget (s) above which the "
                             "admission controller defers/sheds publishes")
    stream.add_argument("--admission-policy", choices=("defer", "shed"),
                        default=None,
                        help="what happens to gated publishes (default: "
                             "defer; requires --admission-budget)")
    stream.add_argument("--shards", type=int, default=None,
                        help="run rounds sharded by grid-cell components "
                             "(at most this many shards; exact decomposition)")
    stream.add_argument("--max-rounds", type=int, default=None,
                        help="stop after this many rounds (resumable)")
    stream.add_argument("--show-rounds", type=int, default=12,
                        help="how many active rounds to print")
    stream.add_argument("--checkpoint", type=Path, default=None,
                        help="save runtime state here after the run "
                             "(a bare path gets the canonical .ckpt suffix)")
    stream.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="also save --checkpoint every N rounds during "
                             "the run (atomic; interrupted runs resume from "
                             "the last saved round)")
    stream.add_argument("--resume", type=Path, default=None,
                        help="resume from a checkpoint saved with --checkpoint")
    stream.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write a Chrome trace-event (Perfetto-loadable) "
                             "JSON timeline of round/shard/checkpoint spans "
                             "to FILE")
    stream.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus text exposition at "
                             "http://127.0.0.1:PORT/metrics for the run's "
                             "duration (0 picks an ephemeral port)")
    stream.set_defaults(handler=cmd_stream)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
