"""Command-line interface: run any registered allocator from the shell.

Subcommands are generated from the allocator registry
(:mod:`repro.api`), so every algorithm — paper, baseline, extension —
gets a CLI entry with the same shape, ``--mode`` choices that exactly
match what the algorithm supports, and numeric option flags derived
from the function signature.  Usage::

    python -m repro list                             # registry + capabilities
    python -m repro heavy --m 1000000 --n 1000 --seed 7
    python -m repro heavy --m 1000000000000 --n 1024 --mode aggregate
    python -m repro heavy --m 1000000 --n 1000 --workload zipf:1.1
    python -m repro greedy --m 100000 --n 1000 --d 2
    python -m repro faulty --m 100000 --n 256 --crash-prob 0.01
    python -m repro replicate heavy --m 100000 --n 256 --trials 256
    python -m repro dynamic heavy --m 100000 --n 256 --epochs 32 --churn 0.1
    python -m repro serve heavy --m 100000 --n 256 --simulate --gap-slo 8
    python -m repro compare --m 1000000 --n 1000     # side-by-side table
    python -m repro bench --m 100000 --n 256 --trials 256  # replication bench
    python -m repro experiments T2                   # alias for
                                                     # python -m repro.experiments

Prints the :meth:`~repro.result.AllocationResult.describe` block (and
for ``compare`` a one-row-per-algorithm table).
"""

from __future__ import annotations

import argparse
import time

from repro.api import allocate, get_spec, list_allocators

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True, help="number of balls")
    parser.add_argument("--n", type=int, required=True, help="number of bins")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="PATH",
        dest="telemetry_path",
        help="record spans + metrics and write them as Chrome-trace "
        "JSON to PATH (loads in Perfetto; bitwise-identical results, "
        "see docs/observability.md)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel balanced allocations (Lenzen-Parter-Yogev, "
        "SPAA 2019) — reproduction CLI.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="enable repro.* structured logging on stderr "
        "(-v: INFO, -vv: DEBUG; default: silent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list registered allocators and their capabilities"
    )

    for spec in list_allocators():
        help_text = spec.summary
        if spec.paper_ref:
            help_text += f" ({spec.paper_ref})"
        p = sub.add_parser(spec.name, help=help_text)
        _add_common(p)
        if spec.modes:
            p.add_argument(
                "--mode",
                choices=("auto",) + spec.modes,
                default="auto",
                help="execution mode (auto picks the fastest eligible)",
            )
        if spec.workload_capable:
            p.add_argument(
                "--workload",
                type=str,
                default=None,
                help="workload spec, e.g. zipf:1.1, hotset:0.1:0.5, "
                "zipf:1.2+geomw:0.5+propcap (see docs/workloads.md)",
            )
        for option, (typ, default) in sorted(spec.cli_options.items()):
            p.add_argument(
                f"--{option.replace('_', '-')}",
                dest=option,
                type=typ,
                default=default,
                help=f"{spec.name} option (default: {default})",
            )

    p_rep = sub.add_parser(
        "replicate",
        help="run many seeded replications in one trial-batched pass "
        "and print the distributional summary",
    )
    p_rep.add_argument(
        "algorithm",
        type=str,
        help="registry name or alias (see 'list'); trial_batched specs "
        "run vectorized, others fall back to the sequential loop",
    )
    _add_common(p_rep)
    p_rep.add_argument(
        "--trials",
        type=_positive_int,
        default=256,
        help="independent replications (default: 256)",
    )
    p_rep.add_argument(
        "--workload",
        type=str,
        default=None,
        help="workload spec applied to every trial (e.g. zipf:1.1)",
    )
    p_rep.add_argument(
        "--sequential",
        action="store_true",
        help="force the sequential per-seed loop (identical values; "
        "for verification/timing)",
    )
    p_rep.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="shard the trial axis across this many processes "
        "(value-identical to --workers 1; default: single process)",
    )
    p_rep.add_argument(
        "--json",
        type=str,
        default=None,
        dest="json_path",
        help="also write the full per-trial record as JSON to this path",
    )

    p_dyn = sub.add_parser(
        "dynamic",
        help="run allocation under churn: epochs of departures and "
        "arrivals with incremental rebalancing",
    )
    p_dyn.add_argument(
        "algorithm",
        type=str,
        help="a dynamic-capable registry name or alias (see the "
        "'dynamic' column of 'list')",
    )
    _add_common(p_dyn)
    p_dyn.add_argument(
        "--epochs",
        type=_positive_int,
        default=16,
        help="churn epochs after the initial fill (default: 16)",
    )
    p_dyn.add_argument(
        "--churn",
        type=float,
        default=0.1,
        help="per-epoch turnover as a fraction of m (default: 0.1)",
    )
    p_dyn.add_argument(
        "--arrivals",
        choices=("fixed", "poisson", "bursty", "hotset_adversary"),
        default="fixed",
        help="arrival process (default: fixed); hotset_adversary "
        "targets every cohort at the currently hottest bins",
    )
    p_dyn.add_argument(
        "--departures",
        choices=("uniform", "fifo", "hotset", "greedy_adversary"),
        default="uniform",
        help="departure policy (default: uniform); greedy_adversary "
        "drains the lightest bins to maximize the gap",
    )
    p_dyn.add_argument(
        "--hot-frac",
        type=float,
        default=0.1,
        help="fraction of bins the hotset/hotset_adversary policies "
        "concentrate on (default: 0.1)",
    )
    p_dyn.add_argument(
        "--faults",
        type=str,
        default=None,
        help="fault model, e.g. 'bin_fail=0.05,recover=0.2,loss=0.01' "
        "(default: no faults)",
    )
    p_dyn.add_argument(
        "--time-workload",
        type=str,
        default=None,
        help="time-varying workload: 'drift:S0:S1' (Zipf skew drift) "
        "or 'flash:EVERY:FACTOR[:BIN]' (flash crowds); mutually "
        "exclusive with --workload",
    )
    p_dyn.add_argument(
        "--rebalance",
        choices=("incremental", "full_rerun"),
        default="incremental",
        help="rebalance strategy (default: incremental)",
    )
    p_dyn.add_argument(
        "--mode",
        choices=("perball", "aggregate"),
        default="aggregate",
        help="kernel granularity of every placement (default: aggregate)",
    )
    p_dyn.add_argument(
        "--workload",
        type=str,
        default=None,
        help="workload spec the arriving cohorts are drawn from "
        "(unit weights only, e.g. zipf:1.1+propcap)",
    )
    p_dyn.add_argument(
        "--json",
        type=str,
        default=None,
        dest="json_path",
        help="also write the full per-epoch record as JSON to this path",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the continuous allocation service against a "
        "simulated open-loop arrival stream (micro-batched "
        "incremental rebalancing, admission control)",
    )
    p_srv.add_argument(
        "algorithm",
        type=str,
        help="a dynamic-capable registry name or alias (see the "
        "'dynamic' column of 'list')",
    )
    _add_common(p_srv)
    p_srv.add_argument(
        "--simulate",
        action="store_true",
        help="drive the service with the deterministic simulated-clock "
        "open-loop driver (required: the only built-in driver; live "
        "asyncio ingest is available programmatically via "
        "repro.service.serve_queue)",
    )
    p_srv.add_argument(
        "--epochs",
        type=_positive_int,
        default=16,
        help="simulated churn intervals after the fill (default: 16)",
    )
    p_srv.add_argument(
        "--churn",
        type=float,
        default=0.1,
        help="per-interval turnover as a fraction of m (default: 0.1)",
    )
    p_srv.add_argument(
        "--arrivals",
        choices=("fixed", "bursty"),
        default="bursty",
        help="deterministic arrival process (default: bursty)",
    )
    p_srv.add_argument(
        "--burst-every",
        type=int,
        default=4,
        help="bursty arrivals: cycle length (default: 4)",
    )
    p_srv.add_argument(
        "--burst-factor",
        type=float,
        default=4.0,
        help="bursty arrivals: burst multiplier (default: 4.0)",
    )
    p_srv.add_argument(
        "--departures",
        choices=("uniform", "fifo", "hotset", "greedy_adversary"),
        default="uniform",
        help="departure policy (default: uniform); greedy_adversary "
        "drains the lightest bins to maximize the gap",
    )
    p_srv.add_argument(
        "--hot-frac",
        type=float,
        default=0.1,
        help="fraction of bins the hotset departure policy "
        "concentrates on (default: 0.1)",
    )
    p_srv.add_argument(
        "--faults",
        type=str,
        default=None,
        help="fault model, e.g. 'bin_fail=0.05,recover=0.2,loss=0.01' "
        "(default: no faults)",
    )
    p_srv.add_argument(
        "--max-batch",
        type=_positive_int,
        default=None,
        help="micro-batch count watermark in balls (default: sized to "
        "the largest burst — one batch per interval)",
    )
    p_srv.add_argument(
        "--max-wait",
        type=float,
        default=1.0,
        help="micro-batch age watermark in simulated seconds "
        "(default: 1.0)",
    )
    p_srv.add_argument(
        "--max-queue",
        type=_positive_int,
        default=None,
        help="ingest queue capacity in balls (default: fits the fill "
        "and two nominal batches)",
    )
    p_srv.add_argument(
        "--gap-slo",
        type=float,
        default=None,
        help="admission gap SLO: defer (widen batches) above it, shed "
        "past the headroom (default: no gap controller)",
    )
    p_srv.add_argument(
        "--workload",
        type=str,
        default=None,
        help="workload spec the arriving cohorts are drawn from "
        "(unit weights only, e.g. zipf:1.1+propcap)",
    )
    p_srv.add_argument(
        "--json",
        type=str,
        default=None,
        dest="json_path",
        help="also write the full per-batch record as JSON to this path",
    )
    p_srv.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        dest="metrics_out",
        metavar="PATH",
        help="write the final ServiceStats snapshot in Prometheus text "
        "exposition format to PATH",
    )

    p_compare = sub.add_parser(
        "compare", help="run all parallel algorithms side by side"
    )
    _add_common(p_compare)

    p_bench = sub.add_parser(
        "bench",
        help="time every registered allocator (kernel backends) at one "
        "instance size",
    )
    _add_common(p_bench)
    p_bench.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        help="number of pinned seeds per (algorithm, mode), counting up "
        "from --seed (default: 1 run of seed 0)",
    )
    p_bench.add_argument(
        "--algorithms",
        type=str,
        default=None,
        help="comma-separated registry names/aliases (default: all)",
    )
    p_bench.add_argument(
        "--include-engine",
        action="store_true",
        help="also time the object-level engine modes (slow)",
    )
    p_bench.add_argument(
        "--include-sequential",
        action="store_true",
        help="also time sequential baselines (greedy[d])",
    )
    p_bench.add_argument(
        "--kernel-only",
        action="store_true",
        help="restrict to allocators on the shared round kernels "
        "(the workload-capable ones)",
    )
    p_bench.add_argument(
        "--workload",
        type=str,
        default=None,
        help="bench under a workload spec (e.g. zipf:1.1); restricts "
        "to workload-capable allocators",
    )
    p_bench.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        help="switch to replication benchmarking: time trials-many "
        "seeded replications per trial_batched allocator, batched vs "
        "the sequential loop",
    )
    p_bench.add_argument(
        "--skip-sequential",
        action="store_true",
        help="with --trials: skip the (slow) sequential-loop baseline",
    )
    p_bench.add_argument(
        "--json",
        type=str,
        default=None,
        dest="json_path",
        help="also write the records as JSON to this path",
    )

    p_exp = sub.add_parser("experiments", help="experiment harness passthrough")
    p_exp.add_argument("args", nargs=argparse.REMAINDER)

    return parser


#: ``list`` capability columns: (header, spec flag attribute, the
#: ``AllocatorSpec.capabilities()`` string the column replaces — kept
#: here so the "other" column derives its exclusions from this table).
_CAPABILITY_COLUMNS = (
    ("workload", "workload_capable", "workload"),
    ("trials", "trial_batched", "trial_batched"),
    ("dynamic", "dynamic_capable", "dynamic"),
)


def _list_registry() -> None:
    specs = list_allocators()
    name_w = max(len(s.name) for s in specs)
    mode_w = max(len(",".join(s.modes)) or 1 for s in specs)
    # One yes/no column per engine capability (workload scenarios on
    # the round kernels, trial batching, dynamic placement); the
    # remaining behavioral flags stay a comma-joined column.
    columned = {cap for _, _, cap in _CAPABILITY_COLUMNS}
    other_caps = {
        s.name: [c for c in s.capabilities() if c not in columned]
        for s in specs
    }
    other_w = max(
        max((len(",".join(v)) for v in other_caps.values()), default=1), 5
    )
    ref_w = max(len(s.paper_ref) or 1 for s in specs)
    cap_headers = "  ".join(
        title for title, _, _ in _CAPABILITY_COLUMNS
    )
    header = (
        f"{'name':{name_w}s}  {'modes':{mode_w}s}  {cap_headers}  "
        f"{'other':{other_w}s}  {'reference':{ref_w}s}  summary"
    )
    print(header)
    print("-" * len(header))
    for spec in specs:
        modes = ",".join(spec.modes) or "-"
        marks = "  ".join(
            f"{('yes' if getattr(spec, attr) else '-'):>{len(title)}s}"
            for title, attr, _ in _CAPABILITY_COLUMNS
        )
        other = ",".join(other_caps[spec.name]) or "-"
        print(
            f"{spec.name:{name_w}s}  {modes:{mode_w}s}  {marks}  "
            f"{other:{other_w}s}  {spec.paper_ref:{ref_w}s}  {spec.summary}"
        )
        if spec.aliases:
            print(f"{'':{name_w}s}  aliases: {', '.join(spec.aliases)}")


def _run_allocator(args: argparse.Namespace):
    spec = get_spec(args.command)
    options = {
        option: getattr(args, option)
        for option in spec.cli_options
        if getattr(args, option) is not None
    }
    return allocate(
        spec.name,
        args.m,
        args.n,
        seed=args.seed,
        mode=getattr(args, "mode", "auto"),
        workload=getattr(args, "workload", None),
        **options,
    )


def _compare(args: argparse.Namespace) -> None:
    rows = (
        ("single-choice", "single", {}),
        ("stemann", "stemann", {}),
        ("batched[2]", "batched", {"d": 2}),
        ("heavy (Thm 1)", "heavy", {}),
        ("asymmetric (Thm 3)", "asymmetric", {}),
    )
    header = (
        f"{'algorithm':20s} {'max load':>10s} {'gap':>8s} "
        f"{'rounds':>7s} {'messages':>12s} {'time':>8s}"
    )
    print(header)
    print("-" * len(header))
    for label, name, options in rows:
        start = time.perf_counter()
        res = allocate(
            name,
            args.m,
            args.n,
            seed=args.seed,
            **options,
        )
        elapsed = time.perf_counter() - start
        print(
            f"{label:20s} {res.max_load:10,d} {res.gap:+8.1f} "
            f"{res.rounds:7d} {res.total_messages:12,d} {elapsed:7.2f}s"
        )


def _replicate(args: argparse.Namespace) -> None:
    import json

    from repro.api import replicate

    start = time.perf_counter()
    rep = replicate(
        args.algorithm,
        args.m,
        args.n,
        trials=args.trials,
        seed=args.seed,
        workload=args.workload,
        trial_batched=False if args.sequential else None,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - start
    print(rep.describe())
    print(f"wall time     : {elapsed:.2f}s "
          f"({args.trials / elapsed:,.0f} trials/s)")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
        print(f"wrote {args.trials}-trial record to {args.json_path}")


def _dynamic(args: argparse.Namespace) -> None:
    import json

    from repro.core.faulty import parse_faults
    from repro.dynamic import run_dynamic

    try:
        fault_model = parse_faults(args.faults)
    except ValueError as exc:
        raise SystemExit(f"python -m repro dynamic: error: {exc}")
    start = time.perf_counter()
    res = run_dynamic(
        args.algorithm,
        args.m,
        args.n,
        seed=args.seed,
        epochs=args.epochs,
        churn=args.churn,
        arrivals=args.arrivals,
        departures=args.departures,
        hot_frac=args.hot_frac,
        rebalance=args.rebalance,
        workload=args.workload,
        time_workload=args.time_workload,
        fault_model=fault_model,
        mode=args.mode,
    )
    elapsed = time.perf_counter() - start
    print(res.describe())
    print(f"wall time     : {elapsed:.2f}s")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(res.to_dict(), fh, indent=2)
        print(
            f"wrote {res.epochs + 1}-epoch record to {args.json_path}"
        )


def _serve(args: argparse.Namespace) -> None:
    import json

    from repro.core.faulty import parse_faults
    from repro.service import AdmissionPolicy, simulate_service

    try:
        fault_model = parse_faults(args.faults)
    except ValueError as exc:
        raise SystemExit(f"python -m repro serve: error: {exc}")
    if not args.simulate:
        raise SystemExit(
            "python -m repro serve: error: --simulate is required (the "
            "CLI ships the deterministic open-loop driver only; live "
            "asyncio ingest is programmatic via repro.service.serve_queue)"
        )
    policy = (
        AdmissionPolicy(gap_slo=args.gap_slo)
        if args.gap_slo is not None
        else None
    )
    report = simulate_service(
        args.algorithm,
        args.m,
        args.n,
        seed=args.seed,
        epochs=args.epochs,
        churn=args.churn,
        arrivals=args.arrivals,
        burst_every=args.burst_every,
        burst_factor=args.burst_factor,
        departures=args.departures,
        hot_frac=args.hot_frac,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        max_queue=args.max_queue,
        policy=policy,
        workload=args.workload,
        fault_model=fault_model,
    )
    print(report.describe())
    print(f"wall time     : {report.wall_seconds:.2f}s")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(
            f"wrote {report.stats.batches}-batch record to {args.json_path}"
        )
    if args.metrics_out:
        from repro.telemetry import stats_to_prometheus

        with open(args.metrics_out, "w") as fh:
            fh.write(stats_to_prometheus(report.stats))
        print(f"wrote Prometheus metrics to {args.metrics_out}")


def _bench_replication(args: argparse.Namespace) -> None:
    from repro.api.bench import (
        REPLICATION_COLUMNS,
        benchmark_replication,
        render,
    )

    algorithms = (
        [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if args.algorithms
        else None
    )
    try:
        records = benchmark_replication(
            args.m,
            args.n,
            trials=args.trials,
            seed=args.seed if args.seed is not None else 0,
            algorithms=algorithms,
            include_sequential=not args.skip_sequential,
            workload=args.workload,
        )
    except ValueError as exc:
        raise SystemExit(f"python -m repro bench: error: {exc}")
    print(render(records, REPLICATION_COLUMNS))
    if args.json_path:
        import json

        with open(args.json_path, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {len(records)} records to {args.json_path}")


def _bench(args: argparse.Namespace) -> None:
    from repro.api.bench import ALLOCATE_COLUMNS, benchmark_registry, render

    if args.trials is not None:
        _bench_replication(args)
        return
    algorithms = (
        [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if args.algorithms
        else None
    )
    base_seed = args.seed if args.seed is not None else 0
    try:
        records = benchmark_registry(
            args.m,
            args.n,
            seeds=tuple(range(base_seed, base_seed + args.seeds)),
            algorithms=algorithms,
            include_engine=args.include_engine,
            include_sequential=args.include_sequential,
            kernel_only=args.kernel_only,
            workload=args.workload,
        )
    except ValueError as exc:  # e.g. unknown --algorithms entry
        raise SystemExit(f"python -m repro bench: error: {exc}")
    print(render(records, ALLOCATE_COLUMNS))
    if args.json_path:
        import json

        with open(args.json_path, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {len(records)} records to {args.json_path}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        _list_registry()
        return 0
    if args.command == "replicate":
        _replicate(args)
        return 0
    if args.command == "dynamic":
        _dynamic(args)
        return 0
    if args.command == "serve":
        _serve(args)
        return 0
    if args.command == "compare":
        _compare(args)
        return 0
    if args.command == "bench":
        _bench(args)
        return 0
    start = time.perf_counter()
    result = _run_allocator(args)
    elapsed = time.perf_counter() - start
    print(result.describe())
    print(f"wall time     : {elapsed:.2f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.telemetry import configure_logging

    configure_logging(args.verbose)
    if args.command == "experiments":
        from repro.experiments.__main__ import main as exp_main

        return exp_main(args.args)
    telemetry_path = getattr(args, "telemetry_path", None)
    if telemetry_path is None:
        return _dispatch(args)
    from repro.telemetry import Telemetry, use_telemetry

    telemetry = Telemetry()
    with use_telemetry(telemetry):
        code = _dispatch(args)
    telemetry.write(telemetry_path)
    print(
        f"wrote telemetry ({len(telemetry.tracer.events)} trace events, "
        f"{len(telemetry.metrics)} metric series) to {telemetry_path}"
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
