"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``table2 [--faults N] [--mode MODE] [--fault-class CLASS] [--workers N]
  [--resume PATH] [--json PATH] [--trace PATH]`` — the SWIFI campaign
  (Table II), fanned out over a process pool with a resumable JSONL
  journal; ``--fault-class`` selects the fault model (register SEUs,
  memory bit flips, IDL fuzzing, correlated bursts); ``--trace``
  additionally records every run under the flight recorder and exports
  the event journals + metrics as a JSONL trace artifact
* ``trace PATH [--run SEED] [--full] [--validate]`` — render a recorded
  trace artifact: campaign roll-up plus one run's recovery timeline
* ``fig6`` — tracking overhead, recovery overhead, LOC tables (Fig. 6)
* ``fig7 [--requests N] [--seeds N --workers W --json PATH --trace PATH]``
  — web-server throughput (Fig. 7): single-run comparison table by
  default, or a pooled parallel multi-seed faulted campaign with
  latency percentiles when ``--seeds`` is given
* ``compile <service|path.idl>`` — show compiler output for one interface
"""

from __future__ import annotations

import argparse
import os
import sys


def _artifacts_writable(args) -> bool:
    """Campaign preflight: can ``--json`` and ``--trace`` be written?

    Fails before the campaign runs, not after: a paper-scale run is
    minutes of work.  The trace exporter appends one section per
    campaign, so the ``--trace`` artifact starts empty.
    """
    for flag, path, mode in (
        ("--json", args.json, "a"), ("--trace", args.trace, "w")
    ):
        if not path:
            continue
        try:
            with open(path, mode, encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"cannot write {flag} {path}: {exc}", file=sys.stderr)
            return False
    return True


def _report_campaign(
    args, setup_wall: float, exec_wall: float, runs: int, write_json
) -> None:
    """Campaign epilogue: the wall clock, ``write_json(args.json)`` and
    where the artifacts went.

    The wall clock goes to stderr, so stdout stays deterministic across
    hosts and reruns (journal replays must reproduce it byte for byte).
    """
    if exec_wall > 0:
        print(
            f"wall clock: setup {setup_wall:.2f}s + exec {exec_wall:.2f}s "
            f"({runs / exec_wall:.1f} runs/s)",
            file=sys.stderr,
        )
    if args.json:
        write_json(args.json)
        print(f"wrote {args.json} (+ .timing.json sidecar)")
    if args.trace:
        print(
            f"wrote {args.trace} "
            f"(render with: python -m repro trace {args.trace})"
        )


def _cmd_table2(args) -> int:
    from repro.swifi.campaign import (
        format_table2,
        run_full_campaign,
        write_table2_json,
    )

    if not _artifacts_writable(args):
        return 1
    print(
        f"SWIFI campaign: {args.faults} {args.fault_class} faults per "
        f"service ({args.mode} stubs, {args.workers} worker(s))"
    )
    results = run_full_campaign(
        n_faults=args.faults,
        ft_mode=args.mode,
        seed=args.seed,
        workers=args.workers,
        journal=args.resume,
        trace=args.trace,
        fault_class=args.fault_class,
    )
    print(format_table2(results))
    _report_campaign(
        args,
        sum(r.setup_wall for r in results),
        sum(r.exec_wall for r in results),
        sum(r.injected for r in results),
        lambda path: write_table2_json(results, path),
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.observe.events import EventSchemaError
    from repro.observe.export import load_runs, read_trace
    from repro.observe.timeline import (
        RECOVERY_EVENTS,
        pick_default_run,
        render_rollup,
        render_run_timeline,
    )

    if not os.path.exists(args.path):
        print(f"no such trace artifact: {args.path}", file=sys.stderr)
        return 1
    try:
        if args.validate:
            n_lines = sum(1 for _ in read_trace(args.path, validate=True))
            runs, summaries = load_runs(args.path)
            print(
                f"{args.path}: {n_lines} lines OK "
                f"({len(runs)} runs, {len(summaries)} summaries)"
            )
            return 0
        runs, summaries = load_runs(args.path)
    except EventSchemaError as exc:
        print(f"invalid trace artifact: {exc}", file=sys.stderr)
        return 1
    if not runs and not summaries:
        print(f"{args.path}: empty trace artifact", file=sys.stderr)
        return 1
    print(render_rollup(runs, summaries))
    if args.run is not None:
        selected = [run for run in runs if run["run_seed"] == args.run]
        if not selected:
            print(f"no run with seed {args.run} in {args.path}",
                  file=sys.stderr)
            return 1
        chosen = selected
    else:
        default = pick_default_run(runs)
        chosen = [default] if default is not None else []
    include = None if args.full else RECOVERY_EVENTS
    for run in chosen:
        print()
        print(render_run_timeline(run, include=include))
    return 0


def _cmd_fig6(args) -> int:
    from repro.analysis import (
        measure_recovery_overhead,
        measure_tracking_overhead,
    )
    from repro.analysis.loc import format_loc_table, loc_table
    from repro.idl_specs import SERVICES

    print("Fig 6(a): tracking overhead (us/op)")
    for service in SERVICES:
        sg = measure_tracking_overhead(service, "superglue")
        c3 = measure_tracking_overhead(service, "c3")
        print(
            f"  {service:7s} superglue={sg['per_op_us']:.3f} "
            f"c3={c3['per_op_us']:.3f}"
        )
    print("\nFig 6(b): per-descriptor recovery overhead (us)")
    for service in SERVICES:
        sg = measure_recovery_overhead(service, "superglue", runs=args.runs)
        print(
            f"  {service:7s} mean={sg['mean_us']:.2f} "
            f"stdev={sg['stdev_us']:.2f} (n={sg['samples']}, "
            f"dropped={sg['runs_dropped']})"
        )
    print("\nFig 6(c): lines of code")
    print(format_loc_table(loc_table()))
    return 0


def _cmd_fig7(args) -> int:
    if args.seeds is not None:
        return _cmd_fig7_campaign(args)
    if args.arrivals == "open":
        return _cmd_fig7_openloop(args)
    from repro.webserver.apache_model import ApacheModel
    from repro.webserver.loadgen import run_webserver

    print(f"Web-server benchmark: {args.requests} requests")
    apache = ApacheModel().throughput_rps(args.requests)
    print(f"  apache (model)         {apache:>12,.0f} req/s")
    base = None
    for mode in ("none", "c3", "superglue"):
        result = run_webserver(ft_mode=mode, n_requests=args.requests)
        if mode == "none":
            base = result.throughput_rps
        slowdown = (
            f"  ({100 * (1 - result.throughput_rps / base):.2f}% slowdown)"
            if mode != "none"
            else ""
        )
        print(
            f"  composite {mode:10s} {result.throughput_rps:>12,.0f} "
            f"req/s{slowdown}"
        )
    faulted = run_webserver(
        ft_mode="superglue", n_requests=args.requests,
        with_faults=True, seed=args.seed,
    )
    print(
        f"  superglue + faults     {faulted.throughput_rps:>12,.0f} req/s"
        f"  ({100 * (1 - faulted.throughput_rps / base):.2f}% slowdown; "
        f"{faulted.faults_injected}/{faulted.faults_armed} faults "
        f"delivered/armed, {faulted.reboots} reboots)"
    )
    return 0


def _cmd_fig7_openloop(args) -> int:
    """Single-spec open-loop comparison: clean vs faulted overload."""
    from repro.webserver.arrivals import ArrivalSpec, offered_rps
    from repro.webserver.loadgen import run_webserver
    from repro.composite.scheduler import CYCLES_PER_US

    spec = ArrivalSpec(
        n_requests=args.requests,
        load=args.load,
        phases=args.phases,
        seed=args.arrival_seed,
    )
    schedule = spec.build(("index.html",))
    print(
        f"Open-loop web-server run: {args.requests} requests, "
        f"load {args.load:g} ({args.phases} phases), "
        f"SLO {args.slo_us}us, offered "
        f"{offered_rps(schedule, CYCLES_PER_US):,.0f} req/s"
    )

    def report(label, result):
        line = (
            f"  {label:<18} goodput {result.goodput_rps:>10,.0f} req/s"
            f"  slo {result.slo_ok}/{result.requests}"
            f"  peak queue {result.peak_outstanding}"
        )
        if result.crashed is not None:
            line += f"  [crashed: {result.crashed}]"
        if result.faults_armed:
            line += (
                f"  ({result.faults_injected}/{result.faults_armed} faults, "
                f"{result.reboots} reboots)"
            )
        print(line)

    clean = run_webserver(
        ft_mode=args.mode, arrival_spec=spec, slo_us=args.slo_us
    )
    report("fault-free", clean)
    faulted = run_webserver(
        ft_mode=args.mode, arrival_spec=spec, slo_us=args.slo_us,
        with_faults=True, n_faults=args.faults, seed=args.seed,
        fault_class=args.fault_class, warn_shortfall=False,
    )
    report(f"{args.fault_class} faults", faulted)
    return 0


def _cmd_fig7_campaign(args) -> int:
    """Multi-seed faulted campaign mode (``fig7 --seeds N``)."""
    from repro.webserver.campaign import (
        WebRunSpec,
        format_web_campaign,
        run_webserver_campaign,
        web_run_seeds,
    )

    if not _artifacts_writable(args):
        return 1
    try:
        spec = WebRunSpec(
            ft_mode=args.mode,
            n_requests=args.requests,
            concurrency=args.concurrency,
            n_faults=args.faults,
            fault_class=args.fault_class,
            arrivals=args.arrivals,
            load=args.load,
            phases=args.phases,
            slo_us=args.slo_us,
            arrival_seed=args.arrival_seed,
        )
    except ValueError as exc:
        print(f"invalid fig7 spec: {exc}", file=sys.stderr)
        return 1
    # 0 = one worker per CPU, matching the campaign Make targets.
    workers = args.workers or (os.cpu_count() or 1)
    shape = (
        f"open-loop load {args.load:g} ({args.phases})"
        if args.arrivals == "open"
        else f"concurrency {args.concurrency}"
    )
    print(
        f"Fig. 7 campaign: {args.seeds} seeded runs x {args.requests} "
        f"requests, {shape} ({args.mode} stubs, {args.fault_class} "
        f"faults, {workers} worker(s))"
    )
    result = run_webserver_campaign(
        web_run_seeds(args.seed, args.seeds),
        spec,
        workers=workers,
        trace=args.trace,
    )
    print(format_web_campaign(result))
    _report_campaign(
        args, result.setup_wall, result.exec_wall, len(result.rows),
        result.write_json,
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.core.compiler import SuperGlueCompiler
    from repro.idl_specs import SERVICES, load_idl

    if args.interface in SERVICES:
        source = load_idl(args.interface)
        name = args.interface
    elif os.path.exists(args.interface):
        with open(args.interface, "r", encoding="utf-8") as handle:
            source = handle.read()
        name = ""
    else:
        print(f"unknown interface {args.interface!r}", file=sys.stderr)
        return 1
    compiled = SuperGlueCompiler().compile_source(source, name=name)
    ir = compiled.ir
    print(f"interface     : {ir.name}")
    print(f"IDL LOC       : {compiled.idl_loc}")
    print(f"generated LOC : {compiled.generated_loc}")
    print(f"mechanisms    : {', '.join(ir.mechanisms())}")
    print(f"functions     : {', '.join(ir.functions)}")
    print(f"tracked meta  : {', '.join(ir.meta_names())}")
    if args.show_source:
        print("\n" + compiled.client_source)
        print("\n" + compiled.server_source)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SuperGlue (DSN 2016) reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="SWIFI fault-injection campaign")
    p.add_argument("--faults", type=int, default=100)
    p.add_argument("--mode", choices=("superglue", "c3"), default="superglue")
    p.add_argument(
        "--fault-class",
        choices=("reg", "mem", "idl", "burst"),
        default="reg",
        help="fault model: register SEUs (default), memory-image bit "
        "flips, IDL-boundary fuzzing, or correlated bursts",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="process-pool size (default: all CPUs)",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="JSONL journal: checkpoint completed runs and resume from it",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the Table II rows as a JSON artifact",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record every run under the flight recorder and export the "
        "event journals + metrics to this JSONL trace artifact",
    )
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("trace", help="render a flight-recorder artifact")
    p.add_argument("path", help="JSONL trace artifact (from table2 --trace)")
    p.add_argument(
        "--run",
        type=int,
        metavar="SEED",
        default=None,
        help="render the timeline for this run seed (default: the most "
        "interesting recovery arc)",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="include every event (default: recovery-relevant events only)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="validate every line against the event schema and exit",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("fig6", help="overhead + LOC tables")
    p.add_argument("--runs", type=int, default=20)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("fig7", help="web-server throughput")
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument(
        "--seeds",
        type=int,
        metavar="N",
        default=None,
        help="campaign mode: N seeded faulted runs through the pooled "
        "parallel campaign engine (default: single-run comparison table)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign mode: process-pool size "
        "(default: 1, in-process; 0 = one per CPU)",
    )
    p.add_argument(
        "--mode", choices=("none", "c3", "superglue"), default="superglue",
        help="campaign mode: stub flavor (default: superglue)",
    )
    p.add_argument(
        "--concurrency", type=int, default=10,
        help="campaign mode: max outstanding requests (ab -c; default 10)",
    )
    p.add_argument(
        "--faults", type=int, default=3,
        help="campaign mode: SWIFI faults armed per run (default 3)",
    )
    p.add_argument(
        "--fault-class",
        choices=("reg", "mem", "idl", "burst"),
        default="reg",
        help="SWIFI fault model for faulted runs (default: register SEUs)",
    )
    p.add_argument(
        "--arrivals",
        choices=("closed", "open"),
        default="closed",
        help="closed = ab-style bounded concurrency; open = requests "
        "arrive on a virtual-time Poisson schedule regardless of "
        "backlog (heavy-tailed sizes, SLO-scored)",
    )
    p.add_argument(
        "--load", type=float, default=1.0,
        help="open arrivals: offered-load multiplier; 1.0 offers about "
        "one virtual CPU of service demand (default 1.0)",
    )
    p.add_argument(
        "--phases", default="steady",
        help="open arrivals: phase schedule - steady, burst, diurnal, "
        "or name:frac@rate,... (default steady)",
    )
    p.add_argument(
        "--slo-us", type=int, default=500,
        help="open arrivals: arrival-to-response deadline in virtual "
        "microseconds (default 500)",
    )
    p.add_argument(
        "--arrival-seed", type=int, default=0,
        help="open arrivals: seed of the arrival schedule itself "
        "(shared by every run seed; default 0)",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="campaign mode: write rows + aggregate as a JSON artifact",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="campaign mode: record runs under the flight recorder and "
        "export a JSONL trace artifact",
    )
    p.set_defaults(fn=_cmd_fig7)

    p = sub.add_parser("compile", help="compile one IDL interface")
    p.add_argument("interface", help="service name or path to an .idl file")
    p.add_argument("--show-source", action="store_true")
    p.set_defaults(fn=_cmd_compile)

    args = parser.parse_args(argv)
    from repro.errors import ConfigurationError

    try:
        # The engine reads its REPRO_* gates once, on this import.
        import repro.config  # noqa: F401
    except ConfigurationError as exc:
        print(f"error: ConfigurationError: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
