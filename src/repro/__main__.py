"""Command-line interface: ``python -m repro <command>``.

Commands
--------
demo
    Run one anonymous transmission (optionally with a jammer) and print
    the receiver's multiset.
schedule
    Print the round-by-round schedule for a parameter set/VSS profile.
rounds
    Print the round-complexity comparison table (experiment E1).
params
    Show paper-exact vs scaled parameters for a given n.
trace-run
    Run one instrumented execution (see :mod:`repro.obs`), print the
    run report, and optionally export the JSONL event stream.
profile-run
    Like trace-run, but with the compute-layer op profiler attached
    (see :mod:`repro.obs.profiler`): the exported trace carries schema-v2
    ``prof`` events and ``--flamegraph`` writes collapsed-stack lines.
report
    Validate and render a previously exported JSONL trace; ``--comm``
    adds the per-link communication report (see :mod:`repro.obs.comm`),
    ``--timing`` the virtual-time report — makespan, stragglers,
    critical path, predicted-vs-observed diff (:mod:`repro.obs.timing`).
timeline
    Export a schema-v4 trace as a Chrome trace-event JSON timeline,
    loadable in Perfetto / ``chrome://tracing``
    (see :mod:`repro.obs.timeline`).
obs-check
    Run the anomaly watchdog over an exported trace: stalled rounds,
    disqualification storms, comm hotspots, causal-order violations,
    and — on v4 traces — timing-causality violations, slow rounds, and
    critical-path domination (see :mod:`repro.obs.anomaly`); exits 1 on
    any finding.  ``--timing`` additionally *requires* virtual-time
    stamps, so a pre-v4 trace fails instead of passing vacuously.
dashboard
    Render the self-contained HTML telemetry dashboard from campaign
    reports, telemetry stores, BENCH history, and traces
    (see :mod:`repro.obs.dashboard`).
flamegraph
    Convert an exported trace's ``prof`` events to collapsed-stack
    lines for standard flamegraph renderers.
bench-check
    Compare current ``BENCH_*.json`` payloads against committed
    baselines and exit non-zero on perf regressions
    (see :mod:`repro.obs.bench`).
conformance
    Run a protocol-conformance campaign: seed-swept adversarial
    configurations checked against the paper's invariants, with
    automatic shrinking of violations (see :mod:`repro.testkit`).
lint
    Run the protocol-aware static analyzer (see :mod:`repro.lint`).
flowcheck
    ``lint --flow``: the whole-program secret-taint, call-graph
    layering, and concurrency-readiness passes (see
    :mod:`repro.lint.flow`).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import AnonymousChannel

    chan = AnonymousChannel(n=args.n)
    messages = {i: 100 + i for i in range(args.n)}
    corrupt = chan.jamming_attack(args.n - 1, seed=7) if args.jam else None
    report = chan.send(messages, seed=args.seed, corrupt_materials=corrupt)
    print(f"n={args.n}, t={chan.params.t}, receiver=P0"
          + (", jammer=P" + str(args.n - 1) if args.jam else ""))
    print(f"rounds: {report.rounds}   broadcast rounds: {report.broadcast_rounds}")
    if report.disqualified:
        print(f"disqualified: {sorted(report.disqualified)}")
    print("receiver's multiset Y:")
    for value, count in sorted(report.delivered.items()):
        print(f"  {value}  x{count}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core import scaled_parameters
    from repro.core.trace import format_schedule
    from repro.vss import PROFILES

    profile = PROFILES[args.vss]
    params = scaled_parameters(n=args.n)
    print(format_schedule(params, profile.cost))
    return 0


def _cmd_rounds(args: argparse.Namespace) -> int:
    from repro.analysis import comparison_table

    print(f"{'n':>4}  {'protocol':<22} {'rounds':>7}  notes")
    for n in (5, 9, 13, 21, 31):
        for est in comparison_table(n):
            print(f"{n:>4}  {est.protocol:<22} {est.rounds:>7}  {est.note}")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.core import paper_parameters, scaled_parameters

    paper = paper_parameters(args.n)
    scaled = scaled_parameters(args.n)
    print(f"{'':<14}{'paper-exact':>16} {'scaled':>10}")
    for name in ("kappa", "d", "ell", "num_checks"):
        print(f"{name:<14}{getattr(paper, name):>16,} "
              f"{getattr(scaled, name):>10,}")
    print(f"{'VSS sharings':<14}"
          f"{paper.values_per_dealer * paper.n + paper.values_receiver:>16,} "
          f"{scaled.values_per_dealer * scaled.n + scaled.values_receiver:>10,}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.core import run_anonchan, scaled_parameters
    from repro.core.adversaries import jamming_material
    from repro.obs import RunReport, Tracer, write_jsonl
    from repro.vss import PROFILES, IdealVSS

    import random

    params = scaled_parameters(n=args.n)
    profile = PROFILES[args.vss]
    vss = IdealVSS(params.field, params.n, params.t, cost=profile.cost)
    messages = {i: params.field(100 + i) for i in range(args.n)}
    corrupt = None
    if args.jam:
        corrupt = {
            args.n - 1: jamming_material(params, random.Random(args.seed))
        }
    network = None
    if args.latency_ms or args.jitter_ms:
        from repro.network.runtime.models import (
            FixedLatency,
            NetworkModel,
            UniformLatency,
        )

        try:
            latency = (
                UniformLatency(
                    base_ms=args.latency_ms, jitter_ms=args.jitter_ms
                )
                if args.jitter_ms
                else FixedLatency(base_ms=args.latency_ms)
            )
        except ValueError as exc:
            print(f"trace-run: {exc}", file=sys.stderr)
            return 2
        network = NetworkModel(latency=latency, seed=args.seed)
    tracer = Tracer()
    run_anonchan(
        params,
        vss,
        messages,
        seed=args.seed,
        corrupt_materials=corrupt,
        tracer=tracer,
        network=network,
    )
    report = RunReport.from_events(tracer.events)
    if args.out:
        count = write_jsonl(tracer.events, args.out)
        print(f"wrote {count} events to {args.out}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.matches_prediction else 1


def _cmd_profile_run(args: argparse.Namespace) -> int:
    from repro.core import run_anonchan, scaled_parameters
    from repro.core.adversaries import jamming_material
    from repro.obs import (
        OpProfiler,
        RunReport,
        Tracer,
        write_flamegraph,
        write_jsonl,
    )
    from repro.vss import PROFILES, IdealVSS

    import random

    params = scaled_parameters(n=args.n)
    profile = PROFILES[args.vss]
    vss = IdealVSS(params.field, params.n, params.t, cost=profile.cost)
    messages = {i: params.field(100 + i) for i in range(args.n)}
    corrupt = None
    if args.jam:
        corrupt = {
            args.n - 1: jamming_material(params, random.Random(args.seed))
        }
    tracer = Tracer()
    profiler = OpProfiler(tracer)
    run_anonchan(
        params,
        vss,
        messages,
        seed=args.seed,
        corrupt_materials=corrupt,
        tracer=tracer,
        profiler=profiler,
    )
    report = RunReport.from_events(tracer.events)
    if args.out:
        count = write_jsonl(tracer.events, args.out)
        print(f"wrote {count} events to {args.out}", file=sys.stderr)
    if args.flamegraph:
        count = write_flamegraph(profiler.records(), args.flamegraph)
        print(
            f"wrote {count} collapsed-stack lines to {args.flamegraph}",
            file=sys.stderr,
        )
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.matches_prediction else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import CommReport, RunReport, read_jsonl, validate_file

    errors = validate_file(args.trace)
    if errors:
        for error in errors:
            print(f"{args.trace}: {error}", file=sys.stderr)
        print(f"{args.trace}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.trace}: schema ok")
        return 0
    events = read_jsonl(args.trace)
    report = RunReport.from_events(events)
    ok = report.matches_prediction
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    if args.comm:
        comm = CommReport.from_events(events)
        ok = ok and comm.matches_prediction
        if args.json:
            print(comm.to_json())
        else:
            print()
            print(comm.render_text())
    if args.timing:
        import json

        from repro.obs import TimingReport

        timing = TimingReport.from_events(events, tolerance=args.tolerance)
        if timing.predicted_makespan_ms is not None:
            ok = ok and timing.makespan_ok
        if args.json:
            print(json.dumps(timing.to_dict(), indent=2))
        else:
            print()
            print(timing.render_text())
    return 0 if ok else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import TimingReport, read_jsonl, validate_file, write_chrome_trace

    errors = validate_file(args.trace)
    if errors:
        for error in errors:
            print(f"{args.trace}: {error}", file=sys.stderr)
        print(f"{args.trace}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 2
    events = read_jsonl(args.trace)
    if not TimingReport.from_events(events).has_timing:
        print(
            f"{args.trace}: no virtual-time stamps (schema v4 required; "
            "re-export with `python -m repro trace-run --out ...`)",
            file=sys.stderr,
        )
        return 1
    count = write_chrome_trace(events, args.out)
    print(
        f"timeline: wrote {count} trace events to {args.out} "
        "(open in https://ui.perfetto.dev or chrome://tracing)",
        file=sys.stderr,
    )
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, scan_events, validate_file

    try:
        errors = validate_file(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 2
    if errors:
        for error in errors:
            print(f"{args.trace}: {error}", file=sys.stderr)
        print(f"{args.trace}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 2
    events = read_jsonl(args.trace)
    findings = scan_events(events)
    if args.timing:
        from repro.obs import TimingReport

        if not TimingReport.from_events(events).has_timing:
            print(
                f"obs-check: {args.trace} carries no virtual-time stamps "
                "(--timing requires a schema-v4 trace)",
                file=sys.stderr,
            )
            return 1
    if args.json:
        import json

        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"obs-check: {len(findings)} anomaly(ies) in {args.trace}",
              file=sys.stderr)
        return 1
    print(f"obs-check: {args.trace} is clean", file=sys.stderr)
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    import json

    from repro.obs import CommReport, read_jsonl, render_dashboard
    from repro.obs.bench import load_history

    campaign = None
    if args.campaign:
        try:
            with open(args.campaign, "r", encoding="utf-8") as fh:
                campaign = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"dashboard: {args.campaign}: {exc}", file=sys.stderr)
            return 2
    telemetry = None
    if args.telemetry:
        from repro.testkit.telemetry import TelemetryStore

        telemetry = TelemetryStore(args.telemetry).load()
    bench_history = load_history(args.bench_history) if args.bench_history else None
    comm = timing = None
    if args.trace:
        from repro.obs import TimingReport

        try:
            events = read_jsonl(args.trace)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"dashboard: {args.trace}: {exc}", file=sys.stderr)
            return 2
        comm = CommReport.from_events(events).to_dict()
        timing = TimingReport.from_events(events).to_dict()
    page = render_dashboard(
        campaign=campaign,
        telemetry=telemetry,
        bench_history=bench_history,
        comm=comm,
        timing=timing,
        title=args.title,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(page)
    print(f"dashboard: wrote {args.out} ({len(page)} bytes)", file=sys.stderr)
    return 0


def _cmd_flamegraph(args: argparse.Namespace) -> int:
    from repro.obs import flamegraph_lines, read_jsonl, records_from_events

    try:
        events = read_jsonl(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 2
    records = records_from_events(events)
    if not records:
        print(
            f"{args.trace}: no prof events (profile with "
            "`python -m repro profile-run --out ...`)",
            file=sys.stderr,
        )
        return 1
    lines = flamegraph_lines(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} collapsed-stack lines to {args.out}",
              file=sys.stderr)
    else:
        try:
            print("\n".join(lines))
        except BrokenPipeError:  # downstream `| head` closed the pipe
            return 0
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import glob
    from pathlib import Path

    from repro.obs.bench import compare_payloads, load_bench

    files = args.files or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("bench-check: no BENCH_*.json files found", file=sys.stderr)
        return 2
    baseline_root = Path(args.baseline)
    failed = structural = compared = 0
    for current_path in files:
        name = Path(current_path).name
        baseline_path = (
            baseline_root / name if baseline_root.is_dir() else baseline_root
        )
        if not baseline_path.exists():
            print(f"{name}: no baseline at {baseline_path}, skipping",
                  file=sys.stderr)
            continue
        try:
            comparison = compare_payloads(
                load_bench(baseline_path),
                load_bench(current_path),
                threshold=args.threshold,
            )
        except (OSError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            structural += 1
            continue
        compared += 1
        print(comparison.render_table())
        regressions = comparison.regressions
        if regressions:
            failed += 1
            for delta in regressions:
                print(
                    f"  REGRESSION {comparison.experiment}/{delta.metric}: "
                    f"{delta.baseline:g} -> {delta.current:g} "
                    f"({delta.rel_delta:+.1%}, threshold "
                    f"±{args.threshold:.0%})"
                )
        print()
    if structural:
        return 2
    if compared == 0:
        print("bench-check: nothing compared (no baselines found)",
              file=sys.stderr)
        return 0
    if failed:
        verdict = f"bench-check: {failed}/{compared} experiment(s) regressed"
        if args.warn_only:
            print(verdict + " (warn-only mode, not failing)", file=sys.stderr)
            return 0
        print(verdict, file=sys.stderr)
        return 1
    print(f"bench-check: {compared} experiment(s) within thresholds",
          file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro import __version__

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward everything verbatim (argparse.REMAINDER would choke on
        # a leading option such as `repro lint --list-rules`).
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "flowcheck":
        # Shorthand for `lint --flow`: the whole-program secret-flow,
        # layering, and concurrency-readiness passes.
        from repro.lint.cli import main as lint_main

        return lint_main(["--flow", *argv[1:]])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast and unconditionally secure anonymous channel "
        "(PODC 2014) — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("demo", help="run one anonymous transmission")
    p.add_argument("-n", type=int, default=5, help="number of parties")
    p.add_argument("--jam", action="store_true", help="corrupt one party as a jammer")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("schedule", help="print the round schedule")
    p.add_argument("-n", type=int, default=5)
    p.add_argument("--vss", default="GGOR13",
                   choices=["RB89", "Rab94", "GGOR13", "BGW-impl", "RB89-impl"])
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("rounds", help="round-complexity comparison (E1)")
    p.set_defaults(fn=_cmd_rounds)

    p = sub.add_parser("params", help="paper-exact vs scaled parameters")
    p.add_argument("-n", type=int, default=5)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser(
        "trace-run",
        help="run one instrumented execution and print the run report",
    )
    p.add_argument("-n", type=int, default=5, help="number of parties")
    p.add_argument("--vss", default="GGOR13",
                   choices=["RB89", "Rab94", "GGOR13", "BGW-impl", "RB89-impl"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jam", action="store_true",
                   help="corrupt one party as a jammer")
    p.add_argument("--out", metavar="PATH",
                   help="also export the event stream as JSONL")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.add_argument("--latency-ms", type=float, default=0.0, metavar="MS",
                   help="per-message base link latency; stamps non-zero "
                   "v4 virtual times on the trace")
    p.add_argument("--jitter-ms", type=float, default=0.0, metavar="MS",
                   help="uniform per-message jitter on top of --latency-ms")
    p.set_defaults(fn=_cmd_trace_run)

    p = sub.add_parser(
        "profile-run",
        help="trace-run with the compute-layer op profiler attached",
    )
    p.add_argument("-n", type=int, default=5, help="number of parties")
    p.add_argument("--vss", default="GGOR13",
                   choices=["RB89", "Rab94", "GGOR13", "BGW-impl", "RB89-impl"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jam", action="store_true",
                   help="corrupt one party as a jammer")
    p.add_argument("--out", metavar="PATH",
                   help="export the schema-v2 event stream as JSONL")
    p.add_argument("--flamegraph", metavar="PATH",
                   help="write collapsed-stack lines (component;op;phase)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.set_defaults(fn=_cmd_profile_run)

    p = sub.add_parser(
        "report",
        help="validate and render an exported JSONL trace",
    )
    p.add_argument("trace", help="JSONL trace file (from trace-run --out)")
    p.add_argument("--validate", action="store_true",
                   help="schema-check only, print nothing else")
    p.add_argument("--comm", action="store_true",
                   help="also print the per-link communication report "
                   "(exit non-zero if it diverges from the bounds)")
    p.add_argument("--timing", action="store_true",
                   help="also print the virtual-time report: makespan, "
                   "stragglers, critical path, predicted-vs-observed diff "
                   "(exit non-zero if the makespan diverges)")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="relative makespan divergence tolerance for "
                   "--timing (default 0.25)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "timeline",
        help="export a v4 trace as a Chrome/Perfetto trace-event timeline",
    )
    p.add_argument("trace", help="JSONL trace file (from trace-run --out)")
    p.add_argument("--out", metavar="PATH", default="timeline.json",
                   help="output trace-event JSON (default: timeline.json)")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser(
        "obs-check",
        help="run the anomaly watchdog over a trace; exit 1 on findings",
    )
    p.add_argument("trace", help="JSONL trace file (from trace-run --out)")
    p.add_argument("--timing", action="store_true",
                   help="require v4 virtual-time stamps (fail on pre-v4 "
                   "traces instead of passing the timing checks vacuously)")
    p.add_argument("--json", action="store_true",
                   help="print findings as JSON instead of text")
    p.set_defaults(fn=_cmd_obs_check)

    p = sub.add_parser(
        "dashboard",
        help="render the self-contained HTML telemetry dashboard",
    )
    p.add_argument("--campaign", metavar="PATH",
                   help="conformance campaign report (JSON, from "
                   "`conformance --report`)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="per-trial telemetry store (JSONL, from "
                   "`conformance --telemetry`)")
    p.add_argument("--bench-history", metavar="PATH",
                   help="BENCH history store (JSONL, from "
                   "repro.obs.bench.append_history)")
    p.add_argument("--trace", metavar="PATH",
                   help="schema-v3+ trace for the comm heatmap (and, on "
                   "v4 traces, the timing panel)")
    p.add_argument("--out", metavar="PATH", default="dashboard.html",
                   help="output HTML file (default: dashboard.html)")
    p.add_argument("--title", default="repro observability dashboard",
                   help="page title")
    p.set_defaults(fn=_cmd_dashboard)

    p = sub.add_parser(
        "flamegraph",
        help="convert a trace's prof events to collapsed-stack lines",
    )
    p.add_argument("trace", help="JSONL trace file (from profile-run --out)")
    p.add_argument("--out", metavar="PATH",
                   help="write lines here instead of stdout")
    p.set_defaults(fn=_cmd_flamegraph)

    p = sub.add_parser(
        "bench-check",
        help="compare BENCH_*.json against baselines; non-zero on regression",
    )
    p.add_argument("files", nargs="*",
                   help="current BENCH_*.json files (default: ./BENCH_*.json)")
    p.add_argument("--baseline", default=".bench-baseline", metavar="DIR",
                   help="baseline dir (or single file) to compare against")
    p.add_argument("--threshold", type=float, default=0.20,
                   help="relative regression threshold (default 0.20)")
    p.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0")
    p.set_defaults(fn=_cmd_bench_check)

    p = sub.add_parser(
        "conformance",
        help="run a protocol-conformance campaign (repro.testkit)",
    )
    from repro.testkit.cli import cmd_conformance, configure_parser

    configure_parser(p)
    p.set_defaults(fn=cmd_conformance)

    sub.add_parser(
        "lint",
        help="run the protocol-aware static analyzer (repro.lint)",
        add_help=False,
    )
    sub.add_parser(
        "flowcheck",
        help="run the whole-program flow passes (lint --flow)",
        add_help=False,
    )

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("repro: error: a subcommand is required "
              "(see `python -m repro --help`)", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
