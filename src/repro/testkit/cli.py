"""``python -m repro conformance`` — run a conformance campaign.

Runs a named grid (or one ad-hoc ``--config`` cell) through the
invariant-checker registry, prints a campaign summary, optionally
writes the JSON report, shrinks violations to minimal reproducers, and
exits 1 when any invariant fired (2 on usage errors).

``--selftest-break NAME`` injects an always-failing checker under the
given name.  This exists to exercise the violation path end-to-end —
the shrinker, the report, and the embedded repro command line — against
a healthy protocol; the emitted repro command carries the same flag, so
it reproduces the "failure" faithfully.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import CampaignConfig
from .grids import GRIDS, grid_configs
from .invariants import (
    DEFAULT_ALPHA,
    CheckOutcome,
    ConfigEvidence,
    InvariantChecker,
    default_registry,
)
from .report import CampaignReport, canonical_report_json
from .runner import ConfigResult, run_campaign
from .shrink import shrink_config

#: At most this many violating configs are shrunk per campaign (one per
#: distinct invariant first); shrinking re-runs the protocol many times
#: and one minimal reproducer per failure mode is what a human needs.
MAX_SHRINKS = 5


class SelfTestChecker(InvariantChecker):
    """An intentionally broken checker: fails on every config.

    Used (via ``--selftest-break``) to validate the campaign's failure
    machinery itself — shrinking, report generation, repro commands —
    without needing a real protocol bug.
    """

    description = "intentionally failing self-test checker"

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, ev: ConfigEvidence) -> CheckOutcome:
        return CheckOutcome(
            invariant=self.name,
            applicable=True,
            passed=False,
            stats={"selftest": True, "trials": len(ev.trials)},
            message=(
                "self-test checker injected via --selftest-break "
                "(always fails by design)"
            ),
        )


def build_registry(
    alpha: float = DEFAULT_ALPHA, selftest_break: str | None = None
) -> dict[str, InvariantChecker]:
    registry = default_registry(alpha)
    if selftest_break:
        if selftest_break in registry:
            raise ValueError(
                f"--selftest-break name {selftest_break!r} collides with "
                "a real invariant"
            )
        registry[selftest_break] = SelfTestChecker(selftest_break)
    return registry


def configure_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--grid", default="smoke", choices=sorted(GRIDS),
        help="named campaign grid to run (default: smoke)",
    )
    p.add_argument(
        "--config", metavar="JSON",
        help="run a single ad-hoc config (JSON object; overrides --grid)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; every trial seed derives from it (default 0)",
    )
    p.add_argument(
        "--budget", type=int, default=None, metavar="RUNS",
        help="cap on total protocol executions; excess configs are "
        "skipped deterministically",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="write the JSON campaign report here",
    )
    p.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="shrink violating configs to minimal reproducers "
        "(default: on; --no-shrink for repro runs)",
    )
    p.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="statistical tolerance of the binomial checkers "
        f"(default {DEFAULT_ALPHA:g})",
    )
    p.add_argument(
        "--selftest-break", metavar="NAME", default=None,
        help="inject an always-failing checker under NAME (exercises "
        "the shrink/report pipeline against a healthy protocol)",
    )
    p.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="append per-trial telemetry records (JSONL) to this store "
        "(rendered by `python -m repro dashboard`)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON report instead of the summary",
    )


def cmd_conformance(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        registry = build_registry(args.alpha, args.selftest_break)
    except ValueError as exc:
        print(f"conformance: {exc}", file=sys.stderr)
        return 2

    if args.config:
        try:
            config = CampaignConfig.from_json(args.config)
            config.validate()
        except ValueError as exc:
            print(f"conformance: bad --config: {exc}", file=sys.stderr)
            return 2
        configs = [config]
        grid_name = "custom"
    else:
        configs = grid_configs(args.grid)
        grid_name = args.grid

    def progress(result: ConfigResult) -> None:
        mark = "ok" if result.ok else "FAIL"
        print(
            f"  {result.config.name:<44} [{mark}]"
            + (
                ""
                if result.ok
                else " " + ",".join(o.invariant for o in result.violations)
            ),
            file=sys.stderr,
        )

    print(
        f"conformance: running {len(configs)} config(s) of grid "
        f"{grid_name!r} (seed {args.seed})",
        file=sys.stderr,
    )
    results, skipped = run_campaign(
        configs,
        campaign_seed=args.seed,
        registry=registry,
        budget=args.budget,
        progress=progress,
    )

    shrinks = []
    if args.shrink:
        seen_invariants: set[str] = set()
        for result in results:
            if result.ok or len(shrinks) >= MAX_SHRINKS:
                continue
            invariant = result.violations[0].invariant
            if invariant in seen_invariants:
                continue
            seen_invariants.add(invariant)
            print(
                f"conformance: shrinking {result.config.name} "
                f"({invariant}) ...",
                file=sys.stderr,
            )
            shrinks.append(
                shrink_config(
                    result.config,
                    invariant,
                    campaign_seed=args.seed,
                    registry=registry,
                )
            )

    report = CampaignReport(
        grid=grid_name,
        campaign_seed=args.seed,
        results=results,
        skipped=skipped,
        shrinks=shrinks,
        budget=args.budget,
        selftest_break=args.selftest_break,
        duration_ms=(time.perf_counter() - started) * 1e3,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"conformance: report written to {args.report}",
              file=sys.stderr)
    if args.telemetry:
        from .telemetry import TelemetryStore

        written = TelemetryStore(args.telemetry).append_results(
            results, campaign_seed=args.seed
        )
        print(
            f"conformance: appended {written} telemetry record(s) to "
            f"{args.telemetry}",
            file=sys.stderr,
        )
    if args.json:
        print(canonical_report_json(report))
    else:
        print(report.render_text())
    return 0 if report.ok else 1
