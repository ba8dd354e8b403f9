"""AnonChan session benchmark.

Runs AnonChan sessions back to back in one process on one thread (a
closed loop with one client), checks every session, and prints one JSON
result as the last line of standard output::

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced sessions, each
timed against a session of the same seed on the pinned build of
``repro`` (``pinned/repro.zip``) that runs at the same time on the same
CPU; ``--trace 1`` alternates untraced and traced sessions of the same
seeds and reports the per-layer metrics (see NOTES.md).  Run it from the root
of the repository; it imports ``repro`` from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``active-adversary`` runs here and in the smoke test, but BENCHMARK.json
#: gates only the other two (see NOTES.md, "Gated workloads").
WORKLOAD_NAMES = ("paper-scale", "active-adversary", "bgw")
#: Environment knobs of execution paths that are being removed; a run
#: under any of them would measure a path the benchmark does not define.
REFUSED_ENV = ("REPRO_FORCE_SCALAR", "REPRO_DEFAULT_TRANSPORT", "REPRO_TABLE_FREE_MIN")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Session pairs per untraced run, at least, however short ``--seconds``.
#: The counts (``wire_elements``, ``rounds``) are medians over the first
#: ``MIN_PAIRS`` sessions, which depend on ``--seed`` alone.
MIN_PAIRS = 3
#: The pinned build of ``repro`` that the relative timings divide by;
#: ``pin.py`` writes it and prints this digest.
PINNED_ZIP = HERE / "pinned" / "repro.zip"
PINNED_SHA256 = "2e3c90c4fce5054ea32f51bbba7609bb1dcd577ee528420c96703dcb11a3404d"

END_TO_END_UNITS = {
    "session_cpu_rel": "ratio",
    "delivered_per_cpu_s_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_elements": "count",
    "rounds": "count",
    "delivered_share": "ratio",
    "ok_share": "ratio",
}
PER_LAYER_UNITS = {
    "fields.kernel_calls": "count",
    "fields.kernel_s": "s",
    "fields.kernel_elements": "count",
    "fields.table_hit_ratio": "ratio",
    "sharing.calls": "count",
    "sharing.s": "s",
    "sharing.rs_decode_calls": "count",
    "sharing.rs_decode_s": "s",
    "vss.deal_s": "s",
    "vss.open_s": "s",
    "vss.batch_calls": "count",
    "vss.batch_s": "s",
    "vss.combine_s": "s",
    "vss.self_s": "s",
    "vss.disqualified_dealers": "count",
    "core.step1_s": "s",
    "core.step2_s": "s",
    "core.step3_s": "s",
    "core.step4_s": "s",
    "core.self_s": "s",
    "core.cheaters_passed": "count",
    "network.engine_s": "s",
    "network.sizing_calls": "count",
    "network.sizing_s": "s",
    "network.private_messages": "count",
    "network.broadcast_rounds": "count",
    "interp.gc_s": "s",
    "bench.adversary_s": "s",
    "bench.traced_session_s": "s",
    "bench.unattributed_share": "ratio",
    "bench.trace_overhead_share": "ratio",
    "bench.cold_excess_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def refuse_removed_knobs(environ=os.environ) -> None:
    found = [name for name in REFUSED_ENV if name in environ]
    if found:
        raise BenchError(
            f"refusing to run with {', '.join(found)} set: the benchmark "
            "measures the default execution path only"
        )


# -- environment fingerprint ---------------------------------------------


def fingerprint() -> dict:
    """Python, numpy, CPUs, CPU model, load at start, source revision."""
    import numpy

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "load1_at_start": load1,
        "loaded": load1 > nproc,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Digest of ``src/**/*.py``: identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- set-up time ---------------------------------------------------------

_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import workloads\n"
    "workloads.build({name!r}, {scale!r})\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(name: str, scale: str) -> list[float]:
    """``import repro`` plus params and VSS scheme, in fresh interpreters."""
    code = _PROBE.format(src=str(SRC), here=str(HERE), name=name, scale=scale)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# -- the pinned build ----------------------------------------------------


def check_pinned() -> None:
    if not PINNED_ZIP.is_file():
        raise BenchError(f"no pinned build at {PINNED_ZIP}")
    digest = hashlib.sha256(PINNED_ZIP.read_bytes()).hexdigest()
    if digest != PINNED_SHA256:
        raise BenchError(f"pinned build has sha256 {digest}, expected {PINNED_SHA256}")


class PinnedWorker:
    """``pinned_worker.py`` in a child interpreter: one session per seed.

    A context manager; on the way out it closes the worker's input and
    waits for it to exit, killing it if it does not.
    """

    def __init__(self, name: str, scale: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pinned_worker.py"), name, scale],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "PinnedWorker":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def send(self, seed: int) -> None:
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the pinned worker exited without an answer")
        answer = json.loads(line)
        if answer["failures"]:
            raise BenchError(f"the pinned build failed a session: {answer['failures']}")
        return answer


# -- the measured loop ---------------------------------------------------


def session_seeds(name: str, seed: int):
    """Session seeds drawn from the benchmark seed (same seed, same inputs)."""
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.getrandbits(31)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _failures(results) -> int:
    return sum(1 for r in results if not r.ok)


def _fits(start: float, seconds: float, next_s: float) -> bool:
    """Whether one more step, as long as the last, ends within the window."""
    return time.perf_counter() - start + next_s <= seconds


def _check_repeat(first, again) -> None:
    if first.ok and again.ok and first.fingerprint() != again.fingerprint():
        again.failures.append(
            f"re-run of seed {first.seed} differs in Y, PASS or wire elements"
        )


def _rate(found: int, seconds: float) -> float:
    return found / seconds if seconds else 0.0


def measure_untraced(
    setup, seeds, seconds: float, run_session, pinned: PinnedWorker
) -> tuple[list, dict]:
    """Pairs of sessions on one seed: this build's and the pinned one's.

    The first pair is the first seed cold, untimed, on any CPUs.  Then
    both processes are pinned to one CPU, so the two sessions of a pair
    run at the same time, time-sliced by the kernel under the same host
    conditions, and each reports its own process CPU time.  The first
    timed pair re-runs the first seed warm.
    """
    def pair(seed):
        pinned.send(seed)
        mine = run_session(setup, seed)
        return mine, pinned.receive()

    first = next(seeds)
    cold, _ = pair(first)
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    os.sched_setaffinity(pinned.proc.pid, cpu)
    start = time.perf_counter()
    pairs = [pair(first)]
    pair_s = time.perf_counter() - start
    _check_repeat(cold, pairs[0][0])
    while len(pairs) < MIN_PAIRS or _fits(start, seconds, pair_s):
        began = time.perf_counter()
        pairs.append(pair(next(seeds)))
        pair_s = time.perf_counter() - began
    good = [(mine, base) for mine, base in pairs if mine.ok]
    counted = [mine for mine, _ in pairs[:MIN_PAIRS] if mine.ok]
    sent = sum(mine.honest_sent for mine, _ in good)
    found = sum(mine.honest_found for mine, _ in good)
    base_rate = _rate(
        sum(base["honest_found"] for _, base in good),
        sum(base["cpu_s"] for _, base in good),
    )
    attempted = [cold, *(mine for mine, _ in pairs)]
    print("raw: " + json.dumps({
        "pairs": len(pairs),
        "session_cpu_s": _median(mine.cpu_s for mine, _ in good),
        "pinned_session_cpu_s": _median(base["cpu_s"] for _, base in good),
    }), flush=True)
    metrics = {
        "session_cpu_rel": _median(mine.cpu_s / base["cpu_s"] for mine, base in good),
        "delivered_per_cpu_s_rel": (
            _rate(found, sum(mine.cpu_s for mine, _ in good)) / base_rate
            if base_rate else 0.0
        ),
        "wire_elements": _median(r.wire_elements for r in counted),
        "rounds": _median(r.rounds for r in counted),
        "delivered_share": found / sent if sent else 0.0,
        "ok_share": 1.0 - _failures(attempted) / len(attempted),
    }
    return attempted, metrics


def measure_traced(setup, seeds, seconds: float, run_session) -> tuple[list, dict]:
    first = next(seeds)
    cold = run_session(setup, first)
    start = time.perf_counter()
    pairs = []
    seed = first
    while not pairs or _fits(start, seconds, pairs[-1][0].wall_s + pairs[-1][1].wall_s):
        plain = run_session(setup, seed)
        traced = run_session(setup, seed, traced=True)
        _check_repeat(plain, traced)
        pairs.append((plain, traced))
        seed = next(seeds)
    _check_repeat(cold, pairs[0][0])
    attempted = [cold, *(r for pair in pairs for r in pair)]
    good = [t for _, t in pairs if t.ok]
    per_session = [layer_metrics(r) for r in good]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in per_session[0] if per_session else ():
        metrics[name] = statistics.fmean(m[name] for m in per_session)
    hits = sum(r.table_hits for r in good)
    lookups = hits + sum(r.table_misses for r in good)
    plain_wall = _median(p.wall_s for p, _ in pairs if p.ok)
    traced_wall = _median(t.wall_s for t in good)
    metrics["fields.table_hit_ratio"] = hits / lookups if lookups else 0.0
    if plain_wall:
        metrics["bench.trace_overhead_share"] = (traced_wall - plain_wall) / plain_wall
        metrics["bench.cold_excess_s"] = cold.wall_s - plain_wall
    return attempted, metrics


def step_seconds(events, end_ns: int) -> dict[str, float]:
    """Steps 1-4 from the ``Tracer`` step spans of the trace owner.

    Step k runs from its first span's start to the next step's first
    span start; step 4 runs to the end of the session.
    """
    starts: dict[str, int] = {}
    for event in events:
        if event.kind == "span_start" and event.name.startswith("step "):
            step = event.name[5]
            starts.setdefault(step, event.t_ns)
    ordered = sorted(starts.items(), key=lambda item: item[1])
    out = {f"core.step{k}_s": 0.0 for k in "1234"}
    for (step, begin), following in zip(ordered, [*ordered[1:], (None, end_ns)]):
        key = f"core.step{step}_s"
        if key in out:
            out[key] += (following[1] - begin) / 1e9
    return out


def layer_metrics(result) -> dict[str, float]:
    """Per-layer figures of one traced session (see NOTES.md)."""
    from layers import fold

    totals = fold(result.spans)
    calls, inclusive, own = totals.calls, totals.inclusive_s, totals.self_s
    layer_self = totals.layer_self_s
    metrics = {
        "fields.kernel_calls": calls.get("fields.kernel", 0),
        "fields.kernel_s": layer_self["fields"],
        "fields.kernel_elements": totals.items.get("fields.kernel", 0),
        "sharing.calls": totals.entries.get("sharing", 0),
        "sharing.s": layer_self["sharing"],
        "sharing.rs_decode_calls": calls.get("sharing.rs", 0),
        "sharing.rs_decode_s": inclusive.get("sharing.rs", 0.0),
        "vss.deal_s": inclusive.get("vss.deal", 0.0),
        "vss.open_s": inclusive.get("vss.open", 0.0),
        "vss.batch_calls": calls.get("vss.batch", 0),
        "vss.batch_s": inclusive.get("vss.batch", 0.0),
        "vss.combine_s": inclusive.get("vss.combine", 0.0),
        "vss.self_s": layer_self["vss"],
        "vss.disqualified_dealers": result.disqualified,
        "core.self_s": layer_self["core"],
        "core.cheaters_passed": result.cheaters_passed,
        "network.engine_s": layer_self["network"],
        "network.sizing_calls": calls.get("network.sizing", 0),
        "network.sizing_s": inclusive.get("network.sizing", 0.0),
        "network.private_messages": result.private_messages,
        "network.broadcast_rounds": result.broadcast_rounds,
        "interp.gc_s": result.gc_s,
        "bench.adversary_s": own.get("bench.adversary", 0.0),
        "bench.traced_session_s": totals.root_s,
        "bench.unattributed_share": (
            own.get("bench.session", 0.0) / totals.root_s if totals.root_s else 0.0
        ),
    }
    metrics.update(step_seconds(result.trace_events, result.spans[0].end_ns))
    return metrics


def run(args) -> dict:
    refuse_removed_knobs()
    if not (SRC / "repro").is_dir():
        raise BenchError(f"no repro package under {SRC}")
    if not args.trace:
        check_pinned()
    env = fingerprint()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    if env["loaded"]:
        print(
            f"warning: 1-minute load {env['load1_at_start']:.2f} is above "
            f"nproc {env['nproc']} at start", file=sys.stderr,
        )
    setup_times = [] if args.trace else setup_seconds(args.workload, args.scale)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    setup = workloads.build(args.workload, args.scale)
    seeds = session_seeds(args.workload, args.seed)
    if args.trace:
        attempted, metrics = measure_traced(
            setup, seeds, args.seconds, workloads.run_session
        )
    else:
        with PinnedWorker(args.workload, args.scale) as pinned:
            attempted, metrics = measure_untraced(
                setup, seeds, args.seconds, workloads.run_session, pinned
            )
    if not args.trace:
        metrics["setup_s"] = _median(setup_times)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = _failures(attempted)
    for result in attempted:
        for failure in result.failures:
            print(f"session {result.seed}: {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the harness smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
