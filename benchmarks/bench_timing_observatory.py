"""Runtime — virtual-time observatory cost and makespan fidelity.

Two questions about the timing observatory (schema-v4 virtual clocks,
see ``repro.obs.timing``):

1. *Fidelity* — for a full-mesh exchange under each latency model, does
   the observed virtual makespan match the analytic per-round
   expectation ``rounds * E[max of (n-1) samples]``?  Virtual time is
   deterministic given the seed, so the makespan columns are exact
   gating metrics: any drift means the clock semantics changed.
2. *Overhead* — what does stamping the trace cost?  Under a network
   model the engine advances virtual clocks whether or not a tracer is
   attached, so the traced/untraced ratio isolates the cost of event
   recording itself.

The observed-makespan and predicted-makespan columns are deterministic
(bench-check gates on them); the wall-clock overhead column is
informational.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import report

from repro.network import RoundOutput, run_protocol
from repro.network.runtime import (
    FixedLatency,
    NetworkModel,
    UniformLatency,
    ZeroLatency,
)
from repro.obs import Tracer

ROUNDS = 30
REPEATS = 3


def _mesh_programs(n: int, rounds: int = ROUNDS):
    """Full-mesh exchange: n*(n-1) private messages per round."""

    def prog(pid: int):
        inbox = yield RoundOutput(
            private={q: [pid] for q in range(n) if q != pid},
        )
        for _ in range(rounds - 1):
            total = sum(v for vals in inbox.private.values() for v in vals)
            inbox = yield RoundOutput(
                private={q: [total] for q in range(n) if q != pid},
            )
        return None

    return {pid: prog(pid) for pid in range(n)}


def _models():
    return [
        ("zero", ZeroLatency()),
        ("fixed-2ms", FixedLatency(base_ms=2.0)),
        ("jitter-1+5ms", UniformLatency(base_ms=1.0, jitter_ms=5.0)),
    ]


def _run(n: int, latency, tracer=None):
    network = NetworkModel(latency=latency, seed=7)
    start = time.perf_counter()
    result = run_protocol(_mesh_programs(n), network=network, tracer=tracer)
    return time.perf_counter() - start, result


def test_timing_observatory(benchmark):
    rows = []

    def run():
        rows.clear()
        for n in (3, 5, 8):
            for label, latency in _models():
                wall_plain, result = _run(n, latency)
                wall_plain = min(
                    wall_plain,
                    *(_run(n, latency)[0] for _ in range(REPEATS - 1)),
                )
                wall_traced = min(
                    _run(n, latency, tracer=Tracer())[0]
                    for _ in range(REPEATS)
                )
                observed = result.metrics.makespan_ms
                # Each party waits on its n-1 inbound messages per
                # round; the cross-party selection effect makes the
                # observed drift sit slightly above this per-party
                # expectation under jitter.
                predicted = ROUNDS * latency.expected_round_ms(n - 1)
                delta = (observed - predicted) / predicted if predicted else 0.0
                rows.append(
                    (
                        f"n={n}/{label}",
                        result.metrics.rounds,
                        round(observed, 3),
                        round(predicted, 3),
                        round(delta * 100, 1),
                        round(wall_traced / wall_plain, 2),
                    )
                )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "timing_observatory",
        "Virtual-time observatory: makespan fidelity and tracing overhead",
        ["config", "rounds", "observed makespan ms", "predicted makespan ms",
         "delta %", "trace overhead"],
        rows,
        notes="virtual makespans are deterministic given the network\n"
              "model's seed, so the makespan columns gate clock-semantics\n"
              "regressions exactly; the overhead column (traced / untraced\n"
              "wall clock, best of {r}) is informational — the engine\n"
              "advances virtual clocks either way, tracing only adds event\n"
              "recording.".format(r=REPEATS),
    )
    for key, rounds, observed, predicted, delta_pct, overhead in rows:
        assert rounds == ROUNDS
        if key.endswith("zero"):
            assert observed == 0.0 and predicted == 0.0
        elif key.endswith("fixed-2ms"):
            # Fixed latency: every round advances by exactly base_ms.
            assert abs(observed - predicted) < 1e-9
        else:
            # Jitter: above the per-party expectation (selection across
            # parties), but within 50% of it.
            assert -5.0 <= delta_pct <= 50.0
        # Event recording must not dominate the run.
        assert overhead < 10.0
