"""Pinned network-model fixtures: protocols x latency/compute/fault models.

Each fixture under ``data/`` records one execution: the ``repr`` of the
honest outputs in dict order, the full metrics (``makespan_ms``
included) and the canonical trace lines.  The grid covers an
order-sensitive mesh protocol, honest and jamming AnonChan, and an
adaptive-corruption run, each under zero latency, uniform jitter, fixed
latency with a linear compute cost, a delayed sender, a partition (the
broadcast channel survives it), a crash, within-round reordering, and
all of them combined.

The fixtures were pinned from the per-party asyncio runtime that used
to execute these models; ``test_network_fixtures.py`` replays every
one through the synchronous engine byte for byte.  Regenerate (only
for an intended semantic change) with::

    PYTHONPATH=src python -m tests.network.runtime.fixture_grid
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

from repro.core import run_anonchan, scaled_parameters
from repro.core.adversaries import jamming_material
from repro.network import Adversary, RoundOutput, run_protocol
from repro.network.runtime import (
    Crash,
    Delay,
    FixedLatency,
    LinearCost,
    NetworkModel,
    Partition,
    ReorderWithinRound,
    UniformLatency,
)
from repro.obs import Tracer
from repro.obs.export import canonical_lines
from repro.vss import IdealVSS, ReconstructionError

DATA = Path(__file__).parent / "data"

#: Network models by name, as :class:`NetworkModel` keyword arguments.
MODELS: dict[str, dict[str, Any]] = {
    "zero": {},
    "jitter": {
        "latency": UniformLatency(base_ms=1.0, jitter_ms=5.0),
        "seed": 3,
    },
    "fixed-cost": {
        "latency": FixedLatency(base_ms=2.0),
        "compute": LinearCost(per_round_ms=0.5, per_element_ms=0.01),
    },
    "delay": {
        "faults": (
            Delay(delay_ms=25.0, rounds=(1, 3), senders=frozenset({2})),
        ),
    },
    "partition": {
        "faults": (Partition(group=frozenset({0, 1}), rounds=(1, 3)),),
    },
    "crash": {"faults": (Crash(pid=3, round_index=2),)},
    "reorder": {"faults": (ReorderWithinRound(),), "seed": 77},
    "combined": {
        "latency": UniformLatency(
            base_ms=1.0, jitter_ms=4.0, elements_per_ms=2.0
        ),
        "compute": LinearCost(per_round_ms=0.5, per_element_ms=0.01),
        "faults": (
            Delay(delay_ms=25.0, rounds=(1, 3), senders=frozenset({2})),
            Partition(group=frozenset({0, 1}), rounds=(2, 3)),
            Crash(pid=4, round_index=3),
            ReorderWithinRound(rounds=(1, 2)),
        ),
        "seed": 5,
    },
}


def _mesh_programs(n: int = 6, rounds: int = 4):
    """An order-sensitive mesh: every party folds its inbox in arrival
    order and reports that order, with mixed payload sizes and
    broadcasts, so any change in per-recipient delivery order shows."""

    def prog(pid: int):
        acc = pid + 1
        inbox = yield RoundOutput(
            private={q: [acc, q] for q in range(n) if q != pid},
            broadcast=[pid] if pid % 2 == 0 else None,
        )
        log = []
        for r in range(rounds):
            order = tuple(inbox.private)
            log.append(order)
            for sender in order:
                acc = (acc * 31 + sender + sum(inbox.private[sender])) % 1009
            inbox = yield RoundOutput(
                private={
                    q: [acc] * (1 + (pid + r) % 3)
                    for q in range(n)
                    if q != pid
                },
                broadcast=[acc] if (pid + r) % 3 == 0 else None,
            )
        return (acc, tuple(log), tuple(inbox.broadcast))

    return {pid: prog(pid) for pid in range(n)}


class _Adaptive(Adversary):
    """Takes over party 1 between rounds 1 and 2."""

    def __init__(self):
        super().__init__(set())
        self.taken: list[tuple[int, bool]] = []

    def maybe_corrupt(self, round_index, total, budget):
        return {1} if round_index == 2 and budget == 0 else set()

    def receive_takeover(self, pid, program, pending):
        self.taken.append((pid, pending is not None))


def _run_mesh(network: NetworkModel, tracer: Tracer):
    return run_protocol(_mesh_programs(), tracer=tracer, network=network)


def _run_adaptive(network: NetworkModel, tracer: Tracer):
    result = run_protocol(
        _mesh_programs(), adversary=_Adaptive(), tracer=tracer,
        network=network,
    )
    assert result.adversary.taken == [(1, True)]
    return result


def _anonchan(jam: bool):
    def run(network: NetworkModel, tracer: Tracer):
        params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        messages = {i: params.field(100 + i) for i in range(params.n)}
        corrupt = (
            {4: jamming_material(params, random.Random(5))} if jam else None
        )
        return run_anonchan(
            params, vss, messages, seed=5, corrupt_materials=corrupt,
            tracer=tracer, network=network,
        )

    return run


#: Protocols by name: ``run(network, tracer) -> ExecutionResult``.
PROTOCOLS: dict[str, Callable[[NetworkModel, Tracer], Any]] = {
    "mesh": _run_mesh,
    "anonchan-honest": _anonchan(jam=False),
    "anonchan-jam": _anonchan(jam=True),
    "adaptive": _run_adaptive,
}

CASES = [(p, m) for p in PROTOCOLS for m in MODELS]


def fixture_path(protocol: str, model: str) -> Path:
    return DATA / f"{protocol}__{model}.jsonl"


def render(protocol: str, model: str) -> str:
    """One case's fixture text, executed under ``MODELS[model]``."""
    tracer = Tracer(clock=lambda: 0)
    try:
        result = PROTOCOLS[protocol](NetworkModel(**MODELS[model]), tracer)
    except ReconstructionError as exc:  # dropped shares defeat opening
        head = [json.dumps({"raises": repr(exc)})]
    else:
        head = [
            json.dumps({"outputs": repr(result.outputs)}),
            json.dumps({"metrics": asdict(result.metrics)}, sort_keys=True),
        ]
    return "\n".join([*head, *canonical_lines(tracer.events)]) + "\n"


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for protocol, model in CASES:
        fixture_path(protocol, model).write_text(
            render(protocol, model)
        )
        print(f"wrote {fixture_path(protocol, model)}")


if __name__ == "__main__":
    main()
