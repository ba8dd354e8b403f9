"""The benchmark's workloads, its tamper adversary and its session checks.

Every workload runs ``run_anonchan`` with
``scaled_parameters(d=8, num_checks=6, kappa=16, margin=8)`` and an
honest receiver 0.  Importing this module imports exactly what a
workload needs from ``repro``, which is what the set-up probe times.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core import run_anonchan, scaled_parameters
from repro.core.adversaries import guessing_cheater_material
from repro.core.trace import total_broadcast_rounds, total_rounds
from repro.network import PassiveAdversary, RoundOutput
from repro.obs import Tracer
from repro.vss import BGWVSS, IdealVSS

from layers import Recorder, instrumented

RECEIVER = 0
#: XORed into every integer a corrupt party sends privately.  It is
#: below 2^16, so a tampered GF(2^16) encoding stays a field element.
TAMPER_MASK = 0x2B5D


@dataclass(frozen=True)
class Workload:
    name: str
    vss: str  # "ideal" or "bgw"
    n: int
    t: int
    corrupt: tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-scale", "ideal", n=9, t=4),
        Workload("active-adversary", "ideal", n=7, t=3, corrupt=(4, 5, 6)),
        Workload("bgw", "bgw", n=4, t=1),
    )
}

#: Per-scale protocol parameters; "tiny" is for the harness smoke test.
SCALES = {
    "full": dict(d=8, num_checks=6, kappa=16, margin=8),
    "tiny": dict(d=4, num_checks=2, kappa=16, margin=2),
}
#: Tiny runs shrink the party sets too (n, t, corrupt parties).
TINY_PARTIES = {
    "paper-scale": (5, 2, ()),
    "active-adversary": (5, 2, (3, 4)),
    "bgw": (4, 1, ()),
}


@dataclass
class Setup:
    """What one workload runs on: parameters, VSS scheme, party roles."""

    params: Any
    vss: Any
    corrupt: tuple[int, ...]

    @property
    def honest(self) -> list[int]:
        return [pid for pid in range(self.params.n) if pid not in self.corrupt]


def build(name: str, scale: str = "full") -> Setup:
    """Parameters and VSS scheme of workload ``name`` at ``scale``."""
    workload = WORKLOADS[name]
    n, t, corrupt = workload.n, workload.t, workload.corrupt
    if scale == "tiny":
        n, t, corrupt = TINY_PARTIES[name]
    params = scaled_parameters(n=n, t=t, **SCALES[scale])
    scheme = BGWVSS if workload.vss == "bgw" else IdealVSS
    return Setup(params, scheme(params.field, n, t), corrupt)


# -- the active adversary ------------------------------------------------


class XorTamper(PassiveAdversary):
    """Corrupt parties run their (cheating) programs, then tamper.

    Every integer in every private payload is XORed with ``mask``:
    plain ints and numpy integers, inside lists, tuples, dict values
    and integer arrays.  Dict keys route sub-protocol traffic and are
    left alone, as are broadcasts.  A payload object sent to several
    parties is tampered once, and each recipient gets its own outer
    container, as over real private channels.  ``changed`` counts the
    ints tampered.
    """

    def __init__(self, corrupted: set[int], programs: Mapping, mask: int):
        super().__init__(corrupted, programs)
        self.mask = mask
        self.changed = 0

    def act(self, view) -> dict[int, RoundOutput]:
        return self.tamper(super().act(view))

    def tamper(self, outputs: Mapping[int, RoundOutput]) -> dict[int, RoundOutput]:
        memo: dict[int, Any] = {}
        return {
            pid: RoundOutput(
                private={
                    to: _own_copy(self._xor(p, memo))
                    for to, p in out.private.items()
                },
                broadcast=out.broadcast,
            )
            for pid, out in outputs.items()
        }

    def _xor(self, value: Any, memo: dict[int, Any]) -> Any:
        kind = type(value)
        if kind is int:
            self.changed += 1
            return value ^ self.mask
        done = memo.get(id(value))
        if done is not None:
            return done
        if kind is tuple or isinstance(value, list):
            # Ints inline, containers recursively: the payloads are
            # millions of ints, mostly in tuples of (serial, coeff) pairs.
            mask, xor = self.mask, self._xor
            out = [v ^ mask if type(v) is int else xor(v, memo) for v in value]
            self.changed += sum(type(v) is int for v in value)
            done = tuple(out) if kind is tuple else out
        elif isinstance(value, dict):
            done = {k: self._xor(v, memo) for k, v in value.items()}
        elif isinstance(value, np.ndarray) and value.dtype.kind in "iu":
            self.changed += value.size
            done = value ^ value.dtype.type(self.mask)
        elif isinstance(value, np.integer):
            self.changed += 1
            done = type(value)(value ^ self.mask)
        else:
            return value
        memo[id(value)] = done
        return done


def _own_copy(payload: Any) -> Any:
    if isinstance(payload, list):
        return list(payload)
    if isinstance(payload, dict):
        return dict(payload)
    return payload


def adversary_factory(
    setup: Setup, session_seed: int, recorder: Recorder | None = None
) -> tuple[Callable | None, list]:
    """``run_anonchan(adversary_factory=...)`` for the corrupt parties.

    Each corrupt party commits guessing-cheater material (an improper
    vector, Claim 1) and is tampered by :class:`XorTamper`.  The second
    value collects the adversary built for the session.  With a
    ``recorder`` the corrupt programs' resumes are ``core.party`` spans
    and the tamper is the ``bench.adversary`` span.
    """
    if not setup.corrupt:
        return None, []
    params = setup.params
    built: list[XorTamper] = []

    def factory(protocol, session):
        programs = {}
        for pid in setup.corrupt:
            rng = random.Random((session_seed << 8) | pid)
            decoys = [params.field(rng.randrange(1, params.field.order)) for _ in range(2)]
            material = guessing_cheater_material(params, decoys, rng)
            program = protocol.party_program(pid, session, None, rng, material=material)
            if recorder is not None:
                program = recorder.wrap_program(program, "core.party")
            programs[pid] = program
        adversary = XorTamper(set(setup.corrupt), programs, TAMPER_MASK)
        if recorder is not None:
            adversary.tamper = recorder.wrap(adversary.tamper, "bench.adversary")
        built.append(adversary)
        return adversary

    return factory, built


# -- one checked session -------------------------------------------------


@dataclass
class SessionResult:
    seed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rounds: int = 0
    broadcast_rounds: int = 0
    wire_elements: int = 0
    private_messages: int = 0
    honest_sent: int = 0
    honest_found: int = 0
    disqualified: int = 0
    cheaters_passed: int = 0
    tampered: int = 0
    table_hits: int = 0
    table_misses: int = 0
    gc_s: float = 0.0
    output: tuple = ()
    passed: frozenset = frozenset()
    failures: list[str] = field(default_factory=list)
    #: Traced sessions only: the ``Tracer`` events and the layer spans.
    trace_events: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fingerprint(self) -> tuple:
        """What a re-run of the same seed must reproduce exactly."""
        return (self.output, self.passed, self.wire_elements)


def session_messages(setup: Setup, session_seed: int) -> dict[int, Any]:
    field_ = setup.params.field
    rng = random.Random(session_seed)
    return {
        pid: field_(rng.randrange(1, field_.order)) for pid in setup.honest
    }


def run_session(
    setup: Setup, session_seed: int, traced: bool = False
) -> SessionResult:
    """One ``run_anonchan`` call, timed, with the must-hold checks.

    A traced session passes a ``Tracer`` (for the step phases) and runs
    with every layer's public calls wrapped in spans, under the root
    span ``bench.session``.
    """
    result = SessionResult(seed=session_seed)
    messages = session_messages(setup, session_seed)
    recorder = Recorder() if traced else None
    factory, built = adversary_factory(setup, session_seed, recorder)
    kwargs: dict[str, Any] = {"seed": session_seed, "receiver": RECEIVER}
    if factory is not None:
        kwargs["adversary_factory"] = factory
    if traced:
        tracer = kwargs["tracer"] = Tracer()
    # Each session starts from a collected heap instead of paying for
    # the garbage of the one before.
    gc.collect()
    with instrumented(recorder, setup.vss) if traced else nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with recorder.span("bench.session") if traced else nullcontext():
                execution = run_anonchan(setup.params, setup.vss, messages, **kwargs)
        except Exception as exc:  # a crashed session is a failed session
            result.failures.append(f"raised {type(exc).__name__}: {exc}")
            return result
        finally:
            result.wall_s = time.perf_counter() - wall0
            result.cpu_s = time.process_time() - cpu0
    if traced:
        result.trace_events = tracer.events
        result.spans = recorder.spans
        result.table_hits = recorder.table_hits
        result.table_misses = recorder.table_misses
        result.gc_s = recorder.gc_ns / 1e9
    _check(setup, execution, messages, built, result)
    return result


def _check(setup, execution, messages, built, result: SessionResult) -> None:
    metrics = execution.metrics
    result.rounds = metrics.rounds
    result.broadcast_rounds = metrics.broadcast_rounds
    result.wire_elements = metrics.field_elements_sent
    result.private_messages = metrics.private_messages
    fail = result.failures.append
    cost = setup.vss.cost
    if metrics.rounds != total_rounds(setup.params, cost):
        fail(f"{metrics.rounds} rounds, E1 predicts {total_rounds(setup.params, cost)}")
    if metrics.broadcast_rounds != total_broadcast_rounds(setup.params, cost):
        fail(
            f"{metrics.broadcast_rounds} broadcast rounds, E2 predicts "
            f"{total_broadcast_rounds(setup.params, cost)}"
        )

    outputs = {pid: execution.outputs.get(pid) for pid in setup.honest}
    missing = sorted(pid for pid, out in outputs.items() if out is None)
    if missing:
        fail(f"honest parties without output: {missing}")
        return
    views = {
        (out.vss_qualified, out.passed, out.challenge) for out in outputs.values()
    }
    if len(views) != 1:
        fail("honest parties disagree on (vss_qualified, passed, challenge)")
    receiver = outputs[RECEIVER]
    for pid in setup.honest:
        if pid not in receiver.vss_qualified or pid not in receiver.passed:
            fail(f"honest party {pid} not qualified or not passed")
    if receiver.output is None:
        fail("receiver produced no output")
        return

    sent = Counter(m.value for m in messages.values())
    y = receiver.output
    result.honest_sent = sum(sent.values())
    result.honest_found = sum(min(c, y[v]) for v, c in sent.items())
    result.output = tuple(sorted(y.items()))
    result.passed = receiver.passed
    result.disqualified = setup.params.n - len(receiver.vss_qualified)
    result.cheaters_passed = len(receiver.passed & set(setup.corrupt))
    if setup.corrupt:
        result.tampered = sum(adversary.changed for adversary in built)
        if result.tampered == 0:
            fail("the adversary tampered with no integer")
