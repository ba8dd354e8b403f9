"""Synchronous network execution.

Realizes the paper's communication model: ``n`` parties on a complete
network of secure (private, authenticated) point-to-point channels plus
a physical broadcast channel, computing in synchronous rounds against a
rushing active adversary.

Guarantees enforced by construction:

- **Privacy/authenticity of channels** — a party only ever sees payloads
  addressed to it, attributed to their true sender; the adversary sees
  only broadcasts and traffic addressed to corrupted parties.
- **Broadcast consistency** — one payload per broadcaster per round is
  delivered identically to everyone (no equivocation on the physical
  channel).
- **Rushing** — honest round outputs are fixed before the adversary
  chooses the corrupted parties' outputs for the same round.

:func:`run_protocol` is the one execution engine: every party's
generator is advanced in one deterministic pass per round, bit-for-bit
reproducible for seeded campaigns and trace diffing.  An optional
:class:`~repro.network.runtime.models.NetworkModel` adds virtual link
latency, per-party compute cost and link faults; the per-round pieces
(delivery, delay sampling, virtual time, tracing) live in
:mod:`repro.network.runtime.engine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from .adversary import Adversary
from .messages import LamportClock, RoundInput, RoundOutput
from .metrics import ProtocolMetrics
from .program import Program
from .runtime.engine import (
    VirtualClock,
    advance_virtual_time,
    apply_link_faults,
    arrival_inboxes,
    compute_delivery,
    record_round_observability,
    rushed_view,
    sample_delays,
)
from .runtime.models import Crash, NetworkModel, ReorderWithinRound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> network)
    from repro.obs import Tracer

__all__ = ["ExecutionResult", "ProtocolViolation", "run_protocol"]


@dataclass
class ExecutionResult:
    """Outcome of one protocol execution.

    Attributes
    ----------
    outputs:
        Honest parties' protocol outputs, by party id.
    metrics:
        Round/broadcast/message accounting for the whole execution.
    adversary:
        The adversary instance (its recorded views are what the
        anonymity and privacy experiments analyze), or ``None``.
    """

    outputs: dict[int, Any]
    metrics: ProtocolMetrics
    adversary: Adversary | None = None


class ProtocolViolation(Exception):
    """Raised when an execution exceeds sanity limits (likely a bug)."""


def run_protocol(
    programs: Mapping[int, Program],
    adversary: Adversary | None = None,
    max_rounds: int = 100_000,
    count_elements: bool = True,
    tracer: "Tracer | None" = None,
    network: NetworkModel | None = None,
) -> ExecutionResult:
    """Execute a synchronous protocol to completion.

    Parameters
    ----------
    programs:
        One program per party id.  Programs of corrupted parties are
        ignored (the adversary speaks for them); by convention attack
        adversaries receive their own copies at construction time.
    adversary:
        Optional active rushing adversary.  ``None`` runs all parties
        honestly.
    max_rounds:
        Safety valve against non-terminating programs.
    count_elements:
        When ``False``, skip the per-payload bandwidth recursion
        (``field_elements_sent`` stays 0); rounds/broadcasts/message
        counts are unaffected.  Useful for large experiment sweeps.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When attached, every
        completed round is reported with its broadcaster set, a
        per-sending-party message/element breakdown, and Lamport-
        stamped per-message events (attributed to the tracer's current
        span/phase).  ``None`` — the default — keeps the untraced hot
        path untouched.
    network:
        Optional :class:`~repro.network.runtime.models.NetworkModel`.
        Each round, crashed parties halt before they send, faulted
        links drop their private messages (broadcasts survive), every
        delivered message gets a sampled virtual delay, and each honest
        inbox is assembled in arrival order — ``(delay, send order)``,
        or a seeded shuffle under ``ReorderWithinRound``.  ``None``
        (the default) is zero latency, zero compute and no faults:
        inboxes arrive in canonical sender order.

    Returns
    -------
    ExecutionResult with honest outputs and cost metrics;
    ``metrics.makespan_ms`` is the run's virtual duration.
    """
    corrupted = adversary.corrupted if adversary is not None else frozenset()
    unknown = corrupted - programs.keys()
    if unknown:
        raise ValueError(
            f"adversary corrupts unknown parties: {sorted(unknown)}"
        )

    model = network if network is not None else NetworkModel()
    rng = random.Random(model.seed)
    crashes = [f for f in model.faults if isinstance(f, Crash)]
    reorders = [f for f in model.faults if isinstance(f, ReorderWithinRound)]
    link_faults = [
        f for f in model.faults if not isinstance(f, ReorderWithinRound)
    ]

    honest: dict[int, Program] = {
        pid: prog for pid, prog in programs.items() if pid not in corrupted
    }
    outputs: dict[int, Any] = {}
    metrics = ProtocolMetrics()
    # Per-party logical clocks (maintained only when traced: causal
    # stamps are observability, not protocol state — the untraced
    # hot path never touches them).
    clocks: dict[int, LamportClock] = {}
    # Per-party virtual time.  Without a network model every stamp is
    # 0.0 and the schedule itself is the only notion of time, so the
    # untraced default run never advances it.
    vclock = VirtualClock()
    if tracer is not None:
        tracer.record_timing_model(
            latency=model.latency.describe(),
            compute=model.compute.describe(),
        )

    pending: dict[int, RoundOutput] = {}
    for pid, prog in list(honest.items()):
        try:
            pending[pid] = next(prog)
        except StopIteration as stop:
            outputs[pid] = stop.value
            del honest[pid]

    round_index = 0
    while honest:
        if round_index >= max_rounds:
            raise ProtocolViolation(
                f"protocol exceeded {max_rounds} rounds; still running: "
                f"{sorted(honest)}"
            )

        # -- crash faults: halt parties before they send ------------------
        for fault in crashes:
            for pid in sorted(honest):
                if fault.crashed(round_index, pid):
                    del honest[pid]
                    pending.pop(pid, None)
        if not honest:
            break

        # -- rushing: adversary sees honest outputs first -----------------
        corrupt_outputs: dict[int, RoundOutput] = {}
        if adversary is not None:
            view = rushed_view(round_index, pending, corrupted)
            corrupt_outputs = adversary.act(view)
            extra = corrupt_outputs.keys() - corrupted
            if extra:
                raise ProtocolViolation(
                    f"adversary produced output for uncorrupted "
                    f"{sorted(extra)}"
                )

        all_outputs = dict(pending)
        all_outputs.update(corrupt_outputs)
        if link_faults:
            all_outputs = apply_link_faults(
                all_outputs, round_index, link_faults
            )

        # -- delivery -----------------------------------------------------
        delivery = compute_delivery(all_outputs, programs, count_elements)
        metrics.record_round(
            broadcasters=len(delivery.broadcasts),
            private_messages=delivery.delivered,
            elements=delivery.elements,
        )
        inboxes = delivery.inboxes
        if network is not None or tracer is not None:
            if network is not None:
                delivery.delays = sample_delays(
                    rng,
                    model.latency,
                    link_faults,
                    round_index,
                    all_outputs,
                    delivery,
                    count_elements,
                )
                inboxes = arrival_inboxes(
                    rng,
                    all_outputs,
                    delivery,
                    honest,
                    any(f.active(round_index) for f in reorders),
                )
            timing = advance_virtual_time(
                vclock,
                round_index,
                all_outputs,
                delivery,
                model.compute,
                count_elements,
            )
            if tracer is not None:
                record_round_observability(
                    tracer,
                    clocks,
                    round_index,
                    all_outputs,
                    delivery,
                    count_elements,
                    timing=timing,
                )

        broadcasts = delivery.broadcasts
        if adversary is not None:
            adversary.observe_inputs(
                {
                    pid: RoundInput(
                        private=delivery.inboxes[pid], broadcast=broadcasts
                    )
                    for pid in corrupted
                }
            )

        # -- resume honest parties ----------------------------------------
        pending = {}
        for pid in list(honest):
            prog = honest[pid]
            try:
                pending[pid] = prog.send(
                    RoundInput(private=inboxes[pid], broadcast=broadcasts)
                )
            except StopIteration as stop:
                outputs[pid] = stop.value
                del honest[pid]

        # -- adaptive corruption between rounds ---------------------------
        if adversary is not None:
            budget_used = len(adversary.corrupted)
            new = adversary.maybe_corrupt(
                round_index + 1, len(programs), budget_used
            )
            for pid in new:
                if pid in honest:
                    takeover = getattr(adversary, "receive_takeover", None)
                    if takeover is not None:
                        takeover(pid, honest[pid], pending.get(pid))
                    del honest[pid]
                    pending.pop(pid, None)
                adversary.corrupted = frozenset(adversary.corrupted | {pid})
            corrupted = adversary.corrupted

        round_index += 1

    if adversary is not None:
        adversary.finalize(outputs)
    metrics.makespan_ms = vclock.makespan_ms
    return ExecutionResult(outputs=outputs, metrics=metrics, adversary=adversary)
