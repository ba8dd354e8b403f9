"""Per-round pieces of the synchronous execution engine.

:func:`~repro.network.simulator.run_protocol` realizes the paper's
synchronous-round semantics: honest outputs are fixed first (rushing),
the adversary acts, all outputs are delivered according to the model's
channel guarantees, and the round is accounted and traced.  This module
holds those per-round steps as plain functions — delivery, link faults,
delay sampling, arrival order, virtual time and trace emission — so
each is testable on its own and the engine loop stays short.

Lamport stamping lives here (the delivery layer), not in protocol
code: logical clocks are a property of *delivery*, and keeping them
next to the delivery computation is what lets causal ordering survive
any arrival order a network model produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection, Iterable, Mapping, Sequence

from ..adversary import RushedView
from ..messages import LamportClock, RoundOutput, payload_size
from .models import ComputeModel, Crash, LatencyModel, LinkFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> network)
    from repro.obs import Tracer

#: Sentinel distinguishing "not cached" from a cached size of 0.  An
#: empty payload legitimately has size 0, which is falsy — any truthy
#: test on the cached value (the old ``.get(id(p)) or payload_size(p)``)
#: silently recomputes and can drift from the delivery-time accounting.
_MISSING: Any = object()


def cached_payload_size(size_cache: dict[int, int], payload: Any) -> int:
    """Size of ``payload``, memoized by object identity.

    The same payload object is typically sent to many parties per
    round; the cache makes per-round accounting linear in *distinct*
    payloads.  Uses an explicit missing-sentinel so a cached size of 0
    (empty list/dict payloads) is honored rather than recomputed —
    per-party volumes and per-message events then agree with the round
    totals by construction.
    """
    size = size_cache.get(id(payload), _MISSING)
    if size is _MISSING:
        size = payload_size(payload)
        size_cache[id(payload)] = size
    return size


def rushed_view(
    round_index: int,
    pending: Mapping[int, RoundOutput],
    corrupted: Iterable[int],
) -> RushedView:
    """The rushing adversary's observation of honest round outputs."""
    honest_broadcasts = {
        pid: out.broadcast
        for pid, out in pending.items()
        if out.broadcast is not None
    }
    to_corrupted: dict[int, dict[int, Any]] = {pid: {} for pid in corrupted}
    for sender, out in pending.items():
        for recipient, payload in out.private.items():
            if recipient in to_corrupted:
                to_corrupted[recipient][sender] = payload
    return RushedView(
        round_index=round_index,
        broadcasts=honest_broadcasts,
        to_corrupted=to_corrupted,
    )


@dataclass
class Delivery:
    """One round's delivery plan plus its bandwidth accounting.

    ``inboxes`` preserves the canonical delivery order (sender
    iteration order of ``all_outputs``): programs may iterate their
    inbox, so insertion order is part of bit-for-bit reproducibility.
    """

    broadcasts: dict[int, Any]
    inboxes: dict[int, dict[int, Any]]
    delivered: int
    elements: int
    size_cache: dict[int, int] = field(default_factory=dict)
    #: Per-message arrival offsets in virtual ms, keyed
    #: ``(sender, recipient)``.  Persisted here (rather than discarded
    #: after ordering deliveries) so a round's timing is replayable and
    #: observable after the fact; ``None`` means all-zero (lockstep).
    delays: dict[tuple[int, int], float] | None = None


def compute_delivery(
    all_outputs: Mapping[int, RoundOutput],
    party_ids: Iterable[int],
    count_elements: bool,
) -> Delivery:
    """Apply the channel guarantees to one round's outputs.

    Broadcasts go to everyone (bandwidth counted once per receiving
    party); private payloads go only to existing recipients (payloads
    to non-existent parties are dropped).  ``party_ids`` must iterate
    in the execution's canonical party order.
    """
    broadcasts = {
        pid: out.broadcast
        for pid, out in all_outputs.items()
        if out.broadcast is not None
    }
    inboxes: dict[int, dict[int, Any]] = {pid: {} for pid in party_ids}
    delivered = 0
    elements = 0
    size_cache: dict[int, int] = {}  # same object sent to many parties
    for sender, out in all_outputs.items():
        for recipient, payload in out.private.items():
            if recipient not in inboxes:
                continue  # payload to a non-existent party: dropped
            inboxes[recipient][sender] = payload
            delivered += 1
            if count_elements:
                elements += cached_payload_size(size_cache, payload)
    if count_elements:
        elements += sum(
            payload_size(b) for b in broadcasts.values()
        ) * max(len(inboxes) - 1, 1)
    return Delivery(
        broadcasts=broadcasts,
        inboxes=inboxes,
        delivered=delivered,
        elements=elements,
        size_cache=size_cache,
    )


@dataclass
class VirtualClock:
    """Per-party virtual time, in milliseconds since run start.

    ``ready[p]`` is the earliest virtual instant at which party ``p``
    can act on everything delivered to it so far — the happens-before
    closure of all message chains ending at ``p``.  Under the zero
    latency/compute models every entry stays ``0.0``, which is how a
    run without a network model keeps its traces bit-identical modulo
    the timing fields.
    """

    ready: dict[int, float] = field(default_factory=dict)

    def now(self, pid: int) -> float:
        return self.ready.get(pid, 0.0)

    @property
    def makespan_ms(self) -> float:
        return max(self.ready.values(), default=0.0)


@dataclass(frozen=True)
class RoundTiming:
    """One round's virtual-time facts, as stamped into trace events.

    ``sends`` maps each sending party to its send instant; ``arrivals``
    maps each delivered private message ``(sender, recipient)`` to its
    arrival instant.  Broadcasts arrive at the send instant itself (the
    paper's physical broadcast channel is a separate synchronous
    medium, so it contributes no link delay).
    """

    t_start: float
    t_end: float
    sends: Mapping[int, float]
    arrivals: Mapping[tuple[int, int], float]


def apply_link_faults(
    all_outputs: Mapping[int, RoundOutput],
    round_index: int,
    link_faults: Sequence[LinkFault],
) -> dict[int, RoundOutput]:
    """Drop faulted private messages; dropped traffic is not counted.

    Crashed senders are removed wholesale (``Crash.drops`` matches
    every link either way); broadcasts survive partitions — the
    physical broadcast channel is a separate medium.
    """
    effective: dict[int, RoundOutput] = {}
    for sender, out in all_outputs.items():
        if any(
            isinstance(f, Crash) and f.crashed(round_index, sender)
            for f in link_faults
        ):
            continue
        kept = {
            recipient: payload
            for recipient, payload in out.private.items()
            if not any(
                f.drops(round_index, sender, recipient) for f in link_faults
            )
        }
        if len(kept) == len(out.private):
            effective[sender] = out
        else:
            effective[sender] = RoundOutput(
                private=kept, broadcast=out.broadcast
            )
    return effective


def sample_delays(
    rng: random.Random,
    latency: LatencyModel,
    link_faults: Sequence[LinkFault],
    round_index: int,
    all_outputs: Mapping[int, RoundOutput],
    delivery: Delivery,
    count_elements: bool,
) -> dict[tuple[int, int], float]:
    """Sample every delivered private message's arrival offset (ms).

    Iterates sorted ``(sender, recipient)`` pairs so the rng stream —
    and therefore each sampled delay — is a function of the seed alone,
    independent of dict iteration order.  Link-fault extra delay is
    folded in here so the persisted offset is the message's complete
    virtual transit time.
    """
    delays: dict[tuple[int, int], float] = {}
    inboxes = delivery.inboxes
    for sender in sorted(all_outputs):
        out = all_outputs[sender]
        for recipient in sorted(out.private):
            if recipient not in inboxes:
                continue
            size = (
                cached_payload_size(
                    delivery.size_cache, out.private[recipient]
                )
                if count_elements
                else 0
            )
            delay = latency.sample(rng, round_index, sender, recipient, size)
            for fault in link_faults:
                delay += fault.extra_delay_ms(round_index, sender, recipient)
            delays[(sender, recipient)] = delay
    return delays


def arrival_inboxes(
    rng: random.Random,
    all_outputs: Mapping[int, RoundOutput],
    delivery: Delivery,
    recipients: Collection[int],
    shuffle: bool,
) -> dict[int, dict[int, Any]]:
    """Each recipient's inbox, keyed by sender in arrival order.

    Messages arrive by ``(delay, send order)``, where send order is the
    canonical sender-then-payload iteration of ``all_outputs`` — so
    under equal delays the inboxes equal ``delivery.inboxes``.  With
    ``shuffle`` set (``ReorderWithinRound``) the round's whole arrival
    plan is one seeded shuffle instead.
    """
    delays = delivery.delays or {}
    plan: list[tuple[float, int, int, int, Any]] = []
    for sender, out in all_outputs.items():
        for recipient, payload in out.private.items():
            if recipient in recipients:
                delay = delays.get((sender, recipient), 0.0)
                plan.append((delay, len(plan), sender, recipient, payload))
    if shuffle:
        rng.shuffle(plan)
    else:
        plan.sort(key=lambda entry: (entry[0], entry[1]))
    inboxes: dict[int, dict[int, Any]] = {pid: {} for pid in recipients}
    for _delay, _seq, sender, recipient, payload in plan:
        inboxes[recipient][sender] = payload
    return inboxes


def advance_virtual_time(
    clock: VirtualClock,
    round_index: int,
    all_outputs: Mapping[int, RoundOutput],
    delivery: Delivery,
    compute: ComputeModel,
    count_elements: bool,
) -> RoundTiming:
    """Advance per-party virtual time across one delivered round.

    A sender is charged the compute model's cost on top of its ready
    time and puts all its messages on the wire at that instant; each
    private message lands ``Delivery.delays`` later.  A party's new
    ready time is the max of its old one, its own send instant, every
    arrival addressed to it, and the latest broadcast instant — i.e.
    the round's happens-before closure.  The run's makespan is the
    final ``clock.makespan_ms``.
    """
    inboxes = delivery.inboxes
    broadcasts = delivery.broadcasts
    delays = delivery.delays or {}
    fanout = max(len(inboxes) - 1, 1)
    prev_makespan = clock.makespan_ms
    sends: dict[int, float] = {}
    for sender, out in all_outputs.items():
        if not out.private and out.broadcast is None:
            continue
        messages = sum(1 for r in out.private if r in inboxes)
        elements = 0
        if count_elements:
            elements = sum(
                cached_payload_size(delivery.size_cache, p)
                for r, p in out.private.items()
                if r in inboxes
            )
            if out.broadcast is not None:
                elements += payload_size(out.broadcast) * fanout
        if out.broadcast is not None:
            messages += 1
        sends[sender] = clock.now(sender) + compute.cost_ms(
            round_index, sender, messages, elements
        )
    arrivals: dict[tuple[int, int], float] = {}
    for sender, out in all_outputs.items():
        t_send = sends.get(sender)
        if t_send is None:
            continue
        for recipient in out.private:
            if recipient not in inboxes:
                continue
            arrivals[(sender, recipient)] = t_send + delays.get(
                (sender, recipient), 0.0
            )
    bcast_instant = max((sends[b] for b in broadcasts), default=0.0)
    for pid in inboxes:
        t = clock.now(pid)
        if pid in sends:
            t = max(t, sends[pid])
        if broadcasts:
            t = max(t, bcast_instant)
        clock.ready[pid] = t
    for (_sender, recipient), t_recv in arrivals.items():
        if t_recv > clock.ready[recipient]:
            clock.ready[recipient] = t_recv
    t_start = min(sends.values(), default=prev_makespan)
    t_end = max(clock.makespan_ms, t_start)
    return RoundTiming(
        t_start=t_start, t_end=t_end, sends=sends, arrivals=arrivals
    )


def record_round_observability(
    tracer: "Tracer",
    clocks: dict[int, LamportClock],
    round_index: int,
    all_outputs: Mapping[int, RoundOutput],
    delivery: Delivery,
    count_elements: bool,
    timing: RoundTiming | None = None,
) -> None:
    """Emit one round's trace events and advance the Lamport clocks.

    Produces the schema-v4 event stream: per-sender ``msg`` events
    (broadcasts as ``receiver=None`` carrying their fan-out-multiplied
    wire volume, so per-round msg volumes sum exactly to the round
    event's ``elements``), then the ``round`` event with the per-party
    breakdown.  Clocks tick once per sending party per round and merge
    on receipt, so stamps stay consistent with happens-before under any
    arrival order a network model produces.

    When ``timing`` is given (v4), msg events are stamped with their
    virtual send/arrival instants and the round event with its virtual
    window.
    """
    inboxes = delivery.inboxes
    broadcasts = delivery.broadcasts
    size_cache = delivery.size_cache
    fanout = max(len(inboxes) - 1, 1)
    # Lamport send events: every party emitting anything this round
    # ticks once; all its messages carry that stamp.
    stamps: dict[int, int] = {}
    for sender, out in all_outputs.items():
        if out.private or out.broadcast is not None:
            clock = clocks.get(sender)
            if clock is None:
                clock = clocks[sender] = LamportClock()
            stamps[sender] = clock.tick()
    per_party: dict[int, dict[str, Any]] = {}
    for sender, out in all_outputs.items():
        sent = sum(1 for r in out.private if r in inboxes)
        volume = 0
        if count_elements:
            volume = sum(
                cached_payload_size(size_cache, p)
                for r, p in out.private.items()
                if r in inboxes
            )
            if out.broadcast is not None:
                volume += payload_size(out.broadcast) * fanout
        if sent or volume or out.broadcast is not None:
            per_party[sender] = {
                "messages": sent,
                "elements": volume,
                "broadcast": out.broadcast is not None,
            }
    # One msg event per delivery (schema v3): broadcasts carry
    # receiver=None and their full wire volume (payload x fan-out), so
    # per-round msg volumes sum exactly to the round event's elements.
    for sender in sorted(all_outputs):
        out = all_outputs[sender]
        stamp = stamps.get(sender, 0)
        t_send = timing.sends.get(sender) if timing is not None else None
        if out.broadcast is not None:
            size = (
                payload_size(out.broadcast) * fanout if count_elements else 0
            )
            tracer.record_message(
                round_index,
                sender,
                None,
                size,
                stamp,
                t_send=t_send,
                t_recv=t_send,  # broadcast channel: arrival == send
            )
        for recipient in sorted(out.private):
            if recipient not in inboxes:
                continue
            size = 0
            if count_elements:
                payload = out.private[recipient]
                size = cached_payload_size(size_cache, payload)
            t_recv = (
                timing.arrivals.get((sender, recipient))
                if timing is not None
                else None
            )
            tracer.record_message(
                round_index,
                sender,
                recipient,
                size,
                stamp,
                t_send=t_send,
                t_recv=t_recv,
            )
    tracer.record_round(
        round_index,
        broadcasters=sorted(broadcasts),
        messages=delivery.delivered,
        elements=delivery.elements,
        per_party={str(pid): per_party[pid] for pid in sorted(per_party)},
        t_start=timing.t_start if timing is not None else None,
        t_end=timing.t_end if timing is not None else None,
    )
    # Lamport receive events: each party merges the stamps of
    # everything delivered to it (private + broadcast), so its next
    # send is causally after all of them.
    for pid in inboxes:
        seen = [stamps[s] for s in inboxes[pid] if s in stamps] + [
            stamps[b] for b in broadcasts if b in stamps
        ]
        if seen:
            clock = clocks.get(pid)
            if clock is None:
                clock = clocks[pid] = LamportClock()
            clock.observe(seen)
