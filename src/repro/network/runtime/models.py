"""Latency, compute and fault models of the synchronous engine.

The engine separates *what* is delivered (the channel guarantees) from
*when* and *whether* each message arrives.  Latency models answer
"when": each private message gets a virtual delay sampled from the
run's seeded rng, which determines arrival order within a round.
Compute models charge each party local work before it sends.  Fault
models answer "whether": link faults drop or further delay specific
messages, and crash faults halt whole parties.  A
:class:`NetworkModel` bundles one of each for
:func:`~repro.network.simulator.run_protocol`.

All models are frozen dataclasses sampled through an explicit
``random.Random`` — no global entropy, so a seeded run is exactly
replayable.  Their parameters are virtual milliseconds (or elements
per millisecond) and must be finite and non-negative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def _check_non_negative(model: object, *names: str) -> None:
    """Reject negative or non-finite model parameters.

    A negative delay would stamp arrivals before their sends, and a
    negative jitter is ignored by sampling while ``describe()`` still
    reports it — both break the timing report's causality and its
    predicted makespan.
    """
    for name in names:
        value = getattr(model, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"{type(model).__name__}.{name} must be finite and "
                f">= 0, got {value!r}"
            )


class LatencyModel:
    """Per-message virtual latency, in milliseconds."""

    def sample(
        self,
        rng: random.Random,
        round_index: int,
        sender: int,
        recipient: int,
        size: int,
    ) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        """Public parameters, embedded in the trace's timing-model note.

        The timing observatory (:mod:`repro.obs.timing`) reads this back
        to compute the analytic predicted makespan, so models with
        equivalent timing semantics must describe identically.
        """
        raise NotImplementedError

    def expected_round_ms(self, messages: int, mean_size: float = 0.0) -> float:
        """Expected duration of a round that synchronizes on ``messages``
        concurrent deliveries of ``mean_size`` wire atoms each.

        A synchronous round ends when its *slowest* message arrives, so
        the analytic prediction is ``E[max of k samples]``, not the
        per-message mean.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroLatency(LatencyModel):
    """Instant delivery: arrival order equals send order."""

    def sample(
        self,
        rng: random.Random,
        round_index: int,
        sender: int,
        recipient: int,
        size: int,
    ) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"model": "zero"}

    def expected_round_ms(self, messages: int, mean_size: float = 0.0) -> float:
        return 0.0


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant per-message delay (a uniform-RTT datacenter link)."""

    base_ms: float = 1.0

    def __post_init__(self) -> None:
        _check_non_negative(self, "base_ms")

    def sample(
        self,
        rng: random.Random,
        round_index: int,
        sender: int,
        recipient: int,
        size: int,
    ) -> float:
        return self.base_ms

    def describe(self) -> dict:
        return {"model": "fixed", "base_ms": self.base_ms}

    def expected_round_ms(self, messages: int, mean_size: float = 0.0) -> float:
        return self.base_ms if messages > 0 else 0.0


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Base delay plus uniform jitter — reorders messages within a round.

    ``elements_per_ms`` adds a serialization (bandwidth) term: a
    payload of ``size`` wire atoms takes ``size / elements_per_ms``
    extra milliseconds, so bulk rounds spread out more than chatty
    ones.  ``0`` (the default) disables the bandwidth term.
    """

    base_ms: float = 1.0
    jitter_ms: float = 0.0
    elements_per_ms: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative(self, "base_ms", "jitter_ms", "elements_per_ms")

    def sample(
        self,
        rng: random.Random,
        round_index: int,
        sender: int,
        recipient: int,
        size: int,
    ) -> float:
        delay = self.base_ms
        if self.jitter_ms > 0.0:
            delay += rng.uniform(0.0, self.jitter_ms)
        if self.elements_per_ms > 0.0:
            delay += size / self.elements_per_ms
        return delay

    def describe(self) -> dict:
        return {
            "model": "uniform",
            "base_ms": self.base_ms,
            "jitter_ms": self.jitter_ms,
            "elements_per_ms": self.elements_per_ms,
        }

    def expected_round_ms(self, messages: int, mean_size: float = 0.0) -> float:
        if messages <= 0:
            return 0.0
        # Round end = max over k iid U(base, base+jitter) samples:
        # E[max] = base + jitter * k / (k + 1).
        expected = self.base_ms
        if self.jitter_ms > 0.0:
            expected += self.jitter_ms * messages / (messages + 1)
        if self.elements_per_ms > 0.0:
            expected += mean_size / self.elements_per_ms
        return expected


class ComputeModel:
    """Per-party local computation cost, in virtual milliseconds.

    Charged once per party per round *before* its messages are put on
    the wire: a party becomes ready at ``max(inbound arrivals)`` and
    sends at ``ready + cost_ms(...)``.  The reference model is zero so
    virtual time degenerates to the round schedule itself.
    """

    def cost_ms(
        self,
        round_index: int,
        party: int,
        messages: int,
        elements: int,
    ) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroCost(ComputeModel):
    """Free local computation (the reference model)."""

    def cost_ms(
        self,
        round_index: int,
        party: int,
        messages: int,
        elements: int,
    ) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"model": "zero"}


@dataclass(frozen=True)
class LinearCost(ComputeModel):
    """Fixed per-round cost plus a per-wire-element term.

    ``per_round_ms`` models constant protocol-step work (hashing the
    transcript, bookkeeping); ``per_element_ms`` scales with the
    party's outbound wire volume, approximating share-evaluation cost.
    """

    per_round_ms: float = 0.0
    per_element_ms: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative(self, "per_round_ms", "per_element_ms")

    def cost_ms(
        self,
        round_index: int,
        party: int,
        messages: int,
        elements: int,
    ) -> float:
        return self.per_round_ms + self.per_element_ms * elements

    def describe(self) -> dict:
        return {
            "model": "linear",
            "per_round_ms": self.per_round_ms,
            "per_element_ms": self.per_element_ms,
        }


class LinkFault:
    """Per-message fault hook: drop and/or delay individual deliveries."""

    def drops(self, round_index: int, sender: int, recipient: int) -> bool:
        return False

    def extra_delay_ms(
        self, round_index: int, sender: int, recipient: int
    ) -> float:
        return 0.0


@dataclass(frozen=True)
class Delay(LinkFault):
    """Add ``delay_ms`` to matching links for ``rounds`` (None = always).

    ``senders``/``recipients`` of ``None`` match every party.
    """

    delay_ms: float
    rounds: tuple[int, int] | None = None
    senders: frozenset[int] | None = None
    recipients: frozenset[int] | None = None

    def __post_init__(self) -> None:
        _check_non_negative(self, "delay_ms")

    def _matches(self, round_index: int, sender: int, recipient: int) -> bool:
        if self.rounds is not None:
            lo, hi = self.rounds
            if not (lo <= round_index < hi):
                return False
        if self.senders is not None and sender not in self.senders:
            return False
        if self.recipients is not None and recipient not in self.recipients:
            return False
        return True

    def extra_delay_ms(
        self, round_index: int, sender: int, recipient: int
    ) -> float:
        return self.delay_ms if self._matches(round_index, sender, recipient) else 0.0


@dataclass(frozen=True)
class Partition(LinkFault):
    """Drop private messages crossing the cut for ``rounds``.

    ``group`` is one side of the partition; a message is dropped iff
    exactly one endpoint is inside it.  The physical broadcast channel
    is a separate medium in the paper's model and keeps working — a
    partition severs point-to-point links only.
    """

    group: frozenset[int]
    rounds: tuple[int, int] | None = None

    def drops(self, round_index: int, sender: int, recipient: int) -> bool:
        if self.rounds is not None:
            lo, hi = self.rounds
            if not (lo <= round_index < hi):
                return False
        return (sender in self.group) != (recipient in self.group)


@dataclass(frozen=True)
class Crash(LinkFault):
    """Halt party ``pid`` at the start of round ``round_index``.

    From that round on the party neither sends nor receives; its
    program is left suspended and it produces no output (a fail-stop
    fault: an honest party going dark).
    """

    pid: int
    round_index: int

    def crashed(self, round_index: int, pid: int) -> bool:
        return pid == self.pid and round_index >= self.round_index

    def drops(self, round_index: int, sender: int, recipient: int) -> bool:
        return self.crashed(round_index, sender) or self.crashed(
            round_index, recipient
        )


@dataclass(frozen=True)
class ReorderWithinRound(LinkFault):
    """Adversarial reordering: shuffle each inbox's arrival order.

    Marker fault consumed by the engine (it has no per-link effect):
    for matching ``rounds`` the engine applies a seeded shuffle to the
    round's arrival order instead of latency ordering.
    """

    rounds: tuple[int, int] | None = None

    def active(self, round_index: int) -> bool:
        if self.rounds is None:
            return True
        lo, hi = self.rounds
        return lo <= round_index < hi


@dataclass(frozen=True)
class NetworkModel:
    """The network a synchronous run executes over.

    ``latency`` is sampled per delivered private message from a
    ``random.Random(seed)`` private to the run; ``compute`` charges each
    sending party before its messages hit the wire; ``faults`` are
    applied every round.  The defaults (zero latency, zero compute, no
    faults) reproduce a run without a model, with every virtual stamp
    at ``0.0``.
    """

    latency: LatencyModel = ZeroLatency()
    compute: ComputeModel = ZeroCost()
    faults: tuple[LinkFault, ...] = ()
    seed: int = 0
