"""Cost accounting for protocol executions.

The paper's headline claims are *round* and *broadcast-round* counts, so
the simulator tracks them first-class, along with message and bandwidth
totals for the communication-complexity discussion in Section 1.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProtocolMetrics:
    """Aggregate costs of one protocol execution.

    Attributes
    ----------
    rounds:
        Total synchronous rounds executed.
    broadcast_rounds:
        Rounds in which at least one party used the physical broadcast
        channel.  This is the scarce resource the paper minimizes
        (two broadcast rounds with the GGOR13 VSS).
    broadcasts_sent:
        Individual broadcast invocations (party-rounds using broadcast).
    private_messages:
        Non-empty point-to-point payloads delivered.
    field_elements_sent:
        Approximate bandwidth in field elements (private + broadcast).
    makespan_ms:
        End-to-end virtual duration of the execution under its
        network model's latency/compute (``0.0`` without a model and
        other zero-model runs — virtual time then degenerates to the
        round schedule).
    """

    rounds: int = 0
    broadcast_rounds: int = 0
    broadcasts_sent: int = 0
    private_messages: int = 0
    field_elements_sent: int = 0
    makespan_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    def record_round(
        self,
        broadcasters: int,
        private_messages: int,
        elements: int,
    ) -> None:
        """Account one completed round.

        All three counts are occurrences of real events, so negative
        values can only come from a bookkeeping bug upstream — reject
        them loudly instead of silently corrupting the totals.
        """
        if broadcasters < 0 or private_messages < 0 or elements < 0:
            raise ValueError(
                "round counts must be non-negative, got "
                f"broadcasters={broadcasters}, "
                f"private_messages={private_messages}, elements={elements}"
            )
        self.rounds += 1
        if broadcasters:
            self.broadcast_rounds += 1
            self.broadcasts_sent += broadcasters
        self.private_messages += private_messages
        self.field_elements_sent += elements

    def merge(self, other: "ProtocolMetrics") -> "ProtocolMetrics":
        """Sequential composition: costs add up.

        ``extra`` entries are carried over from both operands; numeric
        values shared by both add up (they are costs too), any other
        collision keeps ``other``'s value (later execution wins).
        """
        extra = dict(self.extra)
        for key, value in other.extra.items():
            mine = extra.get(key)
            if (
                isinstance(mine, (int, float))
                and isinstance(value, (int, float))
                and not isinstance(mine, bool)
                and not isinstance(value, bool)
            ):
                extra[key] = mine + value
            else:
                extra[key] = value
        return ProtocolMetrics(
            rounds=self.rounds + other.rounds,
            broadcast_rounds=self.broadcast_rounds + other.broadcast_rounds,
            broadcasts_sent=self.broadcasts_sent + other.broadcasts_sent,
            private_messages=self.private_messages + other.private_messages,
            field_elements_sent=(
                self.field_elements_sent + other.field_elements_sent
            ),
            # Sequential composition: the second execution starts after
            # the first finishes, so virtual durations add.
            makespan_ms=self.makespan_ms + other.makespan_ms,
            extra=extra,
        )

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        line = (
            f"rounds={self.rounds} broadcast_rounds={self.broadcast_rounds} "
            f"broadcasts={self.broadcasts_sent} "
            f"messages={self.private_messages} "
            f"elements={self.field_elements_sent}"
        )
        if self.makespan_ms:
            line += f" makespan_ms={self.makespan_ms:.3f}"
        return line
