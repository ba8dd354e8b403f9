"""The linear VSS interface AnonChan is written against.

The paper uses VSS strictly black-box (Section 2.2): a pair
(VSS-Share, VSS-Rec) with Commitment, Privacy and Linearity, for
``t < n/2``.  This module fixes the programmatic shape of that black
box:

- :meth:`VSSScheme.new_session` starts a per-execution session.
- :meth:`VSSSession.share_program` is a party's code for (a batch of
  parallel) VSS-Share invocations by one dealer; it returns either a
  :class:`SharedBatch` of per-party :class:`ShareView` objects or the
  :data:`DEALER_DISQUALIFIED` sentinel (all honest parties agree which).
- :class:`ShareView` objects combine linearly *across dealers* without
  interaction (Linearity).
- Reconstruction is payload-based so it supports both public opening
  (everyone exchanges payloads — :meth:`VSSSession.open_program`) and
  the paper's step-4 *private* reconstruction, where parties send
  payloads to the receiver only and it "internally simulates VSS-Rec"
  via :meth:`VSSSession.verify_and_combine`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.fields import Field, FieldElement
from repro.network import Program, RoundOutput


class DealerDisqualifiedType:
    """Singleton marker: the dealer was publicly disqualified in sharing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEALER_DISQUALIFIED"


#: Returned by ``share_program`` when the dealer was caught cheating.
DEALER_DISQUALIFIED = DealerDisqualifiedType()


class ReconstructionError(Exception):
    """Raised when robust reconstruction cannot identify the secret."""


@dataclass(frozen=True)
class VSSCost:
    """Round/broadcast cost profile of one VSS scheme.

    ``share_broadcast_rounds`` is the scarce resource of interest
    (GGOR13: 2; the whole point of the paper's reduction is that
    AnonChan adds *no* broadcast rounds beyond these).
    """

    share_rounds: int
    share_broadcast_rounds: int
    reconstruct_rounds: int = 1
    reconstruct_broadcast_rounds: int = 0

    def __post_init__(self):
        if self.share_broadcast_rounds > self.share_rounds:
            raise ValueError("more broadcast rounds than rounds in sharing")
        if self.reconstruct_broadcast_rounds > self.reconstruct_rounds:
            raise ValueError("more broadcast rounds than rounds in rec")


class ShareView(ABC):
    """One party's share of one verifiably-shared value.

    Supports the linear algebra the paper's step 4 needs: views of
    different values held by the *same* party combine into a view of the
    linear combination, with no interaction.
    """

    @abstractmethod
    def __add__(self, other: "ShareView") -> "ShareView": ...

    @abstractmethod
    def scale(self, scalar: FieldElement) -> "ShareView": ...


@dataclass
class SharedBatch:
    """A party's result of one batched VSS-Share: one view per secret.

    ``handle`` is backend-private fast-path metadata (e.g. the ideal
    backend stamps the contiguous serial range of the batch so offset
    arithmetic can run as numpy gathers).  It is ``None`` for
    hand-built batches and for backends without a batched fast path;
    consumers must treat it as opaque and fall back to the generic
    view-by-view path when absent.
    """

    dealer: int
    views: Sequence[ShareView]
    handle: Any = None

    def __len__(self) -> int:
        return len(self.views)

    def __getitem__(self, index: int) -> ShareView:
        return self.views[index]


class VSSSession(ABC):
    """Per-execution state of a VSS scheme for one party set."""

    def __init__(self, scheme: "VSSScheme"):
        self.scheme = scheme

    # -- sharing -----------------------------------------------------------
    @abstractmethod
    def share_program(
        self,
        pid: int,
        dealer: int,
        secrets: Sequence[FieldElement] | None,
        rng: random.Random,
        count: int = 1,
    ) -> Program:
        """Party ``pid``'s program for a batch of parallel VSS-Share.

        ``secrets`` is the dealer's input (``None`` for non-dealers);
        ``count`` is the publicly known batch length — a protocol
        parameter, so honest parties always agree on it even when the
        dealer misbehaves.  Returns a :class:`SharedBatch` or
        :data:`DEALER_DISQUALIFIED`.
        """

    # -- reconstruction -----------------------------------------------------
    @abstractmethod
    def reveal_payload(self, pid: int, view: ShareView) -> Any:
        """The payload ``pid`` contributes when opening ``view``."""

    @abstractmethod
    def verify_and_combine(
        self, payloads: Mapping[int, Any], verifier: int | None = None
    ) -> FieldElement:
        """Robustly reconstruct a value from reveal payloads.

        Pure function of the payloads (plus session verification state),
        so the designated receiver can run it locally on privately
        received payloads — the paper's "internally simulate VSS-Rec".
        Corrupted payloads are detected and ignored; raises
        :class:`ReconstructionError` if no value is identifiable.

        ``verifier`` identifies the reconstructing party for backends
        whose share authentication is verifier-specific (the statistical
        backend's ICP keys); backends with verifier-independent
        robustness (error correction, the ideal functionality) ignore it.
        """

    def zero_view(self, pid: int) -> ShareView:
        """A view of the constant 0 (identity for linear combination)."""
        raise NotImplementedError

    def reconstruct_private_batch(
        self,
        columns: Mapping[int, Sequence[Any]],
        count: int,
        verifier: int | None = None,
        views: Sequence[ShareView] | None = None,
    ) -> list[FieldElement | None]:
        """Robustly reconstruct ``count`` values from payload columns.

        ``columns`` maps each sender to its list of ``count`` reveal
        payloads; a shorter column takes part only at the positions it
        has.  This is the batch form of the paper's step-4 private
        reconstruction: the designated receiver runs it locally on
        privately received payloads.  Positions where no
        value is identifiable yield ``None`` instead of raising, so one
        corrupted coordinate cannot abort the whole opening.  ``views``
        optionally carries the verifier's own share views for backends
        with a batched fast path; this generic implementation ignores
        it.
        """
        results: list[FieldElement | None] = []
        for k in range(count):
            try:
                results.append(
                    self.verify_and_combine(
                        {
                            s: column[k]
                            for s, column in columns.items()
                            if k < len(column)
                        },
                        verifier=verifier,
                    )
                )
            except (ReconstructionError, IndexError):
                results.append(None)
        return results

    # -- batched linear algebra ---------------------------------------------
    # Generic implementations: correct for every backend, view-by-view.
    # Backends with a vectorized substrate override these with numpy
    # fast paths that produce *identical* view objects (the differential
    # harness pins this down); callers must not depend on timing.

    def reveal_payloads_batch(
        self, pid: int, views: Sequence[ShareView]
    ) -> list[Any]:
        """Reveal payloads for many views at once."""
        return [self.reveal_payload(pid, v) for v in views]

    def diff_views_batch(
        self,
        minuends: Sequence[ShareView],
        subtrahends: Sequence[ShareView],
    ) -> list[ShareView]:
        """Element-wise view differences ``minuends[k] - subtrahends[k]``."""
        from repro.obs.profiler import get_profiler

        field = self.scheme.field
        one = field(field.encode(1))
        minus_one = field(field.neg(one.value))
        prof = get_profiler()
        if prof.enabled and minuends:
            prof.count("vss", "combine_scalar_fallback", len(minuends))
        if minus_one.value == one.value:  # char 2: subtraction is addition
            return [
                a + b for a, b in zip(minuends, subtrahends, strict=True)
            ]
        return [
            a + b.scale(minus_one)
            for a, b in zip(minuends, subtrahends, strict=True)
        ]

    def diff_offsets_batch(
        self,
        batch: SharedBatch,
        offsets_a: Sequence[int],
        offsets_b: Sequence[int],
    ) -> list[ShareView]:
        """Differences ``batch[a_k] - batch[b_k]`` over offset arrays."""
        views = batch.views
        return self.diff_views_batch(
            [views[int(o)] for o in offsets_a],
            [views[int(o)] for o in offsets_b],
        )

    def sum_views_rows(
        self, rows: Sequence[Sequence[ShareView]]
    ) -> list[ShareView]:
        """Per-row linear-combination sums (one ``combine_views`` each)."""
        from repro.obs.profiler import get_profiler

        prof = get_profiler()
        if prof.enabled and rows:
            prof.count("vss", "combine_scalar_fallback", len(rows))
        return [combine_views(row) for row in rows]

    def sum_offsets_batch(
        self,
        batches: Sequence[SharedBatch],
        offset_columns: Sequence[Sequence[int]],
    ) -> list[ShareView]:
        """Cross-batch sums ``out[k] = sum_i batches[i][columns[i][k]]``.

        One offset column per batch, all of equal length ``m``; this is
        the shape of the paper's step-4 receiver sum (one batch per
        passing prover, one offset column per prover permutation).
        """
        if len(batches) != len(offset_columns):
            raise ValueError("one offset column per batch required")
        m = len(offset_columns[0]) if offset_columns else 0
        rows = [
            [
                batch.views[int(col[k])]
                for batch, col in zip(batches, offset_columns)
            ]
            for k in range(m)
        ]
        return self.sum_views_rows(rows)

    # -- canonical public opening -------------------------------------------
    def open_program(self, pid: int, views: Sequence[ShareView]) -> Program:
        """Publicly reconstruct several values in one round.

        Every party sends its reveal payloads to every other party over
        the private channels (no broadcast needed: robustness of
        ``verify_and_combine`` makes equivocation ineffective) and
        locally combines.  Returns the list of reconstructed values.
        """
        n = self.scheme.n
        payloads = self.reveal_payloads_batch(pid, views)
        inbox = yield RoundOutput(
            private={j: payloads for j in range(n) if j != pid}
        )
        columns: list[tuple[int, Any]] = [(pid, payloads)]
        for sender, payload in inbox.private.items():
            if isinstance(payload, (list, tuple)) and len(payload) == len(views):
                columns.append((sender, payload))
        results = []
        for k in range(len(views)):
            results.append(
                self.verify_and_combine(
                    {sender: payload[k] for sender, payload in columns},
                    verifier=pid,
                )
            )
        return results


class VSSScheme(ABC):
    """A linear verifiable secret sharing scheme for n parties, t < n/2."""

    def __init__(self, field: Field, n: int, t: int, cost: VSSCost):
        if not 0 <= t < n:
            raise ValueError(f"invalid threshold t={t} for n={n}")
        if field.order <= n:
            raise ValueError("field too small for the party set")
        self.field = field
        self.n = n
        self.t = t
        self.cost = cost

    @abstractmethod
    def new_session(self, rng: random.Random) -> VSSSession:
        """Start a fresh session (per protocol execution)."""

    @property
    def name(self) -> str:
        return type(self).__name__


def combine_views(
    views: Sequence[ShareView],
    coefficients: Sequence[FieldElement] | None = None,
) -> ShareView:
    """Linear combination of share views (local, no interaction).

    With ``coefficients`` omitted computes the plain sum.  At least one
    view is required (use ``session.zero_view`` for empty sums).
    """
    if not views:
        raise ValueError("need at least one view (use zero_view for empty sums)")
    if coefficients is None:
        acc = views[0]
        for v in views[1:]:
            acc = acc + v
        return acc
    if len(coefficients) != len(views):
        raise ValueError("one coefficient per view required")
    acc = views[0].scale(coefficients[0])
    for v, c in zip(views[1:], coefficients[1:]):
        acc = acc + v.scale(c)
    return acc
