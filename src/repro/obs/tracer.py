"""Span-based tracer for protocol executions.

A :class:`Tracer` observes one execution: protocol code opens nestable
*spans* around its steps (``with tracer.span("step 2: challenge")``),
the network simulator reports every completed round via
:meth:`Tracer.record_round`, and the runner brackets the stream with
:meth:`Tracer.run_start` / :meth:`Tracer.run_end`.  Rounds are
attributed to the innermost open span — that span name *is* the round's
phase, matching the phase labels of the static
:func:`repro.core.trace.round_schedule` prediction so observed and
predicted schedules can be diffed (:mod:`repro.obs.report`).

When no tracer is attached, instrumented code paths go through
:data:`NULL_TRACER`, whose methods do nothing and whose spans are a
single shared no-op context manager — the overhead is a ``None`` check
or an attribute call per *step* (not per message), which is negligible
next to a single VSS sharing.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from .events import SCHEMA_VERSION, TraceEvent, ensure_public_attrs


class _NullSpan:
    """Reusable no-op context manager (also returned by NullTracer.span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer: every hook is a constant-time no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, name: str, **attrs: Any) -> None:
        return None

    def run_start(self, **attrs: Any) -> None:
        return None

    def run_end(self, **attrs: Any) -> None:
        return None

    def record_round(
        self,
        round_index: int,
        broadcasters: Sequence[int] = (),
        messages: int = 0,
        elements: int = 0,
        per_party: dict[str, Any] | None = None,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> None:
        return None

    def record_message(
        self,
        round_index: int,
        sender: int,
        receiver: int | None = None,
        elements: int = 0,
        lamport: int = 0,
        t_send: float | None = None,
        t_recv: float | None = None,
    ) -> None:
        return None

    def record_timing_model(
        self,
        latency: dict[str, Any],
        compute: dict[str, Any],
    ) -> None:
        return None

    def record_profile(self, records: Sequence[dict[str, Any]]) -> None:
        return None


#: Shared no-op instance for ``tracer or NULL_TRACER`` call sites.
NULL_TRACER = NullTracer()


class _Span:
    """Context manager emitting span_start/span_end around a block."""

    __slots__ = ("_tracer", "name", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._tracer._enter_span(self.name, self.attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._exit_span(self.name)


class Tracer:
    """Collects the event stream of one protocol execution.

    Parameters
    ----------
    clock:
        Monotonic nanosecond clock; injectable so tests can pin
        timestamps.  Defaults to :func:`time.perf_counter_ns`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.events: list[TraceEvent] = []
        self._stack: list[str] = []
        self._next_round = 0
        # Virtual time (ms) as of the last completed round; None until a
        # run declares its timing model, so legacy/hand-driven
        # tracers keep emitting timestamp-free (pre-v4-style) spans.
        self._t_virtual: float | None = None

    # -- internals ---------------------------------------------------------
    @property
    def current_phase(self) -> str | None:
        """Innermost open span name (the phase rounds are attributed to)."""
        return self._stack[-1] if self._stack else None

    def _push(
        self,
        kind: str,
        name: str,
        attrs: dict[str, Any],
        round_index: int | None,
        phase: str | None,
    ) -> None:
        self.events.append(
            TraceEvent(
                seq=len(self.events),
                kind=kind,
                name=name,
                round_index=round_index,
                phase=phase,
                depth=len(self._stack),
                t_ns=self._clock(),
                attrs=ensure_public_attrs(attrs),
            )
        )

    def _enter_span(self, name: str, attrs: dict[str, Any]) -> None:
        if self._t_virtual is not None:
            attrs = {**attrs, "t_virtual": self._t_virtual}
        self._push("span_start", name, attrs, self._next_round, self.current_phase)
        self._stack.append(name)

    def _exit_span(self, name: str) -> None:
        if self._stack and self._stack[-1] == name:
            self._stack.pop()
        attrs: dict[str, Any] = {}
        if self._t_virtual is not None:
            attrs["t_virtual"] = self._t_virtual
        self._push("span_end", name, attrs, self._next_round, self.current_phase)

    # -- emission API (treated as a secrecy sink by lint rule RL004) -------
    def span(self, name: str, **attrs: Any) -> _Span:
        """A nestable span; rounds executed inside belong to phase ``name``."""
        return _Span(self, name, attrs)

    def annotate(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time note (public observables only)."""
        self._push("note", name, attrs, self._next_round, self.current_phase)

    def run_start(self, **attrs: Any) -> None:
        """Open the stream with run metadata and the predicted schedule."""
        attrs.setdefault("schema_version", SCHEMA_VERSION)
        self._push("run_start", "run", attrs, None, None)

    def run_end(self, **attrs: Any) -> None:
        """Close the stream with observed run totals."""
        self._push("run_end", "run", attrs, None, None)

    def record_round(
        self,
        round_index: int,
        broadcasters: Sequence[int] = (),
        messages: int = 0,
        elements: int = 0,
        per_party: dict[str, Any] | None = None,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> None:
        """Account one completed synchronous round (simulator hook).

        ``broadcasters`` lists the party ids that used the physical
        broadcast channel; ``messages``/``elements`` are the delivered
        point-to-point payload count and total field-element volume;
        ``per_party`` optionally breaks both down by sending party
        (string-keyed for JSON stability).  ``t_start``/``t_end`` are
        the round's virtual-time window in ms (schema v4), omitted from
        the event when ``None``.
        """
        attrs: dict[str, Any] = {
            "broadcasters": list(broadcasters),
            "messages": messages,
            "elements": elements,
        }
        if per_party is not None:
            attrs["per_party"] = per_party
        if t_start is not None:
            attrs["t_start"] = t_start
        if t_end is not None:
            attrs["t_end"] = t_end
            self._t_virtual = t_end
        self._push("round", "round", attrs, round_index, self.current_phase)
        self._next_round = round_index + 1

    def record_message(
        self,
        round_index: int,
        sender: int,
        receiver: int | None = None,
        elements: int = 0,
        lamport: int = 0,
        t_send: float | None = None,
        t_recv: float | None = None,
    ) -> None:
        """Account one delivered message (simulator hook, schema v3+).

        ``receiver`` is ``None`` for a physical-channel broadcast, in
        which case ``elements`` is the *wire* volume (payload size times
        fan-out) so that per-round ``msg`` volumes sum exactly to the
        round event's ``elements``.  ``lamport`` is the sender's logical
        clock at emission (see
        :class:`repro.network.messages.LamportClock`).  ``t_send`` /
        ``t_recv`` are the message's virtual send/arrival instants in
        ms (schema v4; omitted when ``None``).  Only sizes, ids, clock
        values, and timings ever enter the event.
        """
        attrs: dict[str, Any] = {
            "sender": sender,
            "receiver": receiver,
            "elements": elements,
            "lamport": lamport,
        }
        if t_send is not None:
            attrs["t_send"] = t_send
        if t_recv is not None:
            attrs["t_recv"] = t_recv
        self._push("msg", "msg", attrs, round_index, self.current_phase)

    def record_timing_model(
        self,
        latency: dict[str, Any],
        compute: dict[str, Any],
    ) -> None:
        """Declare the run's timing model (simulator hook, schema v4).

        Emits the ``timing-model`` note carrying the latency and
        compute models' public parameters (their ``describe()`` dicts)
        and arms virtual-time stamping of subsequent span events.  The
        note is model-only: runs under equivalent models stay
        canonically identical.  ``realtime`` is always ``false`` (the
        v4 schema keeps the attribute; every timestamp is virtual).
        """
        self._t_virtual = 0.0
        self._push(
            "note",
            "timing-model",
            {"latency": latency, "compute": compute, "realtime": False},
            self._next_round,
            self.current_phase,
        )

    def record_profile(self, records: Sequence[dict[str, Any]]) -> None:
        """Fold op-profiler counter records into the stream (schema v2).

        One ``prof`` event per record, named ``component/op``, carrying
        the record verbatim in ``attrs`` (component, op, phase, count,
        optional buckets — all public by construction, but still passed
        through :func:`~repro.obs.events.ensure_public_attrs`).  Callers
        emit these *before* ``run_end`` so the terminator stays last.
        """
        for record in records:
            name = f"{record.get('component', '?')}/{record.get('op', '?')}"
            self._push(
                "prof",
                name,
                dict(record),
                None,
                record.get("phase"),
            )
