"""Regression tests for the shared round engine's accounting.

The size cache must treat a cached size of 0 (empty payloads) as a hit:
the old ``size_cache.get(id(p)) or payload_size(p)`` lookup was falsy
on 0 and silently recomputed, drifting from the ``.get(id(p), 0)``
convention used for msg events.  With the sentinel-based cache,
per-party volumes, msg events, and round totals agree by construction.
"""

import math
from collections import Counter

import pytest

from repro.network import RoundOutput, run_protocol
from repro.network.runtime import (
    Delay,
    FixedLatency,
    LinearCost,
    NetworkModel,
    UniformLatency,
    cached_payload_size,
    engine,
)
from repro.obs import Tracer


def _one_round_programs(empty_payload):
    def sender():
        yield RoundOutput(
            private={1: empty_payload, 2: empty_payload},
            broadcast="done",
        )
        return "sender"

    def sink():
        yield RoundOutput.silent()
        return "sink"

    return {0: sender(), 1: sink(), 2: sink()}


class TestSizeCacheSentinel:
    def test_cached_zero_is_a_hit(self):
        cache: dict[int, int] = {}
        empty: list = []
        assert cached_payload_size(cache, empty) == 0
        assert cache == {id(empty): 0}
        # Poison the cache: a second lookup must return the cached
        # value, not recompute (which would return 0 and mask the miss).
        cache[id(empty)] = 0
        assert cached_payload_size(cache, empty) == 0
        assert len(cache) == 1

    def test_empty_payload_sized_once_per_round(self, monkeypatch):
        """The falsy-zero bug recomputed empty payloads per recipient.

        One empty list delivered to two recipients must be sized exactly
        once for the whole traced round: delivery caches it, and both
        the per-party breakdown and the msg events hit the cache.  The
        pre-fix code called ``payload_size`` once per recipient again in
        the per-party breakdown (cached 0 is falsy under ``or``).
        """
        calls: Counter = Counter()
        real = engine.payload_size

        def counting(payload):
            calls[id(payload)] += 1
            return real(payload)

        monkeypatch.setattr(engine, "payload_size", counting)
        empty: list = []
        tracer = Tracer(clock=lambda: 0)
        run_protocol(_one_round_programs(empty), tracer=tracer)
        assert calls[id(empty)] == 1

    def test_empty_payload_accounting_agrees_by_construction(self):
        """per-party volumes == msg-event volumes == round elements."""
        empty: list = []
        tracer = Tracer(clock=lambda: 0)
        run_protocol(_one_round_programs(empty), tracer=tracer)
        rounds = [e for e in tracer.events if e.kind == "round"]
        msgs = [e for e in tracer.events if e.kind == "msg"]
        assert len(rounds) == 1
        round_elements = rounds[0].attrs["elements"]
        per_party = rounds[0].attrs["per_party"]
        assert round_elements == 2  # broadcast "done" x fan-out 2; lists empty
        assert sum(p["elements"] for p in per_party.values()) == round_elements
        assert sum(e.attrs["elements"] for e in msgs) == round_elements
        # The two empty private deliveries appear as zero-volume events.
        private = [e for e in msgs if e.attrs["receiver"] is not None]
        assert [e.attrs["elements"] for e in private] == [0, 0]


class TestDelaySampling:
    """Sampled per-message delays: persisted on the plan, a function of
    the seed alone, and insertion-order independent."""

    def _outputs(self, order, n=4, inner_reversed=False):
        outs = {}
        for sender in order:
            recipients = [r for r in range(n) if r != sender]
            if inner_reversed:
                recipients.reverse()
            outs[sender] = RoundOutput(
                private={r: [sender, r] for r in recipients}
            )
        return outs

    def test_delays_are_seed_deterministic_and_order_independent(self):
        """Same seed, any dict insertion order -> identical offsets.

        ``sample_delays`` iterates sorted (sender, recipient) pairs, so
        the rng stream never depends on how the outputs dicts happened
        to be built."""
        import random as _random

        from repro.network.runtime.engine import (
            compute_delivery,
            sample_delays,
        )

        model = UniformLatency(base_ms=1.0, jitter_ms=9.0)
        shapes = [
            ([0, 1, 2, 3], False),
            ([3, 1, 0, 2], False),
            ([2, 0, 3, 1], True),
        ]
        sampled = []
        for order, inner_reversed in shapes:
            outs = self._outputs(order, inner_reversed=inner_reversed)
            delivery = compute_delivery(outs, range(4), True)
            sampled.append(
                sample_delays(
                    _random.Random(42), model, (), 0, outs, delivery, True
                )
            )
        assert sampled[0] == sampled[1] == sampled[2]
        assert set(sampled[0]) == {
            (s, r) for s in range(4) for r in range(4) if s != r
        }
        assert all(1.0 <= d <= 10.0 for d in sampled[0].values())

    def test_different_seeds_sample_different_delays(self):
        import random as _random

        from repro.network.runtime.engine import (
            compute_delivery,
            sample_delays,
        )

        model = UniformLatency(base_ms=1.0, jitter_ms=9.0)
        outs = self._outputs([0, 1, 2, 3])
        delivery = compute_delivery(outs, range(4), True)
        a = sample_delays(_random.Random(1), model, (), 0, outs, delivery, True)
        b = sample_delays(_random.Random(2), model, (), 0, outs, delivery, True)
        assert a != b

    def test_link_fault_delay_folds_into_persisted_offset(self):
        """The persisted offset is the message's complete transit time."""
        import random as _random

        from repro.network.runtime.engine import (
            compute_delivery,
            sample_delays,
        )
        from repro.network.runtime.models import Delay

        fault = Delay(
            delay_ms=7.0, senders=frozenset({0}), recipients=frozenset({2})
        )
        outs = self._outputs([0, 1, 2, 3])
        delivery = compute_delivery(outs, range(4), True)
        delays = sample_delays(
            _random.Random(0), FixedLatency(base_ms=2.0), (fault,),
            0, outs, delivery, True,
        )
        assert delays[(0, 2)] == 9.0
        assert all(
            d == 2.0 for pair, d in delays.items() if pair != (0, 2)
        )

    def test_persisted_delays_surface_as_trace_stamps(self):
        """End to end: every private msg event's t_recv - t_send equals
        the fixed link latency the engine sampled and persisted."""
        n = 4

        def prog(pid):
            inbox = yield RoundOutput(
                private={q: [pid] for q in range(n) if q != pid}
            )
            yield RoundOutput(
                private={q: [len(inbox.private)] for q in range(n)
                         if q != pid}
            )
            return pid

        tracer = Tracer(clock=lambda: 0)
        run_protocol(
            {pid: prog(pid) for pid in range(n)},
            tracer=tracer,
            network=NetworkModel(latency=FixedLatency(base_ms=2.5), seed=0),
        )
        private = [
            ev for ev in tracer.events
            if ev.kind == "msg" and ev.attrs.get("receiver") is not None
        ]
        assert private
        for ev in private:
            assert ev.attrs["t_recv"] - ev.attrs["t_send"] == 2.5

    def test_equal_delays_preserve_lockstep_arrival_order(self):
        """Fixed latency ties every delay, so the (delay, seq) sort
        falls back to sender order and inboxes iterate exactly as without
        a model — arrival order is part of the reproducibility story."""
        n = 5

        def order_probe(pid):
            inbox = yield RoundOutput(
                private={q: [pid] for q in range(n) if q != pid}
            )
            return list(inbox.private)

        def mk():
            return {pid: order_probe(pid) for pid in range(n)}

        lock = run_protocol(mk())
        fixed = run_protocol(
            mk(),
            network=NetworkModel(latency=FixedLatency(base_ms=3.0), seed=9),
        )
        assert lock.outputs == fixed.outputs


class TestModelValidation:
    """Model parameters are virtual durations and rates: finite, >= 0."""

    @pytest.mark.parametrize("bad", [-5.0, -1e-9, math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda v: FixedLatency(base_ms=v),
        lambda v: UniformLatency(base_ms=v),
        lambda v: UniformLatency(jitter_ms=v),
        lambda v: UniformLatency(elements_per_ms=v),
        lambda v: LinearCost(per_round_ms=v),
        lambda v: LinearCost(per_element_ms=v),
        lambda v: Delay(delay_ms=v),
    ])
    def test_rejects_negative_or_non_finite(self, build, bad):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            build(bad)

    def test_accepts_zero(self):
        assert FixedLatency(base_ms=0.0).base_ms == 0.0
        assert UniformLatency(0.0, 0.0, 0.0).describe()["jitter_ms"] == 0.0
        assert LinearCost(0.0, 0.0).cost_ms(0, 0, 3, 9) == 0.0
        assert Delay(delay_ms=0.0).extra_delay_ms(0, 0, 1) == 0.0
