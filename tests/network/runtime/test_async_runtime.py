"""Behavioral tests for network models in the synchronous engine.

These are the behaviours the per-party asyncio runtime introduced and
the engine's ``network=`` argument now carries: fault injection (crash,
partition, delay, reorder), max-round enforcement, party-error
propagation, and the accounting property that per-round ``msg``-event
volumes always sum to the ``round`` event's ``elements`` — with and
without a network model, including under adaptive corruption and
parties that terminate early.
"""

import random
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.network import Adversary, ProtocolViolation, RoundOutput, run_protocol
from repro.network.runtime import (
    Crash,
    Delay,
    NetworkModel,
    Partition,
    ReorderWithinRound,
    UniformLatency,
)
from repro.obs import Tracer


def _sum_exchange(n: int, rounds: int = 3):
    """Parties repeatedly exchange order-insensitive sums."""

    def prog(pid: int):
        inbox = yield RoundOutput(
            private={q: [pid + 1] for q in range(n) if q != pid}
        )
        for _ in range(rounds):
            total = sum(v for vals in inbox.private.values() for v in vals)
            inbox = yield RoundOutput(
                private={q: [total] for q in range(n) if q != pid}
            )
        return sum(v for vals in inbox.private.values() for v in vals)

    return {pid: prog(pid) for pid in range(n)}


class TestFaults:
    def test_crash_is_fail_stop(self):
        n = 5
        network = NetworkModel(faults=(Crash(pid=3, round_index=2),))
        result = run_protocol(_sum_exchange(n), network=network)
        assert set(result.outputs) == {0, 1, 2, 4}
        # Survivors keep running on whatever still arrives.
        assert all(isinstance(v, int) for v in result.outputs.values())

    def test_crash_messages_not_counted(self):
        n = 4
        clean = run_protocol(_sum_exchange(n), network=NetworkModel())
        crashed = run_protocol(
            _sum_exchange(n),
            network=NetworkModel(
                faults=(Crash(pid=1, round_index=1),)
            ),
        )
        assert crashed.metrics.field_elements_sent < (
            clean.metrics.field_elements_sent
        )
        assert crashed.metrics.private_messages < clean.metrics.private_messages

    def test_partition_drops_cross_cut_only(self):
        n = 4
        tracer = Tracer(clock=lambda: 0)
        network = NetworkModel(
            faults=(Partition(group=frozenset({0, 1}), rounds=(1, 3)),)
        )
        result = run_protocol(
            _sum_exchange(n), network=network, tracer=tracer
        )
        clean = run_protocol(_sum_exchange(n), network=NetworkModel())
        assert result.metrics.field_elements_sent < (
            clean.metrics.field_elements_sent
        )
        # During partitioned rounds no msg event crosses the cut.
        group = {0, 1}
        for ev in tracer.events:
            if ev.kind != "msg" or not (1 <= ev.round_index < 3):
                continue
            sender = ev.attrs["sender"]
            receiver = ev.attrs["receiver"]
            if receiver is None:
                continue
            assert (sender in group) == (receiver in group)

    def test_partition_spares_broadcast(self):
        n = 4

        def prog(pid: int):
            inbox = yield RoundOutput(broadcast=[pid])
            inbox = yield RoundOutput(
                private={q: [pid] for q in range(n) if q != pid},
                broadcast=[pid * 10],
            )
            return (dict(inbox.broadcast), sorted(inbox.private))

        programs = {pid: prog(pid) for pid in range(n)}
        network = NetworkModel(
            faults=(Partition(group=frozenset({0}), rounds=(0, 10)),)
        )
        result = run_protocol(programs, network=network)
        broadcasts, private_senders = result.outputs[0]
        # The isolated party still hears every broadcast...
        assert broadcasts == {pid: [pid * 10] for pid in range(n)}
        # ...but receives no point-to-point traffic across the cut.
        assert private_senders == []

    def test_delay_fault_keeps_outcomes(self):
        n = 4
        delayed = NetworkModel(
            faults=(Delay(delay_ms=50.0, senders=frozenset({2})),)
        )
        r_delayed = run_protocol(_sum_exchange(n), network=delayed)
        r_clean = run_protocol(_sum_exchange(n), network=NetworkModel())
        # Delays reorder arrivals but never drop: same sums, same totals.
        assert r_delayed.outputs == r_clean.outputs
        assert replace(r_delayed.metrics, makespan_ms=0.0) == r_clean.metrics
        # ...but virtual time sees the straggler: each of the two rounds
        # ends on party 2's 50 ms-late deliveries.
        assert r_clean.metrics.makespan_ms == 0.0
        assert r_delayed.metrics.makespan_ms == 100.0

    def test_reorder_within_round_keeps_outcomes(self):
        n = 6
        shuffled = NetworkModel(
            faults=(ReorderWithinRound(),), seed=77
        )
        r_shuf = run_protocol(_sum_exchange(n), network=shuffled)
        r_clean = run_protocol(_sum_exchange(n), network=NetworkModel())
        assert r_shuf.outputs == r_clean.outputs
        assert r_shuf.metrics == r_clean.metrics


class TestProtocolDiscipline:
    def test_max_rounds_enforced(self):
        def forever(n, pid):
            inbox = yield RoundOutput()
            while True:
                inbox = yield RoundOutput()
                del inbox

        programs = {pid: forever(3, pid) for pid in range(3)}
        with pytest.raises(ProtocolViolation, match="exceeded"):
            run_protocol(programs, max_rounds=10, network=NetworkModel())

    def test_party_exception_propagates(self):
        def faulty(pid: int):
            inbox = yield RoundOutput(private={1 - pid: [pid]})
            del inbox
            raise RuntimeError(f"party {pid} corrupted its own state")

        programs = {pid: faulty(pid) for pid in range(2)}
        with pytest.raises(RuntimeError, match="corrupted its own state"):
            run_protocol(programs, network=NetworkModel())

    def test_rushing_view_sees_honest_round(self):
        n = 3
        seen = []

        class Rusher(Adversary):
            def act(self, view):
                seen.append(dict(view.to_corrupted.get(2, {})))
                return super().act(view)

        lock = run_protocol(
            _sum_exchange(n, rounds=1), adversary=Rusher({2})
        )
        seen_lock, seen[:] = list(seen), []
        result = run_protocol(
            _sum_exchange(n, rounds=1),
            adversary=Rusher({2}),
            network=NetworkModel(),
        )
        assert result.outputs == lock.outputs
        # Every round the rushing view exposed both honest senders'
        # payloads addressed to the corrupted party, pre-delivery —
        # identically with and without a network model.
        assert seen and all(set(v) == {0, 1} for v in seen)
        assert seen == seen_lock


def _msg_volume_matches_rounds(events) -> None:
    """Per-round msg-event volume must sum to the round's elements."""
    msg_volume: dict[int, int] = defaultdict(int)
    round_elements: dict[int, int] = {}
    for ev in events:
        if ev.kind == "msg":
            msg_volume[ev.round_index] += ev.attrs["elements"]
        elif ev.kind == "round":
            round_elements[ev.round_index] = ev.attrs["elements"]
    assert round_elements, "no round events recorded"
    for round_index, elements in round_elements.items():
        assert msg_volume.get(round_index, 0) == elements, (
            f"round {round_index}: msg events sum to "
            f"{msg_volume.get(round_index, 0)}, round says {elements}"
        )


class TestAccountingProperty:
    @pytest.mark.parametrize(
        "network", [None, NetworkModel()], ids=["no-model", "zero-model"]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_msg_volume_sums_to_round_elements(self, network, seed):
        """Property: volumes reconcile under adaptive corruption and
        early-terminating parties, with empty and bulk payloads mixed in."""
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        corrupt_round = rng.randrange(4)
        victim = rng.randrange(n)

        def prog(pid: int, lifetime: int):
            mine = random.Random((seed << 8) | pid)
            inbox = yield RoundOutput(
                private={
                    q: [mine.randrange(9)] * mine.randrange(4)
                    for q in range(n)
                    if q != pid
                },
                broadcast=[pid] if mine.random() < 0.5 else None,
            )
            for _ in range(lifetime):
                inbox = yield RoundOutput(
                    private={
                        q: [len(inbox.private)] * mine.randrange(3)
                        for q in range(n)
                        if q != pid
                    }
                )
            return pid

        class Adaptive(Adversary):
            def maybe_corrupt(self, round_index, total, budget):
                if round_index == corrupt_round and budget == 0:
                    return {victim}
                return set()

        programs = {
            pid: prog(pid, rng.randint(1, 5)) for pid in range(n)
        }
        tracer = Tracer(clock=lambda: 0)
        result = run_protocol(
            programs,
            adversary=Adaptive(set()),
            tracer=tracer,
            network=network,
        )
        _msg_volume_matches_rounds(tracer.events)
        total = sum(
            ev.attrs["elements"]
            for ev in tracer.events
            if ev.kind == "round"
        )
        assert total == result.metrics.field_elements_sent

    def test_msg_volume_holds_under_async_faults(self):
        """Dropped deliveries are uncounted on both sides of the ledger."""
        n = 5
        tracer = Tracer(clock=lambda: 0)
        network = NetworkModel(
            latency=UniformLatency(base_ms=1.0, jitter_ms=5.0),
            faults=(
                Partition(group=frozenset({0, 1}), rounds=(1, 2)),
                Crash(pid=4, round_index=2),
            ),
            seed=13,
        )
        run_protocol(_sum_exchange(n, rounds=4), network=network,
                     tracer=tracer)
        _msg_volume_matches_rounds(tracer.events)
