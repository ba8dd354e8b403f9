"""The anomaly watchdog: clean on honest runs, loud on injected faults."""

from __future__ import annotations

import dataclasses

from repro.core import run_anonchan, scaled_parameters
from repro.network.runtime import NetworkModel, UniformLatency
from repro.obs import Tracer, scan_events, without_timing_fields
from repro.obs.anomaly import (
    HOTSPOT_MIN_ELEMENTS,
    Anomaly,
    scan_events as scan,
)
from repro.vss import GGOR13_COST, IdealVSS


def _traced_run(seed: int = 7, network=None) -> list:
    params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}
    tracer = Tracer()
    run_anonchan(params, vss, messages, seed=seed, tracer=tracer,
                 network=network)
    return list(tracer.events)


def _jittered_run(seed: int = 7) -> list:
    return _traced_run(
        seed=seed,
        network=NetworkModel(
            latency=UniformLatency(base_ms=2.0, jitter_ms=3.0), seed=seed
        ),
    )


def _msg(tracer, round_index, sender, receiver, elements, lamport):
    tracer.record_message(round_index, sender, receiver, elements, lamport)


def test_honest_traced_run_is_clean():
    assert scan_events(_traced_run()) == []


def test_anomaly_render_and_to_dict():
    a = Anomaly(kind="comm-hotspot", message="m", round_index=3, party=1)
    assert a.to_dict() == {
        "kind": "comm-hotspot", "message": "m", "round": 3, "party": 1,
    }
    assert "[comm-hotspot] round=3 party=1: m" == a.render()


# -- stalled rounds ---------------------------------------------------------

def test_dropped_round_is_a_stalled_round():
    events = _traced_run()
    idx = [i for i, ev in enumerate(events) if ev.kind == "round"][2]
    del events[idx]
    findings = scan(events)
    assert any(f.kind == "stalled-round" and "jumps" in f.message
               for f in findings)


def test_truncated_trace_without_run_end_is_stalled():
    events = _traced_run()
    assert events[-1].kind == "run_end"
    findings = scan(events[:-1])
    assert any(f.kind == "stalled-round" and "run_end" in f.message
               for f in findings)


def test_round_overrun_past_prediction_is_stalled():
    events = _traced_run()
    last_round = max(
        ev.round_index for ev in events if ev.kind == "round"
    )
    template = next(ev for ev in events if ev.kind == "round")
    runaway = [
        dataclasses.replace(
            template, round_index=last_round + 1 + i, seq=10_000 + i
        )
        for i in range(3)
    ]
    findings = scan(events[:-1] + runaway + events[-1:])
    assert any("spinning past its budget" in f.message for f in findings)


def test_silent_vss_rounds_are_not_stalled():
    """Ideal-VSS sharing rounds carry zero traffic; that is not a stall."""
    events = _traced_run()
    silent = [
        ev for ev in events
        if ev.kind == "round" and ev.attrs.get("elements", 1) == 0
    ]
    assert silent, "the hybrid run must have silent sharing rounds"
    assert scan(events) == []


# -- disqualification storms ------------------------------------------------

def test_disqualification_storm_fires_above_t():
    tracer = Tracer()
    tracer.run_start(n=5, t=1)
    tracer.annotate("vss-qualified", parties=[0, 1])  # 3 dropped > t=1
    tracer.run_end()
    findings = scan(tracer.events)
    assert any(f.kind == "disqualification-storm" for f in findings)


def test_disqualifications_within_t_are_fine():
    tracer = Tracer()
    tracer.run_start(n=5, t=2)
    tracer.annotate("cut-and-choose-passed", parties=[0, 1, 2])
    tracer.run_end()
    assert scan(tracer.events) == []


# -- comm hotspots ----------------------------------------------------------

def test_hotspot_sender_is_flagged():
    tracer = Tracer()
    volume = HOTSPOT_MIN_ELEMENTS * 4
    for rnd in range(4):
        _msg(tracer, rnd, 0, 1, volume, rnd + 1)
        for pid in (1, 2, 3, 4):
            _msg(tracer, rnd, pid, 0, 1, rnd + 1)
        tracer.record_round(rnd, messages=5, elements=volume + 4)
    findings = scan(tracer.events)
    hot = [f for f in findings if f.kind == "comm-hotspot"]
    assert len(hot) == 1 and hot[0].party == 0


def test_balanced_traffic_has_no_hotspot():
    tracer = Tracer()
    for rnd in range(4):
        for pid in range(5):
            _msg(tracer, rnd, pid, (pid + 1) % 5, HOTSPOT_MIN_ELEMENTS, rnd + 1)
    assert not [f for f in scan(tracer.events) if f.kind == "comm-hotspot"]


def test_tiny_traces_stay_below_the_noise_floor():
    tracer = Tracer()
    _msg(tracer, 0, 0, 1, HOTSPOT_MIN_ELEMENTS - 10, 1)
    _msg(tracer, 0, 1, 0, 1, 1)
    assert not [f for f in scan(tracer.events) if f.kind == "comm-hotspot"]


def test_hotspot_falls_back_to_round_summaries_on_legacy_traces():
    tracer = Tracer()
    per_party = {"0": {"messages": 1, "elements": HOTSPOT_MIN_ELEMENTS * 8}}
    for pid in (1, 2, 3, 4):
        per_party[str(pid)] = {"messages": 1, "elements": 2}
    tracer.record_round(0, messages=4, elements=0, per_party=per_party)
    findings = scan(tracer.events)
    assert any(f.kind == "comm-hotspot" and f.party == 0 for f in findings)


# -- causal order -----------------------------------------------------------

def test_non_monotone_stamp_across_rounds_is_flagged():
    tracer = Tracer()
    _msg(tracer, 0, 0, 1, 1, 5)
    _msg(tracer, 1, 0, 1, 1, 5)  # must be strictly above 5
    findings = scan(tracer.events)
    assert any(f.kind == "causal-order" and "monotone" in f.message
               for f in findings)


def test_two_stamps_in_one_round_are_flagged():
    tracer = Tracer()
    _msg(tracer, 0, 0, 1, 1, 3)
    _msg(tracer, 0, 0, 2, 1, 4)  # same round, different stamp
    findings = scan(tracer.events)
    assert any(f.kind == "causal-order" and "within one round" in f.message
               for f in findings)


def test_send_below_delivered_stamp_violates_happens_before():
    tracer = Tracer()
    _msg(tracer, 0, 1, 0, 1, 9)   # party 0 receives stamp 9 in round 0
    _msg(tracer, 1, 0, 1, 1, 2)   # then sends with stamp 2 < 9
    findings = scan(tracer.events)
    assert any(f.kind == "causal-order" and "happens-before" in f.message
               for f in findings)


def test_same_round_delivery_does_not_constrain_same_round_send():
    """Lockstep semantics: round-k sends precede round-k receipts."""
    tracer = Tracer()
    _msg(tracer, 0, 1, 0, 1, 9)  # delivered to 0 this round...
    _msg(tracer, 0, 0, 1, 1, 2)  # ...so 0's round-0 send may be below 9
    _msg(tracer, 1, 0, 1, 1, 10)  # next round it must clear the floor
    assert not [f for f in scan(tracer.events) if f.kind == "causal-order"]


def test_broadcast_stamp_floors_every_party():
    tracer = Tracer()
    _msg(tracer, 0, 1, None, 5, 7)  # broadcast with stamp 7
    _msg(tracer, 1, 2, 0, 1, 3)     # party 2 sends below it next round
    findings = scan(tracer.events)
    assert any(f.kind == "causal-order" and "happens-before" in f.message
               for f in findings)


# -- virtual-time checks (schema v4) -----------------------------------------

def _timed_rounds(durations, messages=()):
    """A dense round sequence with virtual windows and an orderly
    run_end — invisible to the count-only stall checks by construction,
    so anything scan() reports comes from the timing checks."""
    tracer = Tracer()
    tracer.run_start(n=4, t=1)
    tracer.record_timing_model(
        latency={"model": "uniform", "base_ms": 1.0, "jitter_ms": 1.0},
        compute={"model": "zero"},
    )
    per_round: dict[int, list] = {}
    for rnd, sender, receiver, t_send, t_recv, lamport in messages:
        per_round.setdefault(rnd, []).append(
            (sender, receiver, t_send, t_recv, lamport)
        )
    now = 0.0
    for rnd, duration in enumerate(durations):
        start, now = now, now + duration
        for sender, receiver, t_send, t_recv, lamport in per_round.get(rnd, ()):
            tracer.record_message(rnd, sender, receiver, elements=1,
                                  lamport=lamport, t_send=t_send,
                                  t_recv=t_recv)
        tracer.record_round(rnd, messages=len(per_round.get(rnd, ())),
                            elements=len(per_round.get(rnd, ())),
                            t_start=start, t_end=now)
    tracer.run_end(rounds=len(durations), makespan_ms=now)
    return list(tracer.events)


def test_slow_round_caught_where_count_only_stall_check_is_blind():
    """Every round completes and run_end is present, so the pre-v4
    stall detector (round-sequence gaps + missing run_end) sees nothing
    — the regression this PR fixes.  The timing check must still flag
    the round that took 20x the median busy-round duration."""
    events = _timed_rounds([1.0, 1.0, 1.0, 1.0, 1.0, 20.0])
    findings = scan(events)
    assert not any(f.kind == "stalled-round" for f in findings)
    slow = [f for f in findings if f.kind == "slow-round"]
    assert len(slow) == 1
    assert slow[0].round_index == 5
    assert "median busy-round" in slow[0].message


def test_slow_round_silent_below_minimum_busy_rounds():
    """Three busy rounds is too small a sample for a median verdict."""
    events = _timed_rounds([1.0, 1.0, 20.0])
    assert not any(f.kind == "slow-round" for f in scan(events))


def test_message_arriving_before_send_is_timing_causality():
    """Swap one arrival stamp below its send stamp on an otherwise
    honest jittered run: Lamport stamps are untouched, so the pre-v4
    causal check stays silent and only the timing check can object."""
    events = _jittered_run()
    idx = next(
        i for i, ev in enumerate(events)
        if ev.kind == "msg" and ev.attrs.get("receiver") is not None
        and ev.attrs.get("t_send", 0.0) > 0.0
    )
    attrs = dict(events[idx].attrs)
    attrs["t_recv"] = attrs["t_send"] - 1.0
    events[idx] = dataclasses.replace(events[idx], attrs=attrs)
    findings = scan(events)
    assert findings
    assert {f.kind for f in findings} == {"timing-causality"}
    assert any("before its send" in f.message for f in findings)


def test_non_monotone_round_end_is_timing_causality():
    events = _timed_rounds([1.0, 2.0, -1.5, 3.0])  # round 2 ends early
    findings = [f for f in scan(events) if f.kind == "timing-causality"]
    assert len(findings) == 1
    assert findings[0].round_index == 2
    assert "not monotone" in findings[0].message


def test_critical_path_domination_names_the_straggler():
    """Five chained hops all sent by party 1: it gates the makespan."""
    chain = [
        # (round, sender, receiver, t_send, t_recv, lamport)
        (0, 1, 1, 0.0, 1.0, 1),
        (1, 1, 1, 1.0, 2.0, 2),
        (2, 1, 1, 2.0, 3.0, 3),
        (3, 1, 1, 3.0, 4.0, 4),
        (4, 1, 0, 4.0, 5.0, 5),
    ]
    events = _timed_rounds([1.0] * 5, messages=chain)
    findings = scan(events)
    domination = [f for f in findings if f.kind == "critical-path-domination"]
    assert len(domination) == 1
    assert domination[0].party == 1
    assert "gated by one straggling party" in domination[0].message
    assert not any(f.kind == "slow-round" for f in findings)


def test_jittered_honest_run_passes_timing_checks():
    assert scan(_jittered_run()) == []


def test_timing_checks_stay_silent_on_stripped_v3_traces():
    """The new checks arm only on schema-v4 stamps: strip them and the
    slow-round trace above must scan clean, like any legacy trace."""
    events = without_timing_fields(
        _timed_rounds([1.0, 1.0, 1.0, 1.0, 1.0, 20.0])
    )
    assert scan(events) == []
