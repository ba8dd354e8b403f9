"""TimingReport: makespan, stragglers, critical path, prediction."""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import run_anonchan, scaled_parameters
from repro.network.runtime import NetworkModel, UniformLatency
from repro.obs import (
    TimingReport,
    Tracer,
    canonical_lines,
    histogram,
    without_timing_fields,
)
from repro.obs.timing import CriticalHop, _critical_path, _expected_round_ms
from repro.vss import GGOR13_COST, IdealVSS

BASELINE = (
    Path(__file__).parent / "data" / "trace_v3_lockstep_n5_seed0.canonical.jsonl"
)


def _traced_run(network=None, seed: int = 0, n: int = 5) -> Tracer:
    params = scaled_parameters(n=n)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(n)}
    tracer = Tracer()
    run_anonchan(
        params, vss, messages, seed=seed, tracer=tracer, network=network
    )
    return tracer


def _jittered_run(seed: int = 0) -> Tracer:
    return _traced_run(
        network=NetworkModel(
            latency=UniformLatency(base_ms=3.0, jitter_ms=2.0), seed=seed
        ),
        seed=seed,
    )


# -- histogram --------------------------------------------------------------

def test_histogram_empty_and_degenerate():
    assert histogram([]) == []
    assert histogram([2.0, 2.0, 2.0]) == [(2.0, 2.0, 3)]


def test_histogram_buckets_cover_all_samples():
    values = [float(i) for i in range(17)]
    buckets = histogram(values, buckets=4)
    assert len(buckets) == 4
    assert sum(count for _, _, count in buckets) == len(values)
    assert buckets[0][0] == 0.0 and buckets[-1][1] == 16.0


# -- analytic expectation ---------------------------------------------------

def test_expected_round_ms_mirrors_models():
    assert _expected_round_ms({"model": "zero"}, 10) == 0.0
    assert _expected_round_ms({"model": "fixed", "base_ms": 4.0}, 3) == 4.0
    assert _expected_round_ms({"model": "fixed", "base_ms": 4.0}, 0) == 0.0
    # E[max of k U(1, 6)] = 1 + 5 * k / (k + 1)
    expected = _expected_round_ms(
        {"model": "uniform", "base_ms": 1.0, "jitter_ms": 5.0}, 4
    )
    assert abs(expected - (1.0 + 5.0 * 4 / 5)) < 1e-12


def test_expected_round_ms_matches_runtime_models():
    """The trace-side mirror must agree with the network-layer models."""
    from repro.network.runtime.models import FixedLatency, ZeroLatency

    for model, k in [
        (UniformLatency(base_ms=2.0, jitter_ms=7.0), 5),
        (FixedLatency(base_ms=3.5), 2),
        (ZeroLatency(), 9),
    ]:
        assert (
            _expected_round_ms(model.describe(), k)
            == model.expected_round_ms(k)
        )


# -- critical path on hand-built DAGs ---------------------------------------

def _hop(r, s, recv, t_send, t_recv):
    return CriticalHop(
        round_index=r, phase=f"phase-{r}", sender=s, receiver=recv,
        t_send=t_send, t_recv=t_recv,
    )


def test_critical_path_follows_latest_inbound_chain():
    msgs = [
        _hop(0, 1, 2, 0.0, 5.0),   # gates P2's round-1 send
        _hop(0, 3, 2, 0.0, 1.0),   # earlier arrival, not on the path
        _hop(1, 2, 0, 5.0, 9.0),   # the makespan-closing delivery
        _hop(1, 3, 0, 0.0, 2.0),
    ]
    path = _critical_path(msgs)
    assert [(h.round_index, h.sender, h.receiver) for h in path] == [
        (0, 1, 2),
        (1, 2, 0),
    ]


def test_critical_path_crosses_broadcasts():
    msgs = [
        _hop(0, 4, None, 3.0, 3.0),  # broadcast instant gates everyone
        _hop(1, 2, 0, 3.0, 7.0),
    ]
    path = _critical_path(msgs)
    assert [(h.sender, h.receiver) for h in path] == [(4, None), (2, 0)]


def test_critical_path_empty_without_messages():
    assert _critical_path([]) == []


def test_critical_path_stops_at_zero_time():
    """An all-zero (lockstep) trace yields a single-hop path, not the
    entire message history chained at t=0."""
    msgs = [_hop(r, r % 3, (r + 1) % 3, 0.0, 0.0) for r in range(6)]
    assert len(_critical_path(msgs)) == 1


# -- end-to-end: jittered run ------------------------------------------------

def test_jittered_run_report_end_to_end():
    tracer = _jittered_run()
    report = TimingReport.from_events(tracer.events)
    assert report.has_timing
    assert report.makespan_ms > 0.0
    assert report.latency_model == {
        "model": "uniform", "base_ms": 3.0, "jitter_ms": 2.0,
        "elements_per_ms": 0.0,
    }
    assert report.compute_model == {"model": "zero"}
    assert not report.realtime
    # Rounds are monotone and the last window ends at the makespan.
    ends = [w.t_end for w in report.rounds]
    assert ends == sorted(ends)
    assert abs(ends[-1] - report.makespan_ms) < 1e-9
    # The prediction is computable and within tolerance on this model.
    assert report.predicted_makespan_ms is not None
    assert report.predicted_makespan_ms > 0.0
    assert report.makespan_ok, (
        f"delta {report.makespan_delta:+.1%} outside ±{report.tolerance:.0%}"
    )
    # Critical path: strictly increasing rounds and arrival times,
    # ending at the makespan.
    path = report.critical_path
    assert path
    rounds = [h.round_index for h in path]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
    recvs = [h.t_recv for h in path]
    assert recvs == sorted(recvs)
    assert abs(recvs[-1] - report.makespan_ms) < 1e-9
    assert abs(sum(report.critical_share.values()) - 1.0) < 1e-9
    assert report.dominant_party in report.critical_share
    # Every closed round names a straggler that actually sent in it.
    assert sum(report.straggler_counts.values()) == sum(
        1 for w in report.rounds if w.straggler is not None
    )


def test_jittered_report_renders_and_serializes():
    report = TimingReport.from_events(_jittered_run().events)
    text = report.render_text()
    assert "observed makespan" in text
    assert "predicted makespan" in text
    assert "[OK]" in text
    assert "critical path" in text
    payload = report.to_dict()
    # JSON-stable end to end.
    assert json.loads(json.dumps(payload)) == payload
    assert payload["makespan_ok"] is True
    assert payload["version"] == 1


def test_report_is_deterministic_across_replays():
    a = TimingReport.from_events(_jittered_run(seed=3).events)
    b = TimingReport.from_events(_jittered_run(seed=3).events)
    assert a.to_dict() == b.to_dict()


def test_different_seeds_give_different_makespans():
    a = TimingReport.from_events(_jittered_run(seed=1).events)
    b = TimingReport.from_events(_jittered_run(seed=2).events)
    assert a.makespan_ms != b.makespan_ms


# -- lockstep degenerates to zero -------------------------------------------

def test_lockstep_report_is_all_zero_and_ok():
    report = TimingReport.from_events(_traced_run().events)
    assert report.has_timing
    assert report.makespan_ms == 0.0
    assert report.latency_model == {"model": "zero"}
    assert report.predicted_makespan_ms == 0.0
    assert report.makespan_delta == 0.0
    assert report.makespan_ok
    assert all(w.t_start == 0.0 and w.t_end == 0.0 for w in report.rounds)


def test_pre_v4_trace_reports_no_timing():
    stripped = without_timing_fields(_traced_run().events)
    report = TimingReport.from_events(stripped)
    assert not report.has_timing
    assert "no virtual-time stamps" in report.render_text()
    assert report.to_dict()["has_timing"] is False


# -- the PR-8 baseline: v4 strips back to the pre-timing trace --------------

def test_lockstep_canonical_trace_matches_pre_timing_baseline():
    """Stripping the v4 timing fields from today's lockstep trace must
    reproduce the committed pre-timing (v3) trace byte for byte —
    the timing layer added information, it changed nothing."""
    tracer = _traced_run(seed=0)
    lines = canonical_lines(without_timing_fields(tracer.events))
    baseline = BASELINE.read_text().splitlines()
    assert lines == baseline


def test_async_zero_latency_strips_to_same_baseline():
    """An explicit zero network model strips to the same pre-timing
    baseline."""
    tracer = _traced_run(network=NetworkModel(), seed=0)
    lines = canonical_lines(without_timing_fields(tracer.events))
    assert lines == BASELINE.read_text().splitlines()
