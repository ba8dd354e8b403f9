"""Chrome-trace (Perfetto) export of v4 traces."""

from __future__ import annotations

import json

from repro.core import run_anonchan, scaled_parameters
from repro.network.runtime import NetworkModel, UniformLatency
from repro.obs import (
    Tracer,
    chrome_trace,
    without_timing_fields,
    write_chrome_trace,
)
from repro.vss import GGOR13_COST, IdealVSS


def _traced_run(network=None, n: int = 5) -> Tracer:
    params = scaled_parameters(n=n)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(n)}
    tracer = Tracer()
    run_anonchan(params, vss, messages, seed=0, tracer=tracer,
                 network=network)
    return tracer


def _jittered_events():
    return _traced_run(
        network=NetworkModel(
            latency=UniformLatency(base_ms=3.0, jitter_ms=2.0), seed=0
        )
    ).events


def test_chrome_trace_shape():
    payload = chrome_trace(_jittered_events())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    by_phase = {}
    for ev in events:
        by_phase.setdefault(ev["ph"], []).append(ev)
    # Metadata: the process plus one thread per party.
    names = {ev["name"] for ev in by_phase["M"]}
    assert names == {"process_name", "thread_name"}
    threads = [ev for ev in by_phase["M"] if ev["name"] == "thread_name"]
    assert {ev["args"]["name"] for ev in threads} == {
        f"party {pid}" for pid in range(5)
    }
    # Slices: every complete event has non-negative extent in µs.
    assert by_phase["X"]
    assert all(ev["dur"] >= 0.0 and ev["ts"] >= 0.0 for ev in by_phase["X"])
    # Flows come in s/f pairs with matching ids, sender -> receiver.
    starts = {ev["id"]: ev for ev in by_phase["s"]}
    finishes = {ev["id"]: ev for ev in by_phase["f"]}
    assert set(starts) == set(finishes)
    for flow_id, start in starts.items():
        finish = finishes[flow_id]
        assert start["tid"] == start["args"]["sender"]
        assert finish["tid"] == finish["args"]["receiver"]
        assert finish["bp"] == "e"
        assert finish["ts"] >= start["ts"]  # arrival after send


def test_flow_count_matches_private_deliveries():
    events = _jittered_events()
    payload = chrome_trace(events)
    private = [
        ev for ev in events
        if ev.kind == "msg" and ev.attrs.get("receiver") is not None
    ]
    flows = [ev for ev in payload["traceEvents"] if ev["ph"] == "s"]
    assert len(flows) == len(private)


def test_lockstep_trace_exports_degenerate_timeline():
    """All-zero virtual time still yields a loadable timeline."""
    payload = chrome_trace(_traced_run().events)
    slices = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert slices
    assert all(ev["ts"] == 0.0 and ev["dur"] == 0.0 for ev in slices)


def test_stripped_trace_exports_metadata_only():
    payload = chrome_trace(without_timing_fields(_traced_run().events))
    kinds = {ev["ph"] for ev in payload["traceEvents"]}
    assert kinds == {"M"}  # nothing to place on a time axis


def test_write_chrome_trace_round_trips(tmp_path):
    events = _jittered_events()
    path = tmp_path / "timeline.json"
    count = write_chrome_trace(events, path)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert count == len(loaded["traceEvents"])
    assert loaded == json.loads(json.dumps(chrome_trace(events)))
