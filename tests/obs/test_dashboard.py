"""The HTML telemetry dashboard: self-contained, escaped, degradable."""

from __future__ import annotations

from repro.core import run_anonchan, scaled_parameters
from repro.obs import CommReport, Tracer, render_dashboard
from repro.vss import GGOR13_COST, IdealVSS


def _comm_dict():
    params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}
    tracer = Tracer()
    run_anonchan(params, vss, messages, seed=7, tracer=tracer)
    return CommReport.from_events(tracer.events).to_dict()


def test_empty_dashboard_renders_placeholders():
    page = render_dashboard()
    assert page.startswith("<!DOCTYPE html>")
    assert "no campaign report supplied" in page
    assert "no telemetry store supplied" in page
    assert "no BENCH history supplied" in page
    assert "no trace supplied" in page


def test_dashboard_is_self_contained():
    page = render_dashboard(comm=_comm_dict())
    # No external resources of any kind: CI artifact must render offline.
    for needle in ("http://", "https://", "<script", "<link", "@import"):
        assert needle not in page
    assert "<style>" in page


def test_comm_heatmap_renders_links_and_verdict():
    page = render_dashboard(comm=_comm_dict())
    assert "Communication heatmap" in page
    assert "bcast" in page
    assert "communication within every analytic bound" in page


def test_comm_divergences_are_listed():
    comm = _comm_dict()
    comm["divergences"] = ["E2: too many broadcast rounds"]
    page = render_dashboard(comm=comm)
    assert "comm divergences" in page
    assert "E2: too many broadcast rounds" in page


def test_campaign_section_groups_pass_rates_by_axis():
    campaign = {
        "grid": "smoke",
        "campaign_seed": 0,
        "totals": {"ok": False, "configs": 2, "runs": 6},
        "configs": [
            {"config": {"name": "a", "strategy": "honest", "fault": "none",
                        "substrate": "auto"}, "ok": True, "violations": []},
            {"config": {"name": "b", "strategy": "jam", "fault": "drop",
                        "substrate": "auto"}, "ok": False,
             "violations": ["claim2-delivery"]},
        ],
    }
    page = render_dashboard(campaign=campaign)
    assert "pass rate by strategy" in page
    assert "INVARIANT VIOLATIONS" in page
    assert "claim2-delivery" in page
    assert "jam" in page


def test_telemetry_section_aggregates_per_config():
    telemetry = [
        {"config": "tiny", "rounds": 6, "broadcast_rounds": 2,
         "private_messages": 20, "field_elements_sent": 4000,
         "honest_delivered": True},
        {"config": "tiny", "rounds": 6, "broadcast_rounds": 2,
         "private_messages": 20, "field_elements_sent": 4200,
         "honest_delivered": False},
    ]
    page = render_dashboard(telemetry=telemetry)
    assert "2 trial records across 1 config(s)" in page
    assert "tiny" in page
    assert "1/2" in page  # delivered column


def test_bench_section_renders_sparklines():
    history = [
        {"stamp": "s1", "experiment": "emu_demo",
         "metrics": {"256/batched ms": 2.0}},
        {"stamp": "s2", "experiment": "emu_demo",
         "metrics": {"256/batched ms": 2.4}},
    ]
    page = render_dashboard(bench_history=history)
    assert "emu_demo (2 snapshots)" in page
    assert '<svg class="spark"' in page
    assert "polyline" in page
    assert "2.4" in page  # latest value


def test_everything_is_html_escaped():
    campaign = {
        "grid": "<script>alert(1)</script>",
        "campaign_seed": 0,
        "totals": {"ok": True, "configs": 1, "runs": 1},
        "configs": [
            {"config": {"name": "<img onerror=x>", "strategy": "h&m",
                        "fault": "none", "substrate": "auto"},
             "ok": True, "violations": []},
        ],
    }
    page = render_dashboard(campaign=campaign, title="<b>evil</b>")
    assert "<script>alert(1)</script>" not in page
    assert "&lt;script&gt;" in page
    assert "<b>evil</b>" not in page
    assert "h&amp;m" in page


def _timing_dict(jittered: bool = True):
    from repro.network.runtime import NetworkModel, UniformLatency
    from repro.obs import TimingReport

    params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}
    tracer = Tracer()
    network = (
        NetworkModel(
            latency=UniformLatency(base_ms=3.0, jitter_ms=2.0), seed=7
        )
        if jittered
        else None
    )
    run_anonchan(params, vss, messages, seed=7, tracer=tracer,
                 network=network)
    return TimingReport.from_events(tracer.events).to_dict()


def test_timing_panel_renders_verdict_heatmap_and_critical_path():
    page = render_dashboard(timing=_timing_dict())
    assert "Timing &amp; critical path" in page
    assert "within tolerance" in page
    assert "observed makespan" in page
    # The straggler heatmap and the hop table are both present.
    assert "Stragglers" in page or "straggler" in page
    assert "critical path" in page.lower()


def test_timing_panel_placeholder_without_v4_trace():
    page = render_dashboard()
    assert "Timing &amp; critical path" in page
    assert ("no schema-v4 trace" in page or "no trace" in page
            or "no virtual-time" in page)


def test_timing_panel_sparkline_from_telemetry_makespans():
    telemetry = [
        {"config": "c", "strategy": "honest", "fault": "none", "n": 5,
         "trial": i, "honest_delivered": True, "agreement": True,
         "rounds": 30, "makespan_ms": 20.0 + i}
        for i in range(4)
    ]
    page = render_dashboard(timing=_timing_dict(), telemetry=telemetry)
    assert "per-trial makespan" in page.lower()
