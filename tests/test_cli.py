"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.__main__ import main


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "subcommand is required" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_rounds_subcommand_prints_table(capsys):
    assert main(["rounds"]) == 0
    out = capsys.readouterr().out
    assert "protocol" in out and "GGOR14 (this paper)" in out


def test_params_subcommand(capsys):
    assert main(["params", "-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "paper-exact" in out and "scaled" in out


def test_trace_run_prints_matching_report(capsys):
    assert main(["trace-run", "-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "matches the static prediction exactly" in out
    assert "step 1: VSS-Share" in out


def test_trace_run_exports_valid_jsonl(tmp_path, capsys):
    from repro.obs import validate_file

    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--jam", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert validate_file(trace) == []


def test_trace_run_json_output(capsys):
    import json

    assert main(["trace-run", "-n", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["matches_prediction"] is True


def test_report_subcommand_round_trips(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace), "--validate"]) == 0
    assert "schema ok" in capsys.readouterr().out
    assert main(["report", str(trace)]) == 0
    assert "matches the static prediction" in capsys.readouterr().out


def test_report_rejects_malformed_trace(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"seq": 0, "kind": "nope"}\n', encoding="utf-8")
    assert main(["report", str(bogus)]) == 1
    assert "schema violation" in capsys.readouterr().err


def test_lint_subcommand_forwards_arguments(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n", encoding="utf-8")
    assert main(["lint", str(clean), "--no-baseline"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_profile_run_exports_current_trace_and_flamegraph(tmp_path, capsys):
    from repro.obs import SCHEMA_VERSION, read_jsonl, validate_file

    trace = tmp_path / "trace.jsonl"
    folded = tmp_path / "profile.folded"
    assert main([
        "profile-run", "-n", "5",
        "--out", str(trace), "--flamegraph", str(folded),
    ]) == 0
    capsys.readouterr()
    assert validate_file(trace) == []
    events = read_jsonl(trace)
    assert events[0].attrs["schema_version"] == SCHEMA_VERSION
    assert any(ev.kind == "prof" for ev in events)
    lines = folded.read_text(encoding="utf-8").splitlines()
    assert lines and all(" " in line for line in lines)
    assert any(line.startswith("fields;mul;") for line in lines)


def test_flamegraph_subcommand_matches_profile_run_output(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    folded = tmp_path / "direct.folded"
    assert main([
        "profile-run", "-n", "5",
        "--out", str(trace), "--flamegraph", str(folded),
    ]) == 0
    capsys.readouterr()
    # to stdout
    assert main(["flamegraph", str(trace)]) == 0
    stdout_lines = capsys.readouterr().out.splitlines()
    assert stdout_lines == folded.read_text(encoding="utf-8").splitlines()
    # to a file
    out = tmp_path / "from-trace.folded"
    assert main(["flamegraph", str(trace), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == folded.read_bytes()


def test_flamegraph_on_profileless_trace_fails(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["flamegraph", str(trace)]) == 1
    assert "no prof events" in capsys.readouterr().err


def test_flamegraph_on_unreadable_trace_is_structural_error(tmp_path, capsys):
    assert main(["flamegraph", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err


def _bench_payload(ms: float) -> str:
    import json

    return json.dumps({
        "version": 1,
        "experiment": "emu_demo",
        "title": "demo",
        "headers": ["batch", "batched ms"],
        "rows": [[256, ms]],
        "notes": "",
    })


def test_bench_check_passes_identical_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    (baseline / "BENCH_emu_demo.json").write_text(_bench_payload(2.0))
    current = tmp_path / "BENCH_emu_demo.json"
    current.write_text(_bench_payload(2.0))
    assert main([
        "bench-check", "--baseline", str(baseline), str(current),
    ]) == 0
    captured = capsys.readouterr()
    assert "within thresholds" in captured.err
    assert "emu_demo" in captured.out


def test_bench_check_detects_injected_slowdown(tmp_path, capsys):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    (baseline / "BENCH_emu_demo.json").write_text(_bench_payload(2.0))
    current = tmp_path / "BENCH_emu_demo.json"
    current.write_text(_bench_payload(2.0 * 1.25))  # +25% > 20% threshold
    assert main([
        "bench-check", "--baseline", str(baseline), str(current),
    ]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION emu_demo/256/batched ms" in captured.out
    assert "regressed" in captured.err
    # ...unless the threshold is loosened or warn-only is on.
    assert main([
        "bench-check", "--baseline", str(baseline),
        "--threshold", "0.5", str(current),
    ]) == 0
    capsys.readouterr()
    assert main([
        "bench-check", "--baseline", str(baseline), "--warn-only",
        str(current),
    ]) == 0
    assert "warn-only" in capsys.readouterr().err


def test_bench_check_structural_error_exits_2(tmp_path, capsys):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    (baseline / "BENCH_emu_demo.json").write_text('{"experiment": "other"}')
    current = tmp_path / "BENCH_emu_demo.json"
    current.write_text(_bench_payload(2.0))
    assert main([
        "bench-check", "--baseline", str(baseline), str(current),
    ]) == 2
    assert capsys.readouterr().err


def test_bench_check_missing_baseline_skips(tmp_path, capsys):
    current = tmp_path / "BENCH_emu_demo.json"
    current.write_text(_bench_payload(2.0))
    assert main([
        "bench-check", "--baseline", str(tmp_path / "nowhere"), str(current),
    ]) == 0
    captured = capsys.readouterr()
    assert "skipping" in captured.err
    assert "nothing compared" in captured.err


def test_bench_check_committed_baselines_self_compare(capsys, monkeypatch):
    import os

    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # The repository root doubles as both baseline dir and current run.
    assert main(["bench-check", "--baseline", "."]) == 0
    assert "within thresholds" in capsys.readouterr().err


_TINY_CONFIG = (
    '{"name": "cli-tiny", "n": 3, "t": 1, "d": 2, "ell": 16, "kappa": 8,'
    ' "num_checks": 1, "trials": 1}'
)


def test_conformance_single_config_passes(capsys):
    assert main(["conformance", "--config", _TINY_CONFIG]) == 0
    captured = capsys.readouterr()
    assert "cli-tiny" in captured.out
    assert "all invariants hold" in captured.out


def test_conformance_bad_config_is_usage_error(capsys):
    assert main(["conformance", "--config", '{"n": 3}']) == 2
    assert "bad --config" in capsys.readouterr().err
    assert main(["conformance", "--config", "not json"]) == 2
    assert "bad --config" in capsys.readouterr().err


def test_conformance_selftest_name_collision_is_usage_error(capsys):
    assert main([
        "conformance", "--config", _TINY_CONFIG,
        "--selftest-break", "agreement",
    ]) == 2
    assert "collides" in capsys.readouterr().err


def test_conformance_selftest_break_fails_shrinks_and_reproduces(capsys):
    import shlex

    assert main([
        "conformance", "--config", _TINY_CONFIG, "--selftest-break", "broken",
    ]) == 1
    out = capsys.readouterr().out
    assert "broken" in out and "repro:" in out
    # The embedded repro command must itself reproduce the violation.
    repro_line = next(
        line for line in out.splitlines() if "repro:" in line
    )
    argv = shlex.split(repro_line.split("repro:", 1)[1])
    assert argv[:3] == ["python", "-m", "repro"]
    capsys.readouterr()
    assert main(argv[3:]) == 1
    assert "broken" in capsys.readouterr().out


def test_conformance_report_and_json_are_canonical(tmp_path, capsys):
    import json

    report_path = tmp_path / "report.json"
    assert main([
        "conformance", "--config", _TINY_CONFIG,
        "--report", str(report_path), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["ok"] is True
    assert payload["grid"] == "custom"
    on_disk = json.loads(report_path.read_text(encoding="utf-8"))
    # The canonical stdout JSON is the on-disk report minus volatile keys.
    assert "generated_at" in on_disk and "generated_at" not in payload


def test_conformance_budget_skips_configs(capsys):
    assert main([
        "conformance", "--grid", "mini", "--budget", "1", "--json",
    ]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["skipped"]


def test_conformance_appends_telemetry_store(tmp_path, capsys):
    import json

    store = tmp_path / "telemetry.jsonl"
    assert main([
        "conformance", "--config", _TINY_CONFIG,
        "--telemetry", str(store),
    ]) == 0
    capsys.readouterr()
    lines = store.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # one trial in _TINY_CONFIG
    record = json.loads(lines[0])
    assert record["config"] == "cli-tiny"
    assert record["rounds"] > 0


def test_report_comm_prints_communication_report(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace), "--comm"]) == 0
    out = capsys.readouterr().out
    assert "matches the static prediction" in out
    assert "communication report" in out
    assert "predicted (E2)" in out


def test_report_comm_json_emits_both_reports(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace), "--comm", "--json"]) == 0
    decoder = json.JSONDecoder()
    raw = capsys.readouterr().out.strip()
    run_report, end = decoder.raw_decode(raw)
    comm_report, _ = decoder.raw_decode(raw[end:].lstrip())
    assert run_report["totals"]["matches_prediction"] is True
    assert comm_report["totals"]["matches_prediction"] is True


def test_obs_check_clean_trace_exits_zero(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["obs-check", str(trace)]) == 0
    assert "is clean" in capsys.readouterr().err


def test_obs_check_flags_injected_stall(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text(encoding="utf-8").splitlines()
    # Truncate the stream: drop run_end (wedged-run injection).
    assert json.loads(lines[-1])["kind"] == "run_end"
    stalled = tmp_path / "stalled.jsonl"
    stalled.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert main(["obs-check", str(stalled)]) == 1
    captured = capsys.readouterr()
    assert "stalled-round" in captured.out
    assert "anomaly" in captured.err


def test_obs_check_flags_injected_hotspot(tmp_path, capsys):
    import json

    from repro.obs import Tracer, write_jsonl
    from repro.obs.anomaly import HOTSPOT_MIN_ELEMENTS

    tracer = Tracer()
    volume = HOTSPOT_MIN_ELEMENTS * 4
    for rnd in range(3):
        tracer.record_message(rnd, 0, 1, volume, rnd + 1)
        for pid in (1, 2, 3, 4):
            tracer.record_message(rnd, pid, 0, 1, rnd + 1)
        tracer.record_round(rnd, messages=5, elements=volume + 4)
    trace = tmp_path / "hotspot.jsonl"
    write_jsonl(tracer.events, trace)
    assert main(["obs-check", str(trace), "--json"]) == 1
    captured = capsys.readouterr()
    findings = json.loads(captured.out)
    assert any(f["kind"] == "comm-hotspot" for f in findings)


def test_obs_check_unreadable_trace_is_structural_error(tmp_path, capsys):
    assert main(["obs-check", str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"seq": 0, "kind": "nope"}\n', encoding="utf-8")
    assert main(["obs-check", str(bogus)]) == 2
    assert "schema violation" in capsys.readouterr().err


def test_dashboard_renders_from_all_inputs(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    store = tmp_path / "telemetry.jsonl"
    report = tmp_path / "campaign.json"
    assert main([
        "conformance", "--config", _TINY_CONFIG,
        "--report", str(report), "--telemetry", str(store),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "dash.html"
    assert main([
        "dashboard", "--campaign", str(report), "--telemetry", str(store),
        "--trace", str(trace), "--out", str(out),
    ]) == 0
    page = out.read_text(encoding="utf-8")
    assert page.startswith("<!DOCTYPE html>")
    assert "Communication heatmap" in page
    assert "cli-tiny" in page
    assert "<script" not in page  # self-contained, no external resources


def test_dashboard_bad_campaign_is_structural_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main([
        "dashboard", "--campaign", str(bad),
        "--out", str(tmp_path / "d.html"),
    ]) == 2
    assert capsys.readouterr().err


# -- timing report, timeline export, timing-aware obs-check ------------------

def _jittered_trace(tmp_path, capsys) -> str:
    trace = tmp_path / "jittered.jsonl"
    assert main([
        "trace-run", "-n", "5", "--latency-ms", "3", "--jitter-ms", "2",
        "--out", str(trace),
    ]) == 0
    capsys.readouterr()
    return str(trace)


@pytest.mark.parametrize("flags", [
    ["--latency-ms", "-5"],
    ["--latency-ms", "2", "--jitter-ms", "-3"],
    ["--latency-ms", "nan"],
    ["--latency-ms", "1", "--jitter-ms", "inf"],
])
def test_trace_run_rejects_negative_or_non_finite_latency(
    tmp_path, capsys, flags
):
    """A negative delay would stamp arrivals before their sends; the
    run must refuse it instead of writing an acausal trace."""
    out = tmp_path / "t.jsonl"
    assert main(["trace-run", "-n", "4", *flags, "--out", str(out)]) == 2
    assert "must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_report_timing_on_jittered_trace(tmp_path, capsys):
    trace = _jittered_trace(tmp_path, capsys)
    assert main(["report", trace, "--timing"]) == 0
    out = capsys.readouterr().out
    assert "observed makespan" in out
    assert "predicted makespan" in out
    assert "critical path" in out


def test_report_timing_json_payload(tmp_path, capsys):
    import json

    trace = _jittered_trace(tmp_path, capsys)
    assert main(["report", trace, "--timing", "--json"]) == 0
    # Like --comm --json, the output is a concatenation of JSON
    # documents (run report, then the timing report): decode them all
    # and take the last one.
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(out.rstrip()):
        payload, end = decoder.raw_decode(out, pos)
        docs.append(payload)
        pos = end + 1
    payload = docs[-1]
    assert payload["has_timing"] is True
    assert payload["makespan_ms"] > 0.0
    assert payload["makespan_ok"] is True
    assert payload["critical_path"]


def test_report_timing_on_lockstep_trace_is_all_zero(tmp_path, capsys):
    trace = tmp_path / "lockstep.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace), "--timing"]) == 0
    assert "0.000 ms" in capsys.readouterr().out


def test_timeline_exports_chrome_trace(tmp_path, capsys):
    import json

    trace = _jittered_trace(tmp_path, capsys)
    out = tmp_path / "timeline.json"
    assert main(["timeline", trace, "--out", str(out)]) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().err
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert {ev["ph"] for ev in payload["traceEvents"]} >= {"M", "X", "s", "f"}


def test_timeline_rejects_pre_v4_trace(tmp_path, capsys):
    from repro.obs import read_jsonl, without_timing_fields, write_jsonl

    trace = tmp_path / "trace.jsonl"
    assert main(["trace-run", "-n", "5", "--out", str(trace)]) == 0
    capsys.readouterr()
    stripped = tmp_path / "v3.jsonl"
    write_jsonl(without_timing_fields(read_jsonl(trace)), stripped)
    assert main(["timeline", str(stripped)]) == 1
    assert "no virtual-time stamps" in capsys.readouterr().err


def test_obs_check_timing_requires_v4(tmp_path, capsys):
    from repro.obs import read_jsonl, without_timing_fields, write_jsonl

    trace = _jittered_trace(tmp_path, capsys)
    assert main(["obs-check", trace, "--timing"]) == 0
    capsys.readouterr()
    stripped = tmp_path / "v3.jsonl"
    write_jsonl(without_timing_fields(read_jsonl(trace)), stripped)
    assert main(["obs-check", str(stripped)]) == 0  # vacuously clean...
    capsys.readouterr()
    assert main(["obs-check", str(stripped), "--timing"]) == 1  # ...not here
    assert "requires a schema-v4 trace" in capsys.readouterr().err
