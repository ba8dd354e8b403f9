"""The campaign telemetry store and the comm-conformance invariant."""

from __future__ import annotations

import json

from repro.testkit import CampaignConfig, run_config
from repro.testkit.telemetry import TelemetryStore, trial_records

TINY = CampaignConfig(
    name="telemetry-tiny", n=3, t=1, d=2, ell=16, kappa=8,
    num_checks=1, trials=2,
)


def test_trial_outcomes_carry_comm_metrics():
    result = run_config(TINY)
    for trial in result.evidence.trials:
        assert trial.rounds > 0
        assert trial.private_messages > 0
        assert trial.field_elements_sent > 0


def test_trial_records_flatten_config_axes():
    result = run_config(TINY, campaign_seed=5)
    records = trial_records(result, campaign_seed=5, stamp="T")
    assert len(records) == TINY.trials
    for record in records:
        assert record["config"] == "telemetry-tiny"
        assert record["strategy"] == TINY.strategy
        assert record["campaign_seed"] == 5
        assert record["stamp"] == "T"
        assert record["rounds"] > 0
        assert isinstance(record["honest_delivered"], bool)


def test_store_appends_and_loads(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    store = TelemetryStore(path)
    result = run_config(TINY)
    written = store.append_results([result], stamp="T1")
    assert written == TINY.trials
    # Appending again accumulates (the longitudinal CI use case).
    store.append_results([result], stamp="T2")
    records = store.load()
    assert len(records) == 2 * TINY.trials
    assert {r["stamp"] for r in records} == {"T1", "T2"}


def test_store_tolerates_missing_and_torn_lines(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    assert TelemetryStore(path).load() == []
    path.write_text(
        json.dumps({"config": "ok", "rounds": 1}) + "\n"
        + '{"torn": \n'
        + "not json at all\n"
        + json.dumps({"config": "ok2", "rounds": 2}) + "\n",
        encoding="utf-8",
    )
    records = TelemetryStore(path).load()
    assert [r["config"] for r in records] == ["ok", "ok2"]


def test_comm_conformance_checker_passes_on_honest_config():
    result = run_config(TINY)
    outcome = next(
        o for o in result.outcomes if o.invariant == "comm-conformance"
    )
    assert outcome.applicable and outcome.passed
    assert result.evidence.comm_ok is True
    assert result.evidence.comm_divergences == []


def test_comm_conformance_skips_without_a_trace():
    from repro.testkit.invariants import CommConformance, ConfigEvidence

    ev = ConfigEvidence(
        config=TINY, params=TINY.params(), corrupted=(), trials=[],
    )
    outcome = CommConformance().evaluate(ev)
    assert not outcome.applicable


def test_comm_conformance_fails_on_divergence():
    from repro.testkit.invariants import CommConformance, ConfigEvidence

    ev = ConfigEvidence(
        config=TINY, params=TINY.params(), corrupted=(), trials=[],
        comm_ok=False, comm_divergences=["E2: observed 9 broadcast rounds"],
    )
    outcome = CommConformance().evaluate(ev)
    assert outcome.applicable and not outcome.passed
    assert "E2" in outcome.message


def test_trial_outcomes_and_records_carry_makespan():
    result = run_config(TINY, campaign_seed=5)
    records = trial_records(result, campaign_seed=5, stamp="T")
    for trial, record in zip(result.evidence.trials, records):
        # Lockstep campaigns run under the zero models: the makespan is
        # recorded, and it is exactly zero.
        assert trial.makespan_ms == 0.0
        assert trial.to_dict()["makespan_ms"] == 0.0
        assert record["makespan_ms"] == 0.0


def test_timing_conformance_checker_passes_on_honest_config():
    result = run_config(TINY)
    outcome = next(
        o for o in result.outcomes if o.invariant == "timing-conformance"
    )
    assert outcome.applicable and outcome.passed
    assert result.evidence.timing_ok is True
    assert result.evidence.timing_divergences == []


def test_timing_conformance_skips_without_a_trace():
    from repro.testkit.invariants import ConfigEvidence, TimingConformance

    ev = ConfigEvidence(
        config=TINY, params=TINY.params(), corrupted=(), trials=[],
    )
    assert not TimingConformance().evaluate(ev).applicable


def test_timing_conformance_fails_on_divergence():
    from repro.testkit.invariants import ConfigEvidence, TimingConformance

    ev = ConfigEvidence(
        config=TINY, params=TINY.params(), corrupted=(), trials=[],
        timing_ok=False,
        timing_divergences=[
            "trace makespan 1.000000 ms != runtime accounting 2.000000 ms"
        ],
    )
    outcome = TimingConformance().evaluate(ev)
    assert outcome.applicable and not outcome.passed
    assert "runtime accounting" in outcome.message


def test_timing_conformance_registered_in_default_registry():
    from repro.testkit import default_registry

    assert "timing-conformance" in default_registry()


def test_timing_conformance_helper_divergence_cases():
    from types import SimpleNamespace

    from repro.obs import Tracer, without_timing_fields
    from repro.testkit.runner import _timing_conformance

    tracer = Tracer()
    tracer.run_start(n=3, t=1)
    tracer.record_timing_model(
        latency={"model": "zero"}, compute={"model": "zero"},
    )
    tracer.record_round(0, messages=0, elements=0, t_start=0.0, t_end=2.0)
    tracer.run_end(rounds=1, makespan_ms=2.0)

    ok, divergences = _timing_conformance(tracer, 2.0)
    assert ok and divergences == []

    # Trace and runtime accounting disagree on the makespan.
    ok, divergences = _timing_conformance(tracer, 5.0)
    assert not ok
    assert any("runtime accounting" in d for d in divergences)

    # A traced trial without stamps is itself a conformance failure:
    # the simulator stamps v4 virtual times.
    stripped = SimpleNamespace(events=without_timing_fields(tracer.events))
    ok, divergences = _timing_conformance(stripped, 0.0)
    assert not ok
    assert any("no virtual-time stamps" in d for d in divergences)

    # A round window running backwards is flagged.
    bad = Tracer()
    bad.run_start(n=3, t=1)
    bad.record_timing_model(
        latency={"model": "zero"}, compute={"model": "zero"},
    )
    bad.record_round(0, messages=0, elements=0, t_start=3.0, t_end=1.0)
    bad.run_end(rounds=1, makespan_ms=1.0)
    ok, divergences = _timing_conformance(bad, 1.0)
    assert not ok
    assert any("non-monotone window" in d for d in divergences)
