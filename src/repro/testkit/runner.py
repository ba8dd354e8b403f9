"""Executing campaign configs: seeded trials, evidence, and verdicts.

``run_config`` executes every trial of one :class:`CampaignConfig`
through :func:`repro.core.run_anonchan`, gathers a
:class:`~repro.testkit.invariants.ConfigEvidence`, and evaluates the
checker registry.  Three kinds of extra instrumentation ride on top of
the plain trials:

- trial 0 carries an :class:`repro.obs.Tracer`, and its event stream is
  diffed against the static round-schedule prediction via
  :class:`repro.obs.RunReport` (the ``schedule-conformance`` checker),
  against the analytic communication envelope via
  :class:`repro.obs.CommReport` (the ``comm-conformance`` checker), and
  against the latency model's expected makespan via
  :class:`repro.obs.TimingReport` (the ``timing-conformance`` checker);
- every trial keeps its communication metrics (rounds, broadcast
  rounds, messages, wire elements) on its :class:`TrialOutcome`, from
  which :mod:`repro.testkit.telemetry` builds the campaign JSONL store;
- trial 0 also runs a *permuted twin*: the same seed with two honest
  senders' messages swapped, whose receiver view must be
  indistinguishable from the original (the ``anonymity`` checker);
- all corruption randomness (attack materials, fault tampers) is
  derived from the trial seed via :func:`derive_seed`, so a campaign is
  a pure function of ``(configs, campaign_seed)``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.anonchan import AnonChan, AnonChanOutput, run_anonchan
from repro.fields import FieldElement
from repro.network import PassiveAdversary, TamperingAdversary
from repro.obs import CommReport, RunReport, TimingReport, Tracer
from repro.vss import IdealVSS

from .axes import FAULTS, STRATEGIES
from .config import CampaignConfig, derive_seed
from .invariants import (
    CheckOutcome,
    ConfigEvidence,
    InvariantChecker,
    TrialOutcome,
    default_registry,
)


@dataclass
class ConfigResult:
    """One campaign cell: the evidence plus every checker's verdict."""

    config: CampaignConfig
    config_seed: int
    evidence: ConfigEvidence
    outcomes: list[CheckOutcome]
    runs: int
    duration_ms: float = 0.0

    @property
    def violations(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.applicable and not o.passed]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self, include_trials: bool = False) -> dict[str, Any]:
        data: dict[str, Any] = {
            "config": self.config.to_dict(),
            "config_seed": self.config_seed,
            "runs": self.runs,
            "duration_ms": round(self.duration_ms, 3),
            "ok": self.ok,
            "checks": [o.to_dict() for o in self.outcomes],
            "violations": [o.invariant for o in self.violations],
        }
        if include_trials:
            data["trials"] = [t.to_dict() for t in self.evidence.trials]
        return data


def _corrupted_ids(config: CampaignConfig) -> tuple[int, ...]:
    """The highest ``corrupt_count`` party ids (receiver 0 stays honest)."""
    return tuple(range(config.n - config.corrupt_count, config.n))


def _messages(params, pids: Iterable[int]) -> dict[int, FieldElement]:
    """Distinct, party-identifying message values (pid + 1)."""
    field = params.field
    return {pid: field(pid + 1) for pid in pids}


def _adversary_factory(
    config: CampaignConfig,
    corrupted: tuple[int, ...],
    messages: dict[int, FieldElement],
    seed: int,
    vss_cost,
) -> Callable | None:
    """A ``run_anonchan`` adversary_factory for this config's axes.

    Corrupted parties run the real protocol code with attack *material*
    from the strategy axis, wrapped in a tampering adversary when the
    fault axis is active.  Program rngs replicate ``run_anonchan``'s
    honest derivation ``Random((seed << 16) | pid)``; material and
    tamper rngs hang off the trial seed via :func:`derive_seed` so the
    trial stays a pure function of its seed.
    """
    if not corrupted:
        return None
    strategy = STRATEGIES[config.strategy]
    fault = FAULTS[config.fault]

    def factory(protocol: AnonChan, session) -> Any:
        params = protocol.params
        programs = {}
        for pid in corrupted:
            material = strategy.build(
                params, pid, random.Random(derive_seed("material", seed, pid))
            )
            programs[pid] = protocol.party_program(
                pid,
                session,
                messages.get(pid),
                random.Random((seed << 16) | pid),
                material=material,
            )
        tamper = fault.build(
            params, vss_cost, random.Random(derive_seed("fault", seed))
        )
        if tamper is None:
            return PassiveAdversary(set(corrupted), programs)
        return TamperingAdversary(set(corrupted), programs, tamper)

    return factory


def _receiver_output(outputs: dict[int, AnonChanOutput]) -> AnonChanOutput:
    out = outputs.get(0)
    if out is None or out.output is None:
        raise RuntimeError("receiver (party 0) produced no output")
    return out


def _agreement(outputs: dict[int, AnonChanOutput]) -> bool:
    views = [
        (o.vss_qualified, o.passed, o.challenge)
        for o in outputs.values()
    ]
    return all(v == views[0] for v in views[1:])


def _delivered(
    output: Counter, messages: dict[int, FieldElement], honest: Sequence[int]
) -> bool:
    """All honest messages present in Y (whose keys are encoded ints)."""
    return all(output.get(messages[pid].value, 0) >= 1 for pid in honest)


def _collision_free(output: Counter, sent: Counter) -> bool:
    """True when ``Y`` holds only sent values, at most once per send.

    A coordinate hit by several darts reconstructs to the GF-sum of the
    colliding payloads; when its tag half coincidentally validates
    (probability ``~2^-kappa`` per collision) the sum enters ``Y`` as a
    garbage entry whose *value depends on the colliding messages*.
    Such entries are legitimately permutation-sensitive, so they must
    be excluded before comparing receiver views.
    """
    return all(sent.get(value, 0) >= count for value, count in output.items())


def _metrics_fingerprint(result) -> tuple[int, int, int, int, int]:
    m = result.metrics
    return (
        m.rounds,
        m.broadcast_rounds,
        m.broadcasts_sent,
        m.private_messages,
        m.field_elements_sent,
    )


def run_config(
    config: CampaignConfig,
    campaign_seed: int = 0,
    registry: dict[str, InvariantChecker] | None = None,
) -> ConfigResult:
    """Run every trial of one config and evaluate the checker registry."""
    config.validate()
    if registry is None:
        registry = default_registry()
    started = time.perf_counter()
    params = config.params()
    vss = IdealVSS(params.field, params.n, params.t)
    corrupted = _corrupted_ids(config)
    honest = [pid for pid in range(config.n) if pid not in corrupted]
    messages = _messages(params, range(config.n))
    config_seed = config.config_seed(campaign_seed)

    trials: list[TrialOutcome] = []
    schedule_ok: bool | None = None
    schedule_divergences: list[str] = []
    comm_ok: bool | None = None
    comm_divergences: list[str] = []
    timing_ok: bool | None = None
    timing_divergences: list[str] = []
    runs = 0
    for trial in range(config.trials):
        seed = config.trial_seed(campaign_seed, trial)
        factory = _adversary_factory(
            config, corrupted, messages, seed, vss.cost
        )
        tracer = Tracer() if trial == 0 else None
        result = run_anonchan(
            params,
            vss,
            messages,
            receiver=0,
            seed=seed,
            adversary_factory=factory,
            tracer=tracer,
        )
        runs += 1
        recv = _receiver_output(result.outputs)
        assert recv.output is not None
        delivered = _delivered(recv.output, messages, honest)

        if tracer is not None:
            report = RunReport.from_events(tracer.events)
            schedule_ok = report.matches_prediction
            schedule_divergences = list(report.divergences)
            comm = CommReport.from_events(tracer.events)
            comm_ok = comm.matches_prediction
            comm_divergences = list(comm.divergences) + list(comm.consistency)
            timing_ok, timing_divergences = _timing_conformance(
                tracer, result.metrics.makespan_ms
            )

        anonymity_ok: bool | None = None
        if trial == 0:
            anonymity_ok, extra = _anonymity_probe(
                config, params, vss, corrupted, honest, messages, seed,
                result, delivered,
            )
            runs += extra

        metrics = result.metrics
        trials.append(
            TrialOutcome(
                trial=trial,
                seed=seed,
                challenge=recv.challenge.value,
                qualified=tuple(sorted(recv.vss_qualified)),
                surviving=tuple(sorted(set(corrupted) & recv.passed)),
                honest_delivered=delivered,
                output_total=sum(recv.output.values()),
                agreement=_agreement(result.outputs),
                anonymity_ok=anonymity_ok,
                rounds=metrics.rounds,
                broadcast_rounds=metrics.broadcast_rounds,
                private_messages=metrics.private_messages,
                field_elements_sent=metrics.field_elements_sent,
                makespan_ms=metrics.makespan_ms,
            )
        )

    evidence = ConfigEvidence(
        config=config,
        params=params,
        corrupted=corrupted,
        trials=trials,
        schedule_ok=schedule_ok,
        schedule_divergences=schedule_divergences,
        comm_ok=comm_ok,
        comm_divergences=comm_divergences,
        timing_ok=timing_ok,
        timing_divergences=timing_divergences,
    )
    outcomes = [checker.evaluate(evidence) for checker in registry.values()]
    return ConfigResult(
        config=config,
        config_seed=config_seed,
        evidence=evidence,
        outcomes=outcomes,
        runs=runs,
        duration_ms=(time.perf_counter() - started) * 1e3,
    )


def _timing_conformance(
    tracer: Tracer, runtime_makespan_ms: float
) -> tuple[bool, list[str]]:
    """Check the traced trial's virtual-time stamps for self-consistency.

    The simulator stamps v4 virtual times, so a traced trial *must*
    carry them; the trace-derived makespan must agree with the
    runtime's own :class:`~repro.network.metrics.ProtocolMetrics`
    accounting; round windows must be monotone; and when the analytic
    prediction is computable the observed makespan must sit within the
    report's tolerance.
    """
    report = TimingReport.from_events(tracer.events)
    divergences: list[str] = []
    if not report.has_timing:
        return False, ["traced trial carries no virtual-time stamps"]
    if abs(report.makespan_ms - runtime_makespan_ms) > 1e-6:
        divergences.append(
            f"trace makespan {report.makespan_ms:.6f} ms != runtime "
            f"accounting {runtime_makespan_ms:.6f} ms"
        )
    for window in report.rounds:
        if window.t_end < window.t_start:
            divergences.append(
                f"round {window.round_index}: non-monotone window "
                f"[{window.t_start:.6f}, {window.t_end:.6f}]"
            )
    if report.predicted_makespan_ms is not None and not report.makespan_ok:
        divergences.append(
            f"observed makespan {report.makespan_ms:.3f} ms diverges "
            f"{report.makespan_delta:+.1%} from predicted "
            f"{report.predicted_makespan_ms:.3f} ms "
            f"(tolerance ±{report.tolerance:.0%})"
        )
    return not divergences, divergences


def _anonymity_probe(
    config: CampaignConfig,
    params,
    vss,
    corrupted: tuple[int, ...],
    honest: Sequence[int],
    messages: dict[int, FieldElement],
    seed: int,
    original,
    original_delivered: bool,
) -> tuple[bool | None, int]:
    """Re-run the trial with two honest senders' messages swapped.

    The honest protocol code's randomness is message-value-independent
    (dart placement, tags, and payload sizes never look at the message),
    so with the same seed the receiver's multiset ``Y`` and all public
    traffic accounting must be identical under any permutation of the
    honest inputs — that is anonymity as permutation-
    indistinguishability of the receiver view.  The traffic fingerprint
    is compared unconditionally; ``Y`` is compared only when both runs
    fully delivered the honest messages *and* both are collision-free,
    because which parties lose messages is placement-dependent (so a
    partial ``Y`` legitimately tracks the permutation) and collision-
    minted garbage entries are GF-sums of the colliding payloads (so
    their values legitimately change too — see :func:`_collision_free`).
    Returns ``(verdict | None, extra protocol runs)``.
    """
    swappable = [pid for pid in honest if pid != 0]
    if len(swappable) < 2:
        return None, 0
    a, b = swappable[0], swappable[1]
    permuted = dict(messages)
    permuted[a], permuted[b] = permuted[b], permuted[a]
    factory = _adversary_factory(config, corrupted, permuted, seed, vss.cost)
    twin = run_anonchan(
        params,
        vss,
        permuted,
        receiver=0,
        seed=seed,
        adversary_factory=factory,
        tracer=None,
    )
    ok = _metrics_fingerprint(twin) == _metrics_fingerprint(original)
    twin_recv = _receiver_output(twin.outputs)
    orig_recv = _receiver_output(original.outputs)
    assert twin_recv.output is not None and orig_recv.output is not None
    twin_delivered = _delivered(twin_recv.output, permuted, honest)
    sent = Counter(m.value for m in messages.values())
    if (
        original_delivered
        and twin_delivered
        and _collision_free(orig_recv.output, sent)
        and _collision_free(twin_recv.output, sent)
    ):
        ok = ok and (orig_recv.output == twin_recv.output)
    return ok, 1


def run_campaign(
    configs: Sequence[CampaignConfig],
    campaign_seed: int = 0,
    registry: dict[str, InvariantChecker] | None = None,
    budget: int | None = None,
    progress: Callable[[ConfigResult], None] | None = None,
) -> tuple[list[ConfigResult], list[CampaignConfig]]:
    """Run a grid of configs under an optional protocol-run budget.

    ``budget`` caps the *total number of protocol executions* (trials
    plus anonymity twins) across the campaign; once exhausted the
    remaining configs are returned unexecuted in the second element.
    The cap is in runs, not wall-clock, so a budgeted campaign is still
    a deterministic function of its seed.
    """
    if registry is None:
        registry = default_registry()
    results: list[ConfigResult] = []
    skipped: list[CampaignConfig] = []
    spent = 0
    for i, config in enumerate(configs):
        if budget is not None and spent >= budget:
            skipped.extend(configs[i:])
            break
        result = run_config(config, campaign_seed, registry)
        spent += result.runs
        results.append(result)
        if progress is not None:
            progress(result)
    return results, skipped
