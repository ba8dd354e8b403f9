"""Network-model equivalence: a zero model vs no model at all.

The contract: with the default zero-latency model and no faults, a run
under ``network=NetworkModel()`` is *observably identical* to one
without a model — same honest outputs, same metrics, and byte-identical
canonical, validated traces — on honest, adversarial, and
adaptively-corrupting executions.  Latency jitter may only reorder
deliveries *within* a round, so accounting stays identical even then.
"""

import random
from dataclasses import replace

import pytest

from repro.core import run_anonchan, scaled_parameters
from repro.core.adversaries import jamming_material
from repro.network import (
    Adversary,
    NetworkModel,
    PassiveAdversary,
    RoundOutput,
    run_protocol,
)
from repro.network.runtime import UniformLatency
from repro.obs import Tracer
from repro.obs.export import canonical_lines, validate_events
from repro.vss import IdealVSS


def _gossip_programs(n: int, rounds: int = 4, seed: int = 0):
    """A chatty synthetic protocol: point-to-point sums + a broadcast."""

    def prog(pid: int):
        rng = random.Random((seed << 8) | pid)
        inbox = yield RoundOutput(
            private={q: [rng.randrange(100)] for q in range(n) if q != pid}
        )
        for _ in range(rounds):
            total = sum(v for vals in inbox.private.values() for v in vals)
            inbox = yield RoundOutput(
                private={q: [total] for q in range(n) if q != pid},
                broadcast=total if pid == 0 else None,
            )
        return sorted((s, tuple(v)) for s, v in inbox.private.items())

    return {pid: prog(pid) for pid in range(n)}


def _traced(network, programs, adversary=None):
    tracer = Tracer(clock=lambda: 0)
    result = run_protocol(
        programs, adversary=adversary, tracer=tracer, network=network
    )
    return result, tracer.events


class TestRunProtocolEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_honest_gossip_identical(self, n):
        r_plain, e_plain = _traced(None, _gossip_programs(n, seed=n))
        r_zero, e_zero = _traced(NetworkModel(), _gossip_programs(n, seed=n))
        assert r_plain.outputs == r_zero.outputs
        assert r_plain.metrics == r_zero.metrics
        assert canonical_lines(e_plain) == canonical_lines(e_zero)
        assert validate_events(e_zero) == []

    def test_early_terminating_parties_identical(self):
        n = 5

        def short(pid, lifetime):
            inbox = yield RoundOutput(
                private={q: [pid] for q in range(n) if q != pid}
            )
            for _ in range(lifetime):
                inbox = yield RoundOutput(
                    private={q: [len(inbox.private)] for q in range(n)
                             if q != pid}
                )
            return pid

        def mk():
            return {pid: short(pid, pid) for pid in range(n)}

        r_plain, e_plain = _traced(None, mk())
        r_zero, e_zero = _traced(NetworkModel(), mk())
        assert r_plain.outputs == r_zero.outputs == {
            pid: pid for pid in range(n)
        }
        assert r_plain.metrics == r_zero.metrics
        assert canonical_lines(e_plain) == canonical_lines(e_zero)

    def test_adaptive_corruption_identical(self):
        n = 5

        class Adaptive(Adversary):
            def __init__(self):
                super().__init__(set())
                self.taken = []

            def maybe_corrupt(self, round_index, total, budget):
                return {1} if round_index == 2 and budget == 0 else set()

            def receive_takeover(self, pid, program, pending):
                self.taken.append((pid, pending is not None))

        r_plain, e_plain = _traced(
            None, _gossip_programs(n, seed=3), Adaptive()
        )
        r_zero, e_zero = _traced(
            NetworkModel(), _gossip_programs(n, seed=3), Adaptive()
        )
        assert r_plain.adversary.taken == r_zero.adversary.taken == [(1, True)]
        assert 1 not in r_plain.outputs and 1 not in r_zero.outputs
        assert r_plain.outputs == r_zero.outputs
        assert r_plain.metrics == r_zero.metrics
        assert canonical_lines(e_plain) == canonical_lines(e_zero)

    def test_passive_adversary_views_identical(self):
        n = 4

        def mk():
            progs = _gossip_programs(n, seed=9)
            adv = PassiveAdversary({n - 1}, {n - 1: progs[n - 1]})
            return progs, adv

        progs_l, adv_l = mk()
        progs_a, adv_a = mk()
        r_plain, e_plain = _traced(None, progs_l, adv_l)
        r_zero, e_zero = _traced(NetworkModel(), progs_a, adv_a)
        assert r_plain.outputs == r_zero.outputs
        assert r_plain.metrics == r_zero.metrics
        assert len(adv_l.views) == len(adv_a.views)
        for view_l, view_a in zip(adv_l.views, adv_a.views):
            assert view_l == view_a
        assert canonical_lines(e_plain) == canonical_lines(e_zero)

    def test_jitter_preserves_accounting(self):
        """Jitter reorders within rounds; totals must not move."""
        r_plain, _ = _traced(None, _gossip_programs(6, seed=4))
        jittered = NetworkModel(
            latency=UniformLatency(base_ms=1.0, jitter_ms=10.0), seed=11
        )
        r_jit, e_jit = _traced(jittered, _gossip_programs(6, seed=4))
        # Counts agree with the plain run; only virtual time differs (each
        # jittered round takes at least base_ms).
        assert replace(r_jit.metrics, makespan_ms=0.0) == r_plain.metrics
        assert r_jit.metrics.makespan_ms >= r_jit.metrics.rounds * 1.0
        assert validate_events(e_jit) == []

    def test_jittered_runs_replay_exactly(self):
        def run_once():
            network = NetworkModel(
                latency=UniformLatency(base_ms=0.5, jitter_ms=8.0), seed=23
            )
            return _traced(network, _gossip_programs(5, seed=6))

        (r1, e1), (r2, e2) = run_once(), run_once()
        assert r1.outputs == r2.outputs
        assert r1.metrics == r2.metrics
        assert canonical_lines(e1) == canonical_lines(e2)


class TestAnonChanEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_honest_anonchan_identical(self, seed):
        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        messages = {i: params.field(100 + i) for i in range(params.n)}

        def run(network):
            tracer = Tracer(clock=lambda: 0)
            result = run_anonchan(
                params, vss, messages, seed=seed, tracer=tracer,
                network=network,
            )
            return result, tracer.events

        r_plain, e_plain = run(None)
        r_zero, e_zero = run(NetworkModel())
        assert r_plain.outputs[0].output == r_zero.outputs[0].output
        assert r_plain.metrics == r_zero.metrics
        assert canonical_lines(e_plain) == canonical_lines(e_zero)
        assert validate_events(e_zero) == []

    def test_jamming_adversary_identical(self):
        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        vss = IdealVSS(params.field, params.n, params.t)
        messages = {i: params.field(100 + i) for i in range(params.n)}

        def run(network):
            corrupt = {3: jamming_material(params, random.Random(5))}
            tracer = Tracer(clock=lambda: 0)
            result = run_anonchan(
                params, vss, messages, seed=5, corrupt_materials=corrupt,
                tracer=tracer, network=network,
            )
            return result, tracer.events

        r_plain, e_plain = run(None)
        r_zero, e_zero = run(NetworkModel())
        assert r_plain.outputs[0].output == r_zero.outputs[0].output
        assert r_plain.metrics == r_zero.metrics
        assert canonical_lines(e_plain) == canonical_lines(e_zero)

