"""Integration tests for protocol AnonChan (Theorem 1's properties)."""

import random

import pytest

from repro.core import (
    AnonChan,
    honest_input_multiset,
    non_malleability_shape_holds,
    reliability_holds,
    run_anonchan,
    scaled_parameters,
)
from repro.core.adversaries import (
    dependent_input_material,
    guessing_cheater_material,
    jamming_material,
    targeted_material,
    zero_material,
)
from repro.network import PassiveAdversary
from repro.vss import GGOR13_COST, BGWVSS, IdealVSS


@pytest.fixture(scope="module")
def params():
    return scaled_parameters(n=4, d=6, num_checks=3, kappa=16)


@pytest.fixture(scope="module")
def vss(params):
    return IdealVSS(params.field, params.n, params.t)


def _messages(params, values=None):
    f = params.field
    if values is None:
        values = [100 + i for i in range(params.n)]
    return {i: f(v) for i, v in enumerate(values)}


class TestHonestExecution:
    def test_all_messages_delivered(self, params, vss):
        msgs = _messages(params)
        res = run_anonchan(params, vss, msgs, seed=1)
        y = res.outputs[0].output
        x = honest_input_multiset(list(msgs.values()))
        assert y == x

    def test_round_complexity(self, params, vss):
        """AnonChan == one VSS share phase + 5 fixed rounds (E1)."""
        res = run_anonchan(params, vss, _messages(params), seed=2)
        assert res.metrics.rounds == vss.cost.share_rounds + 5

    def test_broadcast_rounds_equal_vss_broadcasts(self, params):
        """The reduction is broadcast-round-preserving: with the GGOR13
        profile the whole protocol uses exactly 2 broadcast rounds (E2)."""
        vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
        res = run_anonchan(params, vss, _messages(params), seed=3)
        assert res.metrics.broadcast_rounds == 2
        assert res.metrics.rounds == 21 + 5

    def test_duplicate_messages_keep_multiplicity(self, params, vss):
        """Distinct random tags separate equal honest messages."""
        msgs = _messages(params, [7, 7, 7, 9])
        res = run_anonchan(params, vss, msgs, seed=4)
        y = res.outputs[0].output
        assert y[7] == 3
        assert y[9] == 1

    def test_all_parties_agree_on_pass_and_challenge(self, params, vss):
        res = run_anonchan(params, vss, _messages(params), seed=5)
        outs = list(res.outputs.values())
        assert all(o.passed == outs[0].passed for o in outs)
        assert all(o.challenge == outs[0].challenge for o in outs)

    def test_non_receiver_learns_no_output(self, params, vss):
        res = run_anonchan(params, vss, _messages(params), seed=6)
        for pid, out in res.outputs.items():
            if pid != 0:
                assert out.output is None

    def test_other_receiver(self, params, vss):
        res = run_anonchan(params, vss, _messages(params), receiver=2, seed=7)
        assert res.outputs[2].output == honest_input_multiset(
            list(_messages(params).values())
        )
        assert res.outputs[0].output is None


class TestSharingBackends:
    """The field's kernels change execution speed, never protocol behavior."""

    def test_backends_produce_identical_executions(self, pure_python):
        results = {}
        params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)
        for backend in ("scalar", "vectorized"):
            vss = IdealVSS(params.field, params.n, params.t)
            with pure_python(backend == "scalar"):
                res = run_anonchan(params, vss, _messages(params), seed=11)
            results[backend] = (
                res.outputs[0].output,
                {pid: out.passed for pid, out in res.outputs.items()},
                {pid: out.challenge for pid, out in res.outputs.items()},
                res.metrics.rounds,
            )
        assert results["scalar"] == results["vectorized"]
        assert results["scalar"][0] is not None


class TestAttacks:
    def test_jamming_is_caught(self, params, vss):
        """The classic DC-net jammer is disqualified; reliability holds."""
        rng = random.Random(0)
        msgs = _messages(params)
        res = run_anonchan(
            params,
            vss,
            msgs,
            seed=10,
            corrupt_materials={3: jamming_material(params, rng)},
        )
        out = res.outputs[0]
        assert 3 not in out.passed
        x = honest_input_multiset([msgs[i] for i in range(3)])
        assert reliability_holds(x, out.output)

    def test_guessing_cheater_wrong_guesses_disqualified(self, params, vss):
        f = params.field
        msgs = _messages(params)
        rng = random.Random(1)
        material = guessing_cheater_material(
            params, [f(1), f(2)], rng, bit_guesses=[0] * params.num_checks
        )
        res = run_anonchan(
            params, vss, msgs, seed=11, corrupt_materials={3: material}
        )
        out = res.outputs[0]
        bits = [out.challenge.value >> j & 1 for j in range(params.num_checks)]
        if any(bits):  # at least one bit-1 check ran: cheater is caught
            assert 3 not in out.passed
        x = honest_input_multiset([msgs[i] for i in range(3)])
        assert reliability_holds(x, out.output)

    def test_guessing_cheater_right_guesses_survives(self, params, vss):
        """Claim 1 is *tight*: guessing every challenge bit wins.

        We run once to learn the challenge (which is independent of the
        copies w_j), then rebuild the same cheater with perfect guesses.
        """
        f = params.field
        msgs = _messages(params)
        seed = 12
        first = run_anonchan(
            params,
            vss,
            msgs,
            seed=seed,
            corrupt_materials={
                3: guessing_cheater_material(
                    params, [f(1), f(2)], random.Random(2),
                    bit_guesses=[0] * params.num_checks,
                )
            },
        )
        bits = [
            first.outputs[0].challenge.value >> j & 1
            for j in range(params.num_checks)
        ]
        second = run_anonchan(
            params,
            vss,
            msgs,
            seed=seed,
            corrupt_materials={
                3: guessing_cheater_material(
                    params, [f(1), f(2)], random.Random(2), bit_guesses=bits
                )
            },
        )
        out = second.outputs[0]
        assert out.challenge == first.outputs[0].challenge
        assert 3 in out.passed  # the improper vector survived this time

    def test_zero_vector_passes_and_is_harmless(self, params, vss):
        rng = random.Random(3)
        msgs = _messages(params)
        res = run_anonchan(
            params,
            vss,
            msgs,
            seed=13,
            corrupt_materials={3: zero_material(params, rng)},
        )
        out = res.outputs[0]
        assert 3 in out.passed
        x = honest_input_multiset([msgs[i] for i in range(3)])
        assert out.output == x  # nothing added, nothing lost

    def test_targeted_proper_vector_passes(self, params, vss):
        """A proper vector always passes the proof, wherever its darts sit."""
        rng = random.Random(4)
        f = params.field
        msgs = _messages(params)
        material = targeted_material(
            params, f(55), list(range(params.d)), rng
        )
        res = run_anonchan(
            params, vss, msgs, seed=14, corrupt_materials={3: material}
        )
        out = res.outputs[0]
        assert 3 in out.passed
        assert out.output[55] == 1

    def test_non_malleability_shape(self, params, vss):
        """|Y| <= n and X ⊆ Y under a value-replaying adversary."""
        rng = random.Random(5)
        msgs = _messages(params)
        material = dependent_input_material(params, params.field(101), rng)
        res = run_anonchan(
            params, vss, msgs, seed=15, corrupt_materials={3: material}
        )
        out = res.outputs[0]
        x = honest_input_multiset([msgs[i] for i in range(3)])
        assert non_malleability_shape_holds(params.n, x, out.output)
        # The adversary replayed the *known* value 101: allowed, and it
        # shows up as an extra copy.
        assert out.output[101] == 2

    def test_corrupt_receiver_execution_terminates(self, params, vss):
        """With a passively corrupted P*, honest parties still finish and
        the (adversarial) receiver still gets the right multiset —
        anonymity, not correctness, is what it attacks."""
        msgs = _messages(params)
        protocol = AnonChan(params, vss, receiver=0)
        session = vss.new_session(random.Random(99))

        def prog(pid):
            return protocol.party_program(
                pid, session, msgs[pid], random.Random(1000 + pid)
            )

        programs = {pid: prog(pid) for pid in range(params.n)}
        adv = PassiveAdversary({0}, {0: prog(0)})
        from repro.network import run_protocol

        res = run_protocol(programs, adversary=adv)
        for pid in range(1, params.n):
            assert res.outputs[pid].output is None
        assert adv.results[0].output == honest_input_multiset(
            list(msgs.values())
        )


class TestWithRealVSS:
    def test_end_to_end_over_bgw(self):
        """AnonChan over the fully executable perfect VSS (t < n/3)."""
        params = scaled_parameters(n=4, t=1, d=4, num_checks=2, kappa=16, margin=6)
        vss = BGWVSS(params.field, params.n, params.t)
        msgs = {i: params.field(200 + i) for i in range(4)}
        res = run_anonchan(params, vss, msgs, seed=20)
        out = res.outputs[0]
        assert out.output == honest_input_multiset(list(msgs.values()))
        # BGW fast path: 3 share rounds + 5 protocol rounds.
        assert res.metrics.rounds == 3 + 5
        assert res.metrics.broadcast_rounds == 0

    def test_bgw_jamming_caught(self):
        params = scaled_parameters(n=4, t=1, d=4, num_checks=3, kappa=16, margin=6)
        vss = BGWVSS(params.field, params.n, params.t)
        msgs = {i: params.field(200 + i) for i in range(4)}
        rng = random.Random(6)
        res = run_anonchan(
            params,
            vss,
            msgs,
            seed=22,
            corrupt_materials={2: jamming_material(params, rng, density=0.3)},
        )
        out = res.outputs[0]
        bits = [out.challenge.value >> j & 1 for j in range(params.num_checks)]
        assert any(bits), "seed chosen so at least one bit-1 check runs"
        assert 2 not in out.passed
        x = honest_input_multiset([msgs[i] for i in (0, 1, 3)])
        assert reliability_holds(x, out.output)


class TestValidation:
    def test_receiver_out_of_range(self, params, vss):
        with pytest.raises(ValueError):
            AnonChan(params, vss, receiver=99)

    def test_vss_mismatch(self, params):
        from repro.fields import gf2k

        wrong = IdealVSS(gf2k(16), params.n + 1, params.t)
        with pytest.raises(ValueError):
            AnonChan(params, wrong)

    def test_missing_message(self, params, vss):
        protocol = AnonChan(params, vss)
        session = vss.new_session(random.Random(0))
        prog = protocol.party_program(0, session, None, random.Random(0))
        with pytest.raises(ValueError):
            next(prog)


class TestMinimalConfigurations:
    def test_two_parties_zero_tolerance(self):
        """The smallest legal channel: n=2, t=0.

        At n=2 every honest-honest collision carries the *same* garbage
        pair (x1+x2), so the d/2 threshold needs a wider margin than
        the defaults to keep the collision-overflow probability low.
        """
        params = scaled_parameters(n=2, t=0, d=6, num_checks=2, kappa=16,
                                   margin=16)
        vss = IdealVSS(params.field, 2, 0)
        msgs = {0: params.field(5), 1: params.field(6)}
        res = run_anonchan(params, vss, msgs, seed=30)
        assert res.outputs[0].output == honest_input_multiset(list(msgs.values()))

    def test_three_parties_max_tolerance(self):
        params = scaled_parameters(n=3, d=6, num_checks=3, kappa=16)
        assert params.t == 1
        vss = IdealVSS(params.field, 3, 1)
        msgs = {i: params.field(7 + i) for i in range(3)}
        res = run_anonchan(params, vss, msgs, seed=31)
        assert res.outputs[0].output == honest_input_multiset(list(msgs.values()))
