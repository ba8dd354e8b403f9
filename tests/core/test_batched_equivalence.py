"""Differential harness: the batched AnonChan hot path ≡ the scalar path.

The cut-and-choose openings, the stage-2 difference checks and the
step-4 receiver sum run through the numpy view algebra
(``diff_offsets_batch`` / ``sum_offsets_batch``) and the table-free
GF(2^k) kernels whenever the field has a vectorized substrate.  The
``"scalar"`` leg of every pair below reaches the pure-Python path of
the same field through the ``pure_python`` seam (``tests/conftest.py``).
The contract pinned down here is that the kernels are *purely* an
execution-speed change:

- protocol outputs (pass sets, challenge, delivered multiset, round
  accounting) are identical between the two paths, for honest runs,
  under every adversary strategy and under every network fault;
- canonical traces are byte-identical (the batched path sends the same
  payloads in the same rounds);
- the batched VSS view algebra produces views with identical
  ``(terms, value)`` to the generic view-by-view fallbacks, on both
  field substrates (GF(2^k) and prime);
- the dealing rng stream is consumed identically, so seeded executions
  stay reproducible across paths;
- the field alone picks the path: ``GF(2^16)`` engages the kernels on a
  batch of one, ``GF(2^34)`` has no substrate and runs pure Python.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AnonChanParams, run_anonchan, scaled_parameters
from repro.core.adversaries import (
    dependent_input_material,
    guessing_cheater_material,
    jamming_material,
    targeted_material,
    zero_material,
)
from repro.fields import PrimeField, gf2k
from repro.obs import Tracer, canonical_lines
from repro.obs.profiler import OpProfiler, profiled
from repro.testkit import CampaignConfig, run_config
from repro.testkit.axes import FAULTS
from repro.vss import IdealVSS
from repro.vss.base import VSSSession
from tests.strategies import anonchan_params, seeds

BACKENDS = ("scalar", "vectorized")

#: strategy name -> builder(params, rng) for one corrupted prover's
#: step-1 material.  Each leg of a differential pair rebuilds the
#: material from an identically seeded rng, so the corrupted inputs are
#: bit-identical across backends.
STRATEGIES = {
    "jamming": lambda p, rng: jamming_material(p, rng),
    "guessing-cheater": lambda p, rng: guessing_cheater_material(
        p, [p.field(1), p.field(2)], rng, bit_guesses=[0] * p.num_checks
    ),
    "zero": lambda p, rng: zero_material(p, rng),
    "targeted": lambda p, rng: targeted_material(
        p, p.field(55), list(range(p.d)), rng
    ),
    "dependent-input": lambda p, rng: dependent_input_material(
        p, p.field(101), rng
    ),
}


def _materials(params, strategy, material_seed=777):
    if strategy == "honest":
        return None
    rng = random.Random(material_seed)
    return {params.n - 1: STRATEGIES[strategy](params, rng)}


def _run(pure_python, params, backend, seed, strategy="honest",
         trace=False, profiler=None):
    vss = IdealVSS(params.field, params.n, params.t)
    msgs = {i: params.field(100 + i) for i in range(params.n)}
    tracer = Tracer() if trace else None
    with pure_python(backend == "scalar"):
        res = run_anonchan(
            params,
            vss,
            msgs,
            seed=seed,
            corrupt_materials=_materials(params, strategy),
            tracer=tracer,
            profiler=profiler,
        )
    return res, tracer


def _summary(res):
    """Everything observable about one execution, in comparable form."""
    return (
        {
            pid: (out.vss_qualified, out.passed, out.challenge.value, out.output)
            for pid, out in res.outputs.items()
        },
        res.metrics.rounds,
        res.metrics.broadcast_rounds,
        res.metrics.field_elements_sent,
    )


def _views_key(views):
    return [(v.terms, v.value) for v in views]


def _drive(program):
    """Run a no-network VSS program generator to completion."""
    try:
        next(program)
        while True:
            program.send(None)
    except StopIteration as stop:
        return stop.value


class TestHypothesisDifferential:
    """Property form: random shapes x seeds x strategies, both paths."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )
    @given(
        params=anonchan_params(max_n=4, max_d=4, max_checks=3),
        seed=seeds,
        strategy=st.sampled_from(
            ("honest", "jamming", "guessing-cheater", "zero")
        ),
    )
    def test_outputs_identical(self, pure_python, params, seed, strategy):
        runs = {
            b: _summary(_run(pure_python, params, b, seed, strategy)[0])
            for b in BACKENDS
        }
        assert runs["scalar"] == runs["vectorized"]

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )
    @given(
        params=anonchan_params(max_n=4, max_d=4, max_checks=3, kappa=12),
        seed=seeds,
    )
    def test_outputs_identical_alternate_field(self, pure_python, params, seed):
        """A second GF(2^k) substrate (k=12: different tables, modulus)."""
        runs = {
            b: _summary(_run(pure_python, params, b, seed, "jamming")[0])
            for b in BACKENDS
        }
        assert runs["scalar"] == runs["vectorized"]


class TestAdversaryTraceIdentity:
    """Canonical traces are byte-identical across paths, per strategy;
    campaign trial outcomes are identical across paths, per fault."""

    PARAMS = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES) + ["honest"])
    def test_trace_and_outputs_identical(self, pure_python, strategy):
        results = {}
        for backend in BACKENDS:
            res, tracer = _run(
                pure_python, self.PARAMS, backend, seed=42, strategy=strategy,
                trace=True,
            )
            results[backend] = (
                _summary(res),
                canonical_lines(tracer.events),
            )
        assert results["scalar"] == results["vectorized"]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_outcomes_identical(self, pure_python, fault):
        """Both improper strategies under every network fault (the
        testkit fault axis): identical trials and checker verdicts."""
        for strategy in ("jamming", "guessing-cheater"):
            config = CampaignConfig(
                name="differential", n=4, t=1, d=4, ell=64, kappa=16,
                num_checks=2, strategy=strategy, fault=fault,
                corrupt_count=1, trials=2,
            )
            results = {}
            for backend in BACKENDS:
                with pure_python(backend == "scalar"):
                    result = run_config(config)
                results[backend] = (
                    [t.to_dict() for t in result.evidence.trials],
                    [o.to_dict() for o in result.outcomes],
                )
            assert results["scalar"] == results["vectorized"]

    def test_batched_path_actually_engaged(self, pure_python):
        """Guard against silent fallback: the vectorized leg must hit the
        batched view algebra (otherwise the differential pair proves
        nothing about the fast path)."""
        prof = OpProfiler()
        _run(pure_python, self.PARAMS, "vectorized", seed=42, profiler=prof)
        assert prof.total("vss", "combine_batched") > 0
        assert prof.total("vss", "deal_batched") > 0
        assert prof.total("vss", "combine_scalar_fallback") == 0

    def test_scalar_path_attribution(self, pure_python):
        """The scalar leg accounts through the *_scalar_fallback markers."""
        prof = OpProfiler()
        _run(pure_python, self.PARAMS, "scalar", seed=42, profiler=prof)
        assert prof.total("vss", "combine_scalar_fallback") > 0
        assert prof.total("vss", "combine_batched") == 0
        assert prof.total("vss", "deal_batched") == 0


class TestForceScalarEnv:
    """Forcing the pure-Python path (the ``pure_python`` seam) on a field
    that has a substrate leaves the outputs fixed and routes every
    dealing through the scalar fallback."""

    PARAMS = scaled_parameters(n=4, d=6, num_checks=3, kappa=16)

    def test_forced_auto_equals_unforced(self, pure_python):
        baseline = _summary(_run(pure_python, self.PARAMS, "vectorized", seed=9)[0])
        forced = _summary(_run(pure_python, self.PARAMS, "scalar", seed=9)[0])
        assert forced == baseline

    def test_forced_auto_takes_scalar_fallbacks(self, pure_python):
        prof = OpProfiler()
        _run(pure_python, self.PARAMS, "scalar", seed=9, profiler=prof)
        assert prof.total("vss", "deal_batched") == 0
        assert prof.total("vss", "combine_batched") == 0
        assert prof.total("vss", "deal_scalar_fallback") > 0


class TestFieldPicksThePath:
    """No size threshold and no mode: the field alone decides."""

    def test_gf2_16_engages_kernels_on_a_batch_of_one(self):
        f = gf2k(16)
        session = IdealVSS(f, 3, 1).new_session(random.Random(0))
        prof = OpProfiler()
        with profiled(prof):
            views = {
                pid: _drive(
                    session.share_program(
                        pid, 0, [f(9)] if pid == 0 else None,
                        random.Random(1),
                    )
                ).views
                for pid in range(3)
            }
            columns = {
                pid: [session.reveal_payload(pid, v) for v in views[pid]]
                for pid in (1, 2)
            }
            opened = session.reconstruct_private_batch(
                columns, count=1, verifier=0, views=views[0]
            )
        assert opened == [f(9)]
        assert prof.total("vss", "deal_batched") == 1
        assert prof.total("vss", "open_batched") == 1
        assert prof.total("vss", "deal_scalar_fallback") == 0
        assert prof.total("vss", "open_scalar_fallback") == 0

    def test_gf2_34_takes_the_pure_python_path(self, pure_python):
        """GF(2^34) is paper_parameters(n)'s field for n >= 17."""
        params = AnonChanParams(n=3, t=1, kappa=34, ell=16, d=2,
                                num_checks=2)
        prof = OpProfiler()
        res, _ = _run(pure_python, params, "vectorized", seed=5, profiler=prof)
        assert res.outputs[0].output is not None
        assert prof.total("vss", "deal_scalar_fallback") > 0
        assert prof.total("vss", "deal_batched") == 0
        assert prof.total("vss", "combine_batched") == 0


class TestOddShapes:
    """Degenerate geometries must agree between the paths too."""

    def test_ell_1_single_dart(self, pure_python):
        params = AnonChanParams(n=2, t=0, kappa=16, ell=1, d=1, num_checks=2)
        runs = {
            b: _summary(_run(pure_python, params, b, seed=3)[0]) for b in BACKENDS
        }
        assert runs["scalar"] == runs["vectorized"]

    def test_single_prover_pair(self, pure_python):
        """n=2: exactly one non-receiver prover feeds the step-4 sum."""
        params = scaled_parameters(n=2, t=0, d=6, num_checks=2, kappa=16,
                                   margin=16)
        for strategy in ("honest", "jamming"):
            runs = {
                b: _summary(
                    _run(pure_python, params, b, seed=30, strategy=strategy)[0]
                )
                for b in BACKENDS
            }
            assert runs["scalar"] == runs["vectorized"]

    def test_all_nonreceiver_provers_disqualified(self, pure_python):
        """Every prover but the receiver fails cut-and-choose (seed chosen
        so every jamming vector is caught): the step-4 sum degenerates to
        the receiver's own batch only."""
        p = scaled_parameters(n=3, d=4, num_checks=3, kappa=16)
        results = {}
        for backend in BACKENDS:
            vss = IdealVSS(p.field, p.n, p.t)
            mats = {
                i: jamming_material(p, random.Random(100 + i))
                for i in (1, 2)
            }
            with pure_python(backend == "scalar"):
                res = run_anonchan(
                    p,
                    vss,
                    {i: p.field(10 + i) for i in range(3)},
                    seed=0,
                    corrupt_materials=mats,
                )
            assert res.outputs[0].passed == frozenset({0})
            results[backend] = _summary(res)
        assert results["scalar"] == results["vectorized"]


class TestRngStreamIdentity:
    """Batched dealing consumes the dealer rng exactly like the scalar path."""

    @pytest.mark.parametrize(
        "field", [gf2k(16), gf2k(12), PrimeField(65521)],
        ids=["gf2^16", "gf2^12", "prime65521"],
    )
    def test_session_dealing_stream_and_views(self, pure_python, field):
        outcomes = {}
        for mode in BACKENDS:
            vss = IdealVSS(field, 4, 1)
            with pure_python(mode == "scalar"):
                session = vss.new_session(random.Random(0))
            rng = random.Random(12345)
            secrets = [field(i % field.order) for i in range(100)]
            batch = _drive(
                session.share_program(0, 0, secrets, rng, count=100)
            )
            outcomes[mode] = (rng.getstate(), _views_key(batch.views))
        assert outcomes["scalar"] == outcomes["vectorized"]


class TestViewAlgebraBothSubstrates:
    """The batched diff/sum produce views identical to the generic path,
    on GF(2^k) (subtraction == addition) and prime (true negation)."""

    @pytest.mark.parametrize(
        "field", [gf2k(12), PrimeField(65521)], ids=["gf2^12", "prime65521"]
    )
    def test_diff_offsets_matches_generic(self, field):
        session, batch, _ = self._session_with_batches(field)
        offs_a = list(range(0, 64))
        offs_b = list(range(16, 80))
        fast = session.diff_offsets_batch(batch, offs_a, offs_b)
        slow = VSSSession.diff_offsets_batch(session, batch, offs_a, offs_b)
        assert _views_key(fast) == _views_key(slow)

    @pytest.mark.parametrize(
        "field", [gf2k(12), PrimeField(65521)], ids=["gf2^12", "prime65521"]
    )
    def test_diff_same_offset_cancels(self, field):
        """a - a: terms cancel to () and the value is 0, on both paths."""
        session, batch, _ = self._session_with_batches(field)
        offs = [5] * 70
        fast = session.diff_offsets_batch(batch, offs, offs)
        slow = VSSSession.diff_offsets_batch(session, batch, offs, offs)
        assert _views_key(fast) == _views_key(slow)
        assert all(v.terms == () and v.value == 0 for v in fast)

    @pytest.mark.parametrize(
        "field", [gf2k(12), PrimeField(65521)], ids=["gf2^12", "prime65521"]
    )
    def test_sum_offsets_matches_generic(self, field):
        session, batch_a, batch_b = self._session_with_batches(field)
        cols = [list(range(64)), list(reversed(range(64)))]
        fast = session.sum_offsets_batch([batch_a, batch_b], cols)
        slow = VSSSession.sum_offsets_batch(
            session, [batch_a, batch_b], cols
        )
        assert _views_key(fast) == _views_key(slow)

    @pytest.mark.parametrize(
        "field", [gf2k(12), PrimeField(65521)], ids=["gf2^12", "prime65521"]
    )
    def test_single_batch_sum(self, field):
        session, batch, _ = self._session_with_batches(field)
        fast = session.sum_offsets_batch([batch], [list(range(64))])
        slow = VSSSession.sum_offsets_batch(session, [batch], [list(range(64))])
        assert _views_key(fast) == _views_key(slow)

    def test_empty_offsets(self):
        session, batch, _ = self._session_with_batches(gf2k(12))
        assert session.diff_offsets_batch(batch, [], []) == []
        assert session.sum_offsets_batch([], []) == []

    def test_out_of_range_offsets_keep_scalar_semantics(self):
        """Bad offsets defer to the generic path and raise IndexError,
        exactly like the scalar view-by-view lookup."""
        session, batch, _ = self._session_with_batches(gf2k(12))
        bad = list(range(len(batch.views) - 63, len(batch.views) + 1))
        with pytest.raises(IndexError):
            session.diff_offsets_batch(batch, bad, bad)

    @staticmethod
    def _session_with_batches(field):
        vss = IdealVSS(field, 3, 1)
        session = vss.new_session(random.Random(0))
        rng = random.Random(7)

        def deal(dealer):
            secrets = [field(rng.randrange(field.order)) for _ in range(80)]
            # The dealer's own program performs the deal; pid 0 then
            # obtains its views of the same batch.
            if dealer == 0:
                return _drive(
                    session.share_program(0, 0, secrets, rng, count=80)
                )
            _drive(session.share_program(dealer, dealer, secrets, rng, count=80))
            return _drive(
                session.share_program(0, dealer, None, rng, count=80)
            )

        return session, deal(0), deal(1)
