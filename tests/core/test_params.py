"""Tests for AnonChan parameter selection."""

import pytest

from repro.core import AnonChanParams, paper_parameters, scaled_parameters
from repro.core.params import reliability_failure_bound


class TestPaperParameters:
    def test_formulas(self):
        """The exact choices in the proof of Theorem 1 (kappa raised to
        the minimum that can encode indices in [l] as field elements)."""
        p = paper_parameters(n=5)
        assert p.kappa >= 2 * 5  # the paper's minimum
        assert 2**p.kappa > p.ell  # the encodability raise
        assert p.d == 5**4 * p.kappa
        assert p.ell == 4 * 5**6 * p.kappa
        assert p.num_checks == p.kappa
        assert p.t == 2

    def test_explicit_kappa_not_raised(self):
        p = paper_parameters(n=3, kappa=20)
        assert p.kappa == 20

    def test_meets_paper_constraints(self):
        for n in (3, 5, 7):
            assert paper_parameters(n).meets_paper_constraints()

    def test_collision_budget_identity(self):
        """n^2 (d^2/l + C d) == d/2 exactly for the paper's choices."""
        p = paper_parameters(n=4)
        c = 1.0 / (4 * p.n**2)
        budget = p.n**2 * (p.d**2 / p.ell + c * p.d)
        assert budget == pytest.approx(p.d / 2)

    def test_tail_exponent(self):
        """C^2 d == kappa/16 (which is Omega(kappa))."""
        p = paper_parameters(n=6)
        c = 1.0 / (4 * p.n**2)
        assert c * c * p.d == pytest.approx(p.kappa / 16)

    def test_explicit_kappa_and_t(self):
        p = paper_parameters(n=3, t=1, kappa=17)
        assert p.t == 1
        assert p.kappa == 17


class TestScaledParameters:
    def test_default_margin(self):
        p = scaled_parameters(n=5, d=8)
        assert p.ell == 8 * 4 * 8
        assert p.expected_collisions_per_party() == pytest.approx(8 / 8)

    def test_does_not_claim_paper_constraints(self):
        assert not scaled_parameters(n=5).meets_paper_constraints()

    def test_threshold_count(self):
        assert scaled_parameters(n=4, d=8).threshold_count == 4
        assert scaled_parameters(n=4, d=7).threshold_count == 4

    def test_values_accounting(self):
        p = scaled_parameters(n=4, d=6, num_checks=3)
        assert p.values_per_dealer == 2 * p.ell + 3 * (3 * p.ell + 6) + 1
        assert p.values_receiver == 4 * p.ell

    def test_cheater_survival_bound(self):
        assert scaled_parameters(n=4, num_checks=6).cheater_survival_bound() == 2**-6


class TestValidation:
    def test_t_too_large(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=4, t=2, kappa=16, ell=64, d=4, num_checks=4)

    def test_d_exceeds_ell(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=4, t=1, kappa=16, ell=4, d=8, num_checks=4)

    def test_too_few_challenge_bits(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=4, t=1, kappa=4, ell=64, d=4, num_checks=8)

    def test_field_too_small_for_vector(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=4, t=1, kappa=4, ell=64, d=4, num_checks=2)

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=1, t=0, kappa=16, ell=64, d=4, num_checks=4)

    def test_zero_checks_rejected(self):
        with pytest.raises(ValueError):
            AnonChanParams(n=4, t=1, kappa=16, ell=64, d=4, num_checks=0)


class TestReliabilityBound:
    def test_bound_shrinks_with_ell(self):
        loose = scaled_parameters(n=5, d=16, margin=4)
        tight = scaled_parameters(n=5, d=16, margin=64)
        assert reliability_failure_bound(tight) <= reliability_failure_bound(loose)

    def test_bound_in_unit_interval(self):
        for n in (3, 5, 9):
            b = reliability_failure_bound(scaled_parameters(n=n))
            assert 0.0 <= b <= 1.0

    def test_paper_parameters_negligible(self):
        # n=3 auto-raises kappa to 16; the dominating term is the tag
        # collision bound n^2 / 2^kappa ~ 1.4e-4, shrinking with kappa.
        b16 = reliability_failure_bound(paper_parameters(n=3))
        b24 = reliability_failure_bound(paper_parameters(n=3, kappa=24))
        assert b16 < 1e-3
        assert b24 < b16 / 100
