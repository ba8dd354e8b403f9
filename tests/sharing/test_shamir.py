"""Tests for Shamir secret sharing."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import PrimeField, gf2k
from repro.obs.profiler import OpProfiler, profiled
from repro.sharing import ShamirScheme, Share


@pytest.fixture
def scheme():
    return ShamirScheme(gf2k(16), n=7, t=3)


class TestConstruction:
    def test_bad_threshold(self):
        f = gf2k(8)
        with pytest.raises(ValueError):
            ShamirScheme(f, n=5, t=5)
        with pytest.raises(ValueError):
            ShamirScheme(f, n=5, t=-1)

    def test_field_too_small(self):
        with pytest.raises(ValueError):
            ShamirScheme(gf2k(2), n=5, t=1)

    def test_no_parties(self):
        with pytest.raises(ValueError):
            ShamirScheme(gf2k(8), n=0, t=0)

    def test_points_are_distinct_nonzero(self, scheme):
        values = [p.value for p in scheme.points]
        assert len(set(values)) == scheme.n
        assert 0 not in values


class TestShareReconstruct:
    def test_roundtrip(self, scheme):
        rng = random.Random(0)
        secret = scheme.field(12345)
        shares = scheme.share(secret, rng)
        assert scheme.reconstruct(shares) == secret
        assert scheme.reconstruct_all(shares) == secret

    def test_any_t_plus_1_subset(self, scheme):
        rng = random.Random(1)
        secret = scheme.field(777)
        shares = scheme.share(secret, rng)
        for subset in list(combinations(shares, scheme.t + 1))[:15]:
            assert scheme.reconstruct(list(subset)) == secret

    def test_too_few_shares(self, scheme):
        rng = random.Random(2)
        shares = scheme.share(scheme.field(1), rng)
        with pytest.raises(ValueError):
            scheme.reconstruct(shares[: scheme.t])

    def test_reconstruct_all_requires_n(self, scheme):
        rng = random.Random(3)
        shares = scheme.share(scheme.field(1), rng)
        with pytest.raises(ValueError):
            scheme.reconstruct_all(shares[:-1])

    def test_share_with_polynomial(self, scheme):
        rng = random.Random(4)
        secret = scheme.field(42)
        shares, poly = scheme.share_with_polynomial(secret, rng)
        assert poly(0) == secret
        for share in shares:
            assert poly(share.x) == share.y

    def test_share_vector(self, scheme):
        rng = random.Random(5)
        secrets = [scheme.field(v) for v in (1, 2, 3)]
        rows = scheme.share_vector(secrets, rng)
        for secret, row in zip(secrets, rows):
            assert scheme.reconstruct_all(row) == secret


class TestShareOrderAndDuplicates:
    """Regressions: shares arriving out of order or duplicated."""

    def test_reconstruct_all_reordered_shares(self):
        """Regression: a permuted share list must not change the secret.

        Previously ``reconstruct_all`` zipped shares against the cached
        coefficients positionally, so reversing the 5 shares of 42 over
        GF(97) silently reconstructed 55.
        """
        f = PrimeField(97)
        scheme = ShamirScheme(f, n=5, t=2)
        shares = scheme.share(f(42), random.Random(0))
        assert scheme.reconstruct_all(list(reversed(shares))) == f(42)

    def test_reconstruct_all_any_permutation(self, scheme):
        rng = random.Random(20)
        secret = scheme.field(31337)
        shares = scheme.share(secret, rng)
        for _ in range(10):
            rng.shuffle(shares)
            assert scheme.reconstruct_all(shares) == secret

    def test_reconstruct_all_unexpected_point(self, scheme):
        rng = random.Random(21)
        shares = scheme.share(scheme.field(1), rng)
        f = scheme.field
        bad = Share(f(scheme.n + 1), shares[0].y)
        with pytest.raises(ValueError, match="unexpected"):
            scheme.reconstruct_all(shares[:-1] + [bad])

    def test_reconstruct_all_duplicate_point(self, scheme):
        rng = random.Random(22)
        shares = scheme.share(scheme.field(1), rng)
        with pytest.raises(ValueError, match="duplicate"):
            scheme.reconstruct_all(shares[:-1] + [shares[0]])

    def test_reconstruct_benign_duplicates_collapse(self, scheme):
        rng = random.Random(23)
        secret = scheme.field(909)
        shares = scheme.share(secret, rng)
        doubled = shares[: scheme.t + 1] + shares[: scheme.t + 1]
        assert scheme.reconstruct(doubled) == secret

    def test_reconstruct_conflicting_duplicate_raises(self, scheme):
        rng = random.Random(24)
        shares = scheme.share(scheme.field(5), rng)
        forged = Share(shares[0].x, shares[0].y + scheme.field(1))
        with pytest.raises(ValueError, match="conflicting"):
            scheme.reconstruct(shares + [forged])

    def test_reconstruct_duplicates_do_not_count_toward_quorum(self, scheme):
        rng = random.Random(25)
        shares = scheme.share(scheme.field(5), rng)
        # t+1 copies of one share are still a single distinct point.
        with pytest.raises(ValueError, match="distinct"):
            scheme.reconstruct([shares[0]] * (scheme.t + 1))

    def test_consistent_conflicting_duplicate_raises(self, scheme):
        rng = random.Random(26)
        shares = scheme.share(scheme.field(5), rng)
        forged = Share(shares[0].x, shares[0].y + scheme.field(1))
        with pytest.raises(ValueError, match="conflicting"):
            scheme.consistent(shares + [forged])

    def test_consistent_benign_duplicates(self, scheme):
        rng = random.Random(27)
        shares = scheme.share(scheme.field(5), rng)
        assert scheme.consistent(shares + shares)


def _eval_path(scheme):
    """(kernel evaluations, pure-Python evaluations) of one dealing."""
    prof = OpProfiler()
    with profiled(prof):
        scheme.share_matrix([1], random.Random(0))
    return (
        prof.total("shamir", "batch_eval"),
        prof.total("shamir", "eval_scalar_fallback"),
    )


class TestBackendSelection:
    """The field alone picks the kernels, for every batch size."""

    def test_vectorized_requires_supported_field(self):
        # gf2k(33) exceeds the carryless kernel width: no substrate.
        assert _eval_path(ShamirScheme(gf2k(16), n=5, t=2)) == (1, 0)
        assert _eval_path(ShamirScheme(gf2k(33), n=5, t=2)) == (0, 1)

    def test_seam_selects_pure_python(self, pure_python):
        with pure_python():
            scheme = ShamirScheme(gf2k(16), n=5, t=2)
        assert _eval_path(scheme) == (0, 1)

    def test_auto_falls_back_to_scalar(self):
        scheme = ShamirScheme(gf2k(33), n=5, t=2)
        rng = random.Random(28)
        secret = scheme.field(1 << 20)
        assert scheme.reconstruct_all(scheme.share(secret, rng)) == secret


class TestPrivacy:
    def test_t_shares_are_uniform(self):
        """Any t shares of distinct secrets have identical distributions.

        Statistical check: over many dealings of two different secrets,
        the first share's value distribution should cover the field
        roughly uniformly for both (chi-square-free sanity check on
        support coverage).
        """
        f = PrimeField(11)
        scheme = ShamirScheme(f, n=5, t=2)
        rng = random.Random(6)
        seen_a, seen_b = set(), set()
        for _ in range(400):
            seen_a.add(scheme.share(f(0), rng)[0].y.value)
            seen_b.add(scheme.share(f(7), rng)[0].y.value)
        assert seen_a == set(range(11))
        assert seen_b == set(range(11))


class TestConsistency:
    def test_consistent_true(self, scheme):
        rng = random.Random(7)
        shares = scheme.share(scheme.field(5), rng)
        assert scheme.consistent(shares)

    def test_consistent_false_on_tamper(self, scheme):
        rng = random.Random(8)
        shares = scheme.share(scheme.field(5), rng)
        bad = Share(shares[-1].x, shares[-1].y + scheme.field(1))
        assert not scheme.consistent(shares[:-1] + [bad])

    def test_trivially_consistent_when_few(self, scheme):
        rng = random.Random(9)
        shares = scheme.share(scheme.field(5), rng)
        assert scheme.consistent(shares[: scheme.t + 1])


class TestLinearity:
    def test_add_shares(self, scheme):
        rng = random.Random(10)
        f = scheme.field
        sa, sb = f(100), f(200)
        a = scheme.share(sa, rng)
        b = scheme.share(sb, rng)
        assert scheme.reconstruct_all(ShamirScheme.add_shares(a, b)) == sa + sb

    def test_add_mismatched_points(self, scheme):
        f = scheme.field
        with pytest.raises(ValueError):
            _ = Share(f(1), f(0)) + Share(f(2), f(0))

    def test_scale_shares(self, scheme):
        rng = random.Random(11)
        f = scheme.field
        secret = f(123)
        shares = scheme.share(secret, rng)
        scaled = ShamirScheme.scale_shares(shares, f(7))
        assert scheme.reconstruct_all(scaled) == secret * f(7)

    def test_linear_combination(self, scheme):
        rng = random.Random(12)
        f = scheme.field
        secrets = [f(3), f(5), f(9)]
        coeffs = [f(2), f(11), f(1)]
        rows = [scheme.share(s, rng) for s in secrets]
        combined = scheme.linear_combination(rows, coeffs)
        expected = f.sum([c * s for c, s in zip(coeffs, secrets)])
        assert scheme.reconstruct_all(combined) == expected

    def test_linear_combination_length_mismatch(self, scheme):
        rng = random.Random(13)
        rows = [scheme.share(scheme.field(1), rng)]
        with pytest.raises(ValueError):
            scheme.linear_combination(rows, [])


@settings(max_examples=50)
@given(
    secret=st.integers(min_value=0, max_value=2**16 - 1),
    seed=st.integers(min_value=0, max_value=10**9),
    n=st.integers(min_value=3, max_value=9),
)
def test_roundtrip_property(secret, seed, n):
    f = gf2k(16)
    t = (n - 1) // 2
    scheme = ShamirScheme(f, n=n, t=t)
    shares = scheme.share(f(secret), random.Random(seed))
    assert scheme.reconstruct_all(shares) == f(secret)


@settings(max_examples=50)
@given(
    a=st.integers(min_value=0, max_value=2**16 - 1),
    b=st.integers(min_value=0, max_value=2**16 - 1),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_linearity_property(a, b, seed):
    f = gf2k(16)
    scheme = ShamirScheme(f, n=5, t=2)
    rng = random.Random(seed)
    sa = scheme.share(f(a), rng)
    sb = scheme.share(f(b), rng)
    assert scheme.reconstruct_all(ShamirScheme.add_shares(sa, sb)) == f(a) + f(b)
