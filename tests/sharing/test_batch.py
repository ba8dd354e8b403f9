"""Batched dealing/reconstruction vs the scalar reference path.

The scalar path (``share`` / ``reconstruct`` / ``reconstruct_all``) is
ground truth; every batched entry point must agree with it *exactly* —
including the dealing rng stream, so a fixed seed yields bit-identical
shares on both paths.  Exercised across both vectorized substrates
(table-backed GF(2^k) and a word-sized prime field) and the edge shapes
(batch of 1, t = 0, n = 1).  The pure-Python leg of each pair is a
scheme built inside the ``pure_python`` seam (``tests/conftest.py``).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fields import PrimeField, gf2k
from repro.sharing import ShamirScheme


def fields():
    return [gf2k(16), PrimeField(65521)]


def field_id(field):
    return field.short_name


@pytest.fixture(params=fields(), ids=field_id)
def field(request):
    return request.param


def make_secrets(field, count, seed=0):
    rng = random.Random(seed)
    return [field(rng.randrange(field.order)) for _ in range(count)]


class TestDealingEquivalence:
    """Batched dealing consumes the rng exactly like the scalar path."""

    @pytest.mark.parametrize("count", [1, 2, 33, 100])
    def test_share_vector_batched_matches_scalar_share(
        self, pure_python, field, count
    ):
        with pure_python():
            scalar = ShamirScheme(field, n=7, t=3)
        batched = ShamirScheme(field, n=7, t=3)
        secrets = make_secrets(field, count, seed=count)
        expected = [scalar.share(s, random.Random(99)) for s in secrets]
        # One rng stream across the whole batch, same draws per secret.
        rng = random.Random(99)
        expected_stream = [scalar.share(s, rng) for s in secrets]
        got = batched.share_vector_batched(secrets, random.Random(99))
        assert got == expected_stream
        assert got[0] == expected[0]  # first secret: identical either way

    def test_share_vector_routes_through_batched(self, field):
        auto = ShamirScheme(field, n=5, t=2)
        secrets = make_secrets(field, 40, seed=3)
        assert auto.share_vector(
            secrets, random.Random(1)
        ) == auto.share_vector_batched(secrets, random.Random(1))

    def test_share_matrix_backends_agree(self, pure_python, field):
        with pure_python():
            scalar = ShamirScheme(field, n=6, t=2)
        batched = ShamirScheme(field, n=6, t=2)
        ints = [s.value for s in make_secrets(field, 64, seed=4)]
        assert scalar.share_matrix(
            ints, random.Random(2)
        ) == batched.share_matrix(ints, random.Random(2))

    def test_empty_batch(self, field):
        scheme = ShamirScheme(field, n=5, t=2)
        assert scheme.share_vector_batched([], random.Random(0)) == []
        assert scheme.reconstruct_batch([]) == []


class TestReconstructionEquivalence:
    def test_reconstruct_batch_roundtrip(self, field):
        scheme = ShamirScheme(field, n=7, t=3)
        secrets = make_secrets(field, 50, seed=5)
        rows = scheme.share_vector_batched(secrets, random.Random(5))
        assert scheme.reconstruct_batch(rows) == secrets
        # Per-row scalar reconstruction agrees exactly.
        for row, secret in zip(rows, secrets):
            assert scheme.reconstruct_all(row) == secret

    def test_reconstruct_batch_permuted_columns(self, field):
        scheme = ShamirScheme(field, n=7, t=3)
        secrets = make_secrets(field, 20, seed=6)
        rows = scheme.share_vector_batched(secrets, random.Random(6))
        perm = list(range(7))
        random.Random(7).shuffle(perm)
        permuted = [[row[i] for i in perm] for row in rows]
        assert scheme.reconstruct_batch(permuted) == secrets

    def test_reconstruct_batch_subset_of_points(self, field):
        scheme = ShamirScheme(field, n=7, t=3)
        secrets = make_secrets(field, 20, seed=7)
        rows = scheme.share_vector_batched(secrets, random.Random(7))
        subset = [row[2 : scheme.t + 3] for row in rows]  # t+1 shares
        assert scheme.reconstruct_batch(subset) == secrets

    def test_reconstruct_matrix_agrees_with_scalar(self, pure_python, field):
        with pure_python():
            scalar = ShamirScheme(field, n=6, t=2)
        batched = ShamirScheme(field, n=6, t=2)
        ints = [s.value for s in make_secrets(field, 64, seed=8)]
        table = scalar.share_matrix(ints, random.Random(8))
        xs = [p.value for p in scalar.points]
        assert (
            batched.reconstruct_matrix(table, xs)
            == scalar.reconstruct_matrix(table, xs)
            == ints
        )

    def test_reconstruct_batch_mismatched_rows(self, field):
        scheme = ShamirScheme(field, n=5, t=2)
        rows = scheme.share_vector_batched(
            make_secrets(field, 2, seed=9), random.Random(9)
        )
        mixed = [rows[0], list(reversed(rows[1]))]
        with pytest.raises(ValueError, match="same evaluation"):
            scheme.reconstruct_batch(mixed)

    def test_reconstruct_matrix_duplicate_points(self, field):
        scheme = ShamirScheme(field, n=5, t=2)
        with pytest.raises(ValueError, match="duplicate"):
            scheme.reconstruct_matrix([[0, 0, 0]], [1, 1, 2])

    def test_reconstruct_matrix_too_few_points(self, field):
        scheme = ShamirScheme(field, n=5, t=2)
        with pytest.raises(ValueError, match="at least"):
            scheme.reconstruct_matrix([[0, 0]], [1, 2])


class TestEdgeShapes:
    def test_batch_of_one(self, field):
        scheme = ShamirScheme(field, n=5, t=2)
        secrets = make_secrets(field, 1, seed=10)
        rows = scheme.share_vector_batched(secrets, random.Random(10))
        assert scheme.reconstruct_batch(rows) == secrets

    def test_threshold_zero(self, pure_python, field):
        # t = 0: the sharing polynomial is the constant secret.
        scheme = ShamirScheme(field, n=3, t=0)
        with pure_python():
            scalar = ShamirScheme(field, n=3, t=0)
        secrets = make_secrets(field, 5, seed=11)
        rows = scheme.share_vector_batched(secrets, random.Random(11))
        assert rows == scalar.share_vector_batched(secrets, random.Random(11))
        for row, secret in zip(rows, secrets):
            assert all(share.y == secret for share in row)
        assert scheme.reconstruct_batch(rows) == secrets

    def test_single_party(self, field):
        scheme = ShamirScheme(field, n=1, t=0)
        secrets = make_secrets(field, 4, seed=12)
        rows = scheme.share_vector_batched(secrets, random.Random(12))
        assert scheme.reconstruct_batch(rows) == secrets


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    count=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=2, max_value=9),
    data=st.data(),
)
def test_batch_roundtrip_property_gf2k(pure_python, seed, count, n, data):
    f = gf2k(16)
    t = data.draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    with pure_python():
        scalar = ShamirScheme(f, n=n, t=t)
    batched = ShamirScheme(f, n=n, t=t)
    rng = random.Random(seed)
    secrets = [f(rng.randrange(f.order)) for _ in range(count)]
    rows = batched.share_vector_batched(secrets, random.Random(seed))
    assert rows == scalar.share_vector_batched(secrets, random.Random(seed))
    assert batched.reconstruct_batch(rows) == secrets
    for row, secret in zip(rows, secrets):
        assert scalar.reconstruct_all(row) == secret


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    count=st.integers(min_value=1, max_value=40),
)
def test_batch_roundtrip_property_prime(pure_python, seed, count):
    f = PrimeField(10007)
    with pure_python():
        scalar = ShamirScheme(f, n=5, t=2)
    batched = ShamirScheme(f, n=5, t=2)
    rng = random.Random(seed)
    secrets = [f(rng.randrange(f.order)) for _ in range(count)]
    rows = batched.share_vector_batched(secrets, random.Random(seed))
    assert rows == scalar.share_vector_batched(secrets, random.Random(seed))
    assert batched.reconstruct_batch(rows) == secrets
    for row, secret in zip(rows, secrets):
        assert scalar.reconstruct(row[2:]) == secret
