"""Property tests for the table-free carryless GF(2^k) kernels.

``VectorGF2k`` carries two multiplication kernels — log/exp table
gathers and the carryless shift-and-XOR kernel — selected by array size
against ``table_free_min``.  The contract here: both kernels compute
the *same* polynomial multiplication modulo the same irreducible, so
the crossover threshold is purely a performance knob.  Every test pins
one kernel explicitly by setting ``table_free_min`` on its own
instance (0 forces carryless, huge forces gathers) and checks it
against the scalar reference field and against the other kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import gf2k
from repro.fields.vectorized import CARRYLESS_MAX_K, VectorGF2k

#: Force-carryless / force-gathers thresholds.
ALWAYS_CLMUL = 0
NEVER_CLMUL = 1 << 60


def _pinned(field, table_free_min):
    """A backend whose gather-to-carryless crossover is ``table_free_min``."""
    vec = VectorGF2k(field)
    vec.table_free_min = table_free_min
    return vec


def _kernels(k):
    """(field, carryless-pinned backend, gather-pinned backend or None)."""
    field = gf2k(k)
    clmul = _pinned(field, ALWAYS_CLMUL)
    tables = (
        _pinned(field, NEVER_CLMUL)
        if field.has_tables
        else None
    )
    return field, clmul, tables


def _sample(field, size, seed=0):
    rng = np.random.default_rng(seed)
    vec = _pinned(field, NEVER_CLMUL if field.has_tables else ALWAYS_CLMUL)
    return vec.random(size, rng)


class TestCarrylessMatchesScalar:
    """The carryless kernel agrees with the scalar reference field."""

    @pytest.mark.parametrize("k", [4, 8, 16, 17, 20, 32])
    def test_mul(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 257, seed=k)
        b = _sample(field, 257, seed=k + 1)
        expected = [field.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert clmul.mul(a, b).tolist() == expected

    @pytest.mark.parametrize("k", [8, 16, 20, 32])
    def test_scale(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 129, seed=k)
        for scalar in (0, 1, 2, field.order - 1, field.order // 3):
            expected = [field.mul(int(x), scalar) for x in a]
            assert clmul.scale(a, scalar).tolist() == expected

    @pytest.mark.parametrize("k", [17, 20, 32])
    def test_fermat_inverse_tableless(self, k):
        """For tableless k the Fermat carryless ladder is the only inverse."""
        field, clmul, _ = _kernels(k)
        a = _sample(field, 65, seed=k)
        a[a == 0] = 1
        inverses = clmul.inv(a)
        assert [field.mul(int(x), int(y)) for x, y in zip(a, inverses)] == [
            1
        ] * a.size
        assert inverses.tolist() == [field.inv(int(x)) for x in a]

    def test_table_inverse_matches_scalar(self):
        field, _, tables = _kernels(16)
        a = _sample(field, 65, seed=3)
        a[a == 0] = 1
        assert tables.inv(a).tolist() == [field.inv(int(x)) for x in a]


class TestKernelCrossAgreement:
    """Both kernels, same field: identical outputs for identical inputs."""

    @pytest.mark.parametrize("k", [4, 8, 12, 16])
    def test_mul_and_scale(self, k):
        field, clmul, tables = _kernels(k)
        a = _sample(field, 511, seed=k)
        b = _sample(field, 511, seed=k + 7)
        assert np.array_equal(clmul.mul(a, b), tables.mul(a, b))
        scalar = int(a[0]) or 1
        assert np.array_equal(clmul.scale(b, scalar), tables.scale(b, scalar))

    def test_threshold_crossover_is_invisible(self):
        """A mid-range threshold: results must not change at the seam."""
        field = gf2k(16)
        crossing = _pinned(field, 64)
        reference = _pinned(field, NEVER_CLMUL)
        for size in (1, 63, 64, 65, 200):
            a = _sample(field, size, seed=size)
            b = _sample(field, size, seed=size + 1)
            assert np.array_equal(crossing.mul(a, b), reference.mul(a, b))
            assert np.array_equal(
                crossing.scale(a, 0x1234), reference.scale(a, 0x1234)
            )


class TestAlgebraicLaws:
    """Ring axioms hold array-wise under the carryless kernel."""

    @pytest.mark.parametrize("k", [8, 16, 20, 32])
    def test_commutativity(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 256, seed=k)
        b = _sample(field, 256, seed=k + 1)
        assert np.array_equal(clmul.mul(a, b), clmul.mul(b, a))

    @pytest.mark.parametrize("k", [8, 16, 20, 32])
    def test_associativity(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 256, seed=k)
        b = _sample(field, 256, seed=k + 1)
        c = _sample(field, 256, seed=k + 2)
        assert np.array_equal(
            clmul.mul(clmul.mul(a, b), c), clmul.mul(a, clmul.mul(b, c))
        )

    @pytest.mark.parametrize("k", [8, 16, 20, 32])
    def test_distributivity(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 256, seed=k)
        b = _sample(field, 256, seed=k + 1)
        c = _sample(field, 256, seed=k + 2)
        assert np.array_equal(
            clmul.mul(a, clmul.add(b, c)),
            clmul.add(clmul.mul(a, b), clmul.mul(a, c)),
        )

    @pytest.mark.parametrize("k", [8, 16, 20, 32])
    def test_identities(self, k):
        field, clmul, _ = _kernels(k)
        a = _sample(field, 128, seed=k)
        ones = np.ones_like(a)
        zeros = np.zeros_like(a)
        assert np.array_equal(clmul.mul(a, ones), a)
        assert np.array_equal(clmul.mul(a, zeros), zeros)
        assert np.array_equal(clmul.add(a, a), zeros)


class TestEdgeShapes:
    """Empty and length-1 arrays flow through both kernels."""

    @pytest.mark.parametrize("threshold", [ALWAYS_CLMUL, NEVER_CLMUL])
    def test_empty(self, threshold):
        field = gf2k(16)
        vec = _pinned(field, threshold)
        empty = vec.array([])
        assert vec.mul(empty, empty).shape == (0,)
        assert vec.scale(empty, 7).shape == (0,)
        assert vec.add(empty, empty).shape == (0,)
        assert vec.inv(empty).shape == (0,)

    @pytest.mark.parametrize("threshold", [ALWAYS_CLMUL, NEVER_CLMUL])
    def test_length_one(self, threshold):
        field = gf2k(16)
        vec = _pinned(field, threshold)
        a = vec.array([0x2B])
        b = vec.array([0x9D])
        assert int(vec.mul(a, b)[0]) == field.mul(0x2B, 0x9D)
        assert int(vec.scale(a, 0x9D)[0]) == field.mul(0x2B, 0x9D)
        assert int(vec.inv(a)[0]) == field.inv(0x2B)

    def test_empty_tableless(self):
        vec = _pinned(gf2k(32), ALWAYS_CLMUL)
        empty = vec.array([])
        assert vec.mul(empty, empty).shape == (0,)
        assert vec.inv(empty).shape == (0,)


class TestHypothesisProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        k=st.sampled_from((8, 16, 20, 32)),
        data=st.data(),
    )
    def test_random_products_match_scalar(self, k, data):
        field = gf2k(k)
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=field.order - 1),
                min_size=1,
                max_size=40,
            )
        )
        others = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=field.order - 1),
                min_size=len(values),
                max_size=len(values),
            )
        )
        clmul = _pinned(field, ALWAYS_CLMUL)
        a = clmul.array(values)
        b = clmul.array(others)
        assert clmul.mul(a, b).tolist() == [
            field.mul(x, y) for x, y in zip(values, others)
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        value=st.integers(min_value=1, max_value=(1 << 20) - 1),
    )
    def test_fermat_inverse_roundtrip_k20(self, value):
        field = gf2k(20)
        clmul = _pinned(field, ALWAYS_CLMUL)
        a = clmul.array([value])
        assert int(clmul.mul(a, clmul.inv(a))[0]) == 1

    def test_carryless_width_boundary(self):
        """k = CARRYLESS_MAX_K works; k + 1 is rejected."""
        assert CARRYLESS_MAX_K == 32
        vec = _pinned(gf2k(32), ALWAYS_CLMUL)
        a = vec.array([0xDEADBEEF % (1 << 32)])
        b = vec.array([0x1234567])
        assert int(vec.mul(a, b)[0]) == gf2k(32).mul(int(a[0]), int(b[0]))
        with pytest.raises(ValueError):
            VectorGF2k(gf2k(33))
