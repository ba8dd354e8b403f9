"""Tests for numpy-vectorized field arithmetic (GF(2^k) and primes)."""

import random

import numpy as np
import pytest

from repro.fields import Polynomial, PrimeField, gf2k, lagrange_coefficients
from repro.fields.vectorized import (
    VectorGF2k,
    VectorPrimeField,
    vector_backend,
)


@pytest.fixture(scope="module")
def vec():
    return VectorGF2k(gf2k(16))


@pytest.fixture(
    scope="module",
    params=[gf2k(16), PrimeField(65521)],
    ids=lambda f: f.short_name,
)
def backend(request):
    return vector_backend(request.param)


class TestConstruction:
    def test_beyond_carryless_width_rejected(self):
        # k > 32 exceeds the carryless kernel (bit 2k-2 would overflow
        # uint64); tableless fields up to k = 32 are now supported.
        with pytest.raises(ValueError):
            VectorGF2k(gf2k(33))

    def test_tableless_field_accepted(self):
        vec = VectorGF2k(gf2k(32))
        assert vec._exp is None
        assert vec.dtype is np.uint64

    def test_array_range_check(self, vec):
        with pytest.raises(ValueError):
            vec.array([vec.order])


class TestAgreementWithScalar:
    """Every vector op must agree with the scalar field arithmetic."""

    def test_mul(self, vec):
        f = vec.field
        rng = random.Random(0)
        a = [rng.randrange(f.order) for _ in range(500)]
        b = [rng.randrange(f.order) for _ in range(500)]
        out = vec.mul(vec.array(a), vec.array(b))
        for x, y, z in zip(a, b, out.tolist()):
            assert z == f.mul(x, y)

    def test_mul_with_zeros(self, vec):
        out = vec.mul(vec.array([0, 1, 5, 0]), vec.array([7, 0, 3, 0]))
        assert out.tolist() == [0, 0, vec.field.mul(5, 3), 0]

    def test_add(self, vec):
        out = vec.add(vec.array([1, 2, 3]), vec.array([3, 2, 1]))
        assert out.tolist() == [2, 0, 2]

    def test_scale(self, vec):
        f = vec.field
        a = vec.array([0, 1, 2, 77])
        out = vec.scale(a, 9)
        assert out.tolist() == [f.mul(v, 9) for v in (0, 1, 2, 77)]
        assert vec.scale(a, 0).tolist() == [0, 0, 0, 0]

    def test_inv(self, vec):
        f = vec.field
        a = [1, 2, 3, 1000]
        out = vec.inv(vec.array(a))
        for x, y in zip(a, out.tolist()):
            assert f.mul(x, y) == 1

    def test_inv_zero_raises(self, vec):
        with pytest.raises(ZeroDivisionError):
            vec.inv(vec.array([1, 0]))

    def test_broadcasting(self, vec):
        f = vec.field
        out = vec.mul(vec.array([1, 2, 3]), np.uint32(5))
        assert out.tolist() == [f.mul(v, 5) for v in (1, 2, 3)]


class TestPolynomialEvaluation:
    def test_horner_matches_polynomial(self, vec):
        f = vec.field
        rng = random.Random(1)
        polys = [Polynomial.random(f, 3, rng) for _ in range(40)]
        coeffs = np.array(
            [[p.coefficient(j).value for j in range(4)] for p in polys],
            dtype=np.uint32,
        )
        for x in (0, 1, 5, 1234):
            out = vec.horner_eval(coeffs, f.encode(x))
            for p, v in zip(polys, out.tolist()):
                assert v == p(x).value

    def test_eval_at_points_shape(self, vec):
        coeffs = np.zeros((7, 3), dtype=np.uint32)
        table = vec.eval_at_points(coeffs, [1, 2, 3, 4])
        assert table.shape == (7, 4)
        assert (table == 0).all()

    def test_1d_coeffs_rejected(self, vec):
        with pytest.raises(ValueError):
            vec.horner_eval(np.zeros(4, dtype=np.uint32), 1)

    def test_dot(self, vec):
        f = vec.field
        a = [3, 5, 7]
        b = [11, 13, 17]
        expected = 0
        for x, y in zip(a, b):
            expected ^= f.mul(x, y)
        assert vec.dot(vec.array(a), vec.array(b)) == expected


class TestFactory:
    def test_gf2k_backend(self):
        assert isinstance(vector_backend(gf2k(16)), VectorGF2k)

    def test_prime_backend(self):
        assert isinstance(vector_backend(PrimeField(97)), VectorPrimeField)

    def test_tableless_gf2k_accepted(self):
        assert isinstance(vector_backend(gf2k(32)), VectorGF2k)

    def test_beyond_carryless_width_rejected(self):
        with pytest.raises(ValueError):
            vector_backend(gf2k(33))

    def test_huge_prime_rejected(self):
        with pytest.raises(ValueError):
            vector_backend(PrimeField(2**31 + 11))

    def test_boundary_prime_accepted(self):
        vec = vector_backend(PrimeField(2**31 - 1))
        assert int(vec.mul(vec.array([2**31 - 2]), vec.array([2**31 - 2]))[0]) == (
            (2**31 - 2) ** 2
        ) % (2**31 - 1)


class TestPrimeFieldAgreement:
    """The uint64 prime substrate must agree with the scalar field."""

    @pytest.fixture(scope="class")
    def pvec(self):
        return VectorPrimeField(PrimeField(65521))

    def test_add_mul_neg(self, pvec):
        f = pvec.field
        rng = random.Random(14)
        a = [rng.randrange(f.order) for _ in range(300)]
        b = [rng.randrange(f.order) for _ in range(300)]
        adds = pvec.add(pvec.array(a), pvec.array(b)).tolist()
        muls = pvec.mul(pvec.array(a), pvec.array(b)).tolist()
        negs = pvec.neg(pvec.array(a)).tolist()
        for x, y, s, m, ng in zip(a, b, adds, muls, negs):
            assert s == f.add(x, y)
            assert m == f.mul(x, y)
            assert ng == f.neg(x)

    def test_inv(self, pvec):
        f = pvec.field
        a = [1, 2, 3, 65520, 12345]
        for x, y in zip(a, pvec.inv(pvec.array(a)).tolist()):
            assert f.mul(x, y) == 1

    def test_inv_zero_raises(self, pvec):
        with pytest.raises(ZeroDivisionError):
            pvec.inv(pvec.array([1, 0]))

    def test_reduce_sum(self, pvec):
        rows = [[60000, 60000, 60000], [1, 2, 3]]
        out = pvec.reduce_sum(pvec.array(rows), axis=1).tolist()
        assert out == [(3 * 60000) % pvec.field.p, 6]


class TestBatchKernels:
    """Vandermonde eval + interpolation-at-zero across both substrates."""

    def test_vandermonde_entries(self, backend):
        f = backend.field
        xs = [1, 2, 3, 5]
        table = backend.vandermonde(xs, 3)
        assert table.shape == (4, 4)
        for i, x in enumerate(xs):
            power = f.encode(1)
            for j in range(4):
                assert int(table[i, j]) == power
                power = f.mul(power, x)

    def test_vandermonde_negative_degree(self, backend):
        with pytest.raises(ValueError):
            backend.vandermonde([1, 2], -1)

    def test_batch_eval_matches_polynomial(self, backend):
        f = backend.field
        rng = random.Random(15)
        polys = [Polynomial.random(f, 3, rng) for _ in range(25)]
        coeffs = backend.array(
            [[p.coefficient(j).value for j in range(4)] for p in polys]
        )
        xs = [1, 2, 3, 4, 5]
        out = backend.batch_eval(coeffs, xs)
        assert out.shape == (25, 5)
        for r, p in enumerate(polys):
            for i, x in enumerate(xs):
                assert int(out[r, i]) == p(x).value

    def test_batch_eval_cached_vandermonde(self, backend):
        coeffs = backend.array([[1, 2], [3, 4]])
        xs = [1, 2, 3]
        table = backend.vandermonde(xs, 1)
        direct = backend.batch_eval(coeffs, xs)
        cached = backend.batch_eval(coeffs, vandermonde=table)
        assert direct.tolist() == cached.tolist()

    def test_batch_eval_width_mismatch(self, backend):
        table = backend.vandermonde([1, 2], 1)
        with pytest.raises(ValueError):
            backend.batch_eval(backend.array([[1, 2, 3]]), vandermonde=table)

    def test_batch_eval_needs_points(self, backend):
        with pytest.raises(ValueError):
            backend.batch_eval(backend.array([[1]]))

    def test_lagrange_at_zero_matches_scalar(self, backend):
        f = backend.field
        xs = [1, 2, 4, 7]
        got = backend.lagrange_at_zero(xs).tolist()
        assert got == [c.value for c in lagrange_coefficients(f, xs, 0)]

    def test_interpolate_at_zero_batch(self, backend):
        f = backend.field
        rng = random.Random(16)
        polys = [Polynomial.random(f, 2, rng) for _ in range(30)]
        xs = [1, 2, 3]
        ys = backend.array([[p(x).value for x in xs] for p in polys])
        out = backend.interpolate_at_zero_batch(xs, ys)
        for p, v in zip(polys, out.tolist()):
            assert v == p(0).value

    def test_interpolate_shape_mismatch(self, backend):
        with pytest.raises(ValueError):
            backend.interpolate_at_zero_batch([1, 2], backend.array([[1, 2, 3]]))

    def test_interpolate_1d_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.interpolate_at_zero_batch([1, 2], backend.array([1, 2]))


class TestIdealVSSIntegration:
    def test_vectorized_dealing_matches_scalar_path(self):
        """Same rng seed => identical share tables on both paths."""
        import random as pyrandom

        from repro.vss import IdealVSS

        f = gf2k(16)
        scheme = IdealVSS(f, n=5, t=2)
        secrets = [f(i * 3 + 1) for i in range(64)]

        session_v = scheme.new_session(pyrandom.Random(0))
        session_v._deal(0, 0, secrets, pyrandom.Random(42))

        session_s = scheme.new_session(pyrandom.Random(0))
        session_s._vector = None  # force the scalar path
        session_s._deal(0, 0, secrets, pyrandom.Random(42))

        assert session_v._evals == session_s._evals

    def test_small_batches_use_vector_path(self):
        import random as pyrandom

        from repro.obs.profiler import OpProfiler, profiled
        from repro.vss import IdealVSS

        f = gf2k(16)
        scheme = IdealVSS(f, n=4, t=1)
        session = scheme.new_session(pyrandom.Random(0))
        prof = OpProfiler()
        with profiled(prof):
            session._deal(0, 0, [f(9)], pyrandom.Random(1))
        assert session._evals[0][0] == 9  # the secret at x=0
        assert prof.total("vss", "deal_batched") == 1
