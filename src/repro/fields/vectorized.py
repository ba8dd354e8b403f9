"""Vectorized finite-field arithmetic over numpy arrays.

The experiments shuffle hundreds of thousands of field elements (every
coordinate of every dart vector is VSS-shared), and at paper scale
(``ell ~ n^6 kappa``) the simulator deals and reconstructs that many
Shamir sharings per execution.  Scalar Python loops are the wall; the
backends here turn the hot kernels of the sharing stack into a handful
of numpy operations:

- **batch polynomial evaluation** (dealing): evaluate ``m`` sharing
  polynomials at all party points at once, Vandermonde-style
  (:meth:`VectorBackend.batch_eval`), and
- **batch interpolation at zero** (reconstruction): recombine ``m``
  rows of shares against one set of cached Lagrange coefficients
  (:meth:`VectorBackend.interpolate_at_zero_batch`).

Two substrates are supported: binary fields ``GF(2^k)``
(:class:`VectorGF2k`) and word-sized prime fields
(:class:`VectorPrimeField` — ``uint64`` modular arithmetic).
:class:`VectorGF2k` carries *two* multiplication kernels: log/exp table
gathers (table-backed fields, small arrays) and a **carryless
shift-and-XOR kernel** that needs no tables at all — it is the only
kernel for tableless fields (``k > GF2k.TABLE_MAX_K``, up to
``k <= CARRYLESS_MAX_K``) and takes over from the gathers above a size
threshold, where streaming passes beat cache-missing random gathers.
:func:`vector_backend` picks the right backend for a given field, or
raises ``ValueError`` when the field has no vectorized substrate
(callers then fall back to the scalar reference path, which stays
authoritative: property tests assert exact agreement).

The module also hosts :data:`TABLES`, the process-wide cache of
Vandermonde and Lagrange-at-zero tables shared by the VSS sessions and
sharing schemes, so the tables survive across protocol epochs (each
``run_anonchan`` builds a fresh session).  Entries are keyed by the
:class:`~repro.fields.base.Field` *object* — field equality hashes the
concrete type plus its defining parameters — never by a lossy repr:
``GF(2^4)`` exists for several reduction polynomials, and a ``GF2k``
modulus can numerically equal a ``PrimeField`` modulus, so any
repr/order-based key would leak tables across fields.

Which kernels run is decided by the field alone: the sharing scheme
and the VSS session call :func:`vector_backend` once, when they are
built, and take the numpy kernels iff it succeeds, for every batch
size.  A ``ValueError`` means the field has no substrate (``GF(2^k)``
with ``k > CARRYLESS_MAX_K``, e.g. ``paper_parameters(n)`` for
``n >= 17``, or a prime ``>= 2^31``) and the pure-Python path runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.obs.profiler import get_profiler

from .base import Field
from .gf2k import GF2k
from .primefield import PrimeField

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Largest extension degree the carryless GF(2^k) kernel supports:
#: intermediate products peak at bit ``2k - 2``, which must fit uint64.
CARRYLESS_MAX_K = 32

#: Default array size above which table-backed GF(2^k) multiplication
#: switches from log/exp gathers to the carryless kernel.  Gathers into
#: the 2^k-entry tables are random-access and lose to the kernel's
#: ``O(3k)`` streaming passes only once the tables fall out of cache;
#: measured on the reference container the k=16 tables stay
#: cache-resident through 2^22-element batches, so the default engages
#: the kernel only beyond that (to re-measure, set ``table_free_min`` on
#: one :class:`VectorGF2k` instance — see docs/PERFORMANCE.md).
#: Tableless fields (k > ``GF2k.TABLE_MAX_K``) always use the carryless
#: kernel regardless of size.
DEFAULT_TABLE_FREE_MIN = 1 << 22


class VectorBackend:
    """Shared batch kernels over element-wise field primitives.

    Subclasses fix the array ``dtype`` and implement ``add``, ``mul``,
    ``scale``, ``neg``, ``reduce_sum`` and ``reduceat``; everything else
    (Horner evaluation, Vandermonde tables, batched interpolation at
    zero) is derived here and therefore identical across substrates.
    All arrays hold raw field encodings.
    """

    field: Field
    order: int
    dtype: Any

    # -- conversions ------------------------------------------------------
    def array(self, values: "ArrayLike") -> np.ndarray:
        """Coerce a sequence of raw encodings to the working dtype."""
        out = np.asarray(values, dtype=self.dtype)
        if out.size and int(out.max(initial=0)) >= self.order:
            raise ValueError("values out of field range")
        return out

    def random(
        self, shape: int | tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform random array (``rng`` is ``numpy.random.Generator``)."""
        return rng.integers(0, self.order, size=shape, dtype=self.dtype)

    # -- element-wise primitives (substrate-specific) ---------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field addition."""
        raise NotImplementedError

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field multiplication (with broadcasting)."""
        raise NotImplementedError

    def neg(self, a: np.ndarray) -> np.ndarray:
        """Element-wise additive inverse."""
        raise NotImplementedError

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Element-wise multiplicative inverse; raises on zeros."""
        raise NotImplementedError

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along one axis."""
        raise NotImplementedError

    def reduceat(self, a: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-segment field sums (``ufunc.reduceat`` semantics).

        ``indices`` are the segment start offsets into the 1-D array
        ``a``; empty segments follow numpy's reduceat convention (the
        caller must patch them — see the VSS layer's usage).
        """
        raise NotImplementedError

    def scale(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply an array by one scalar encoding."""
        return self.mul(np.asarray(a, dtype=self.dtype), self.dtype(scalar))

    # -- polynomial evaluation -------------------------------------------
    def horner_eval(self, coeffs: np.ndarray, x: int) -> np.ndarray:
        """Evaluate many polynomials at one point.

        ``coeffs`` has shape ``(m, deg + 1)``, low-degree first; returns
        the length-``m`` array of evaluations at encoding ``x``.
        """
        coeffs = np.asarray(coeffs, dtype=self.dtype)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be 2-D (one row per polynomial)")
        prof = get_profiler()
        if prof.enabled:
            # numpy kernels never route through field.mul, so the field
            # ops they replace are accounted analytically (one
            # mul + add per coefficient per polynomial for Horner).
            prof.observe("vec", "horner_eval", coeffs.shape[0])
            prof.count("fields", "mul", coeffs.shape[0] * coeffs.shape[1])
            prof.count("fields", "add", coeffs.shape[0] * coeffs.shape[1])
        acc = np.zeros(coeffs.shape[0], dtype=self.dtype)
        for j in range(coeffs.shape[1] - 1, -1, -1):
            acc = self.add(self.scale(acc, x), coeffs[:, j])
        return acc

    def eval_at_points(
        self, coeffs: np.ndarray, xs: Iterable[int | np.integer]
    ) -> np.ndarray:
        """Evaluate many polynomials at several points (Horner per point).

        Returns shape ``(m, len(xs))`` — exactly the share table a VSS
        dealer needs (one row per secret, one column per party point).
        """
        xs_list = [int(x) for x in xs]
        columns = [self.horner_eval(coeffs, x) for x in xs_list]
        return np.stack(columns, axis=1)

    def vandermonde(self, xs: Sequence[int], degree: int) -> np.ndarray:
        """The Vandermonde table ``V[i, j] = xs[i]^j`` for ``j <= degree``.

        Computed once and cached by callers (the evaluation points of a
        sharing scheme are fixed — see :data:`TABLES` for the shared
        cross-session cache), it turns dealing into
        :meth:`batch_eval`'s accumulate-of-products.
        """
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        xs_arr = self.array(xs)
        if xs_arr.ndim != 1:
            raise ValueError("xs must be 1-D")
        table = np.empty((xs_arr.shape[0], degree + 1), dtype=self.dtype)
        column = np.full(
            xs_arr.shape[0], self.field.encode(1), dtype=self.dtype
        )
        table[:, 0] = column
        for j in range(1, degree + 1):
            column = self.mul(column, xs_arr)
            table[:, j] = column
        return table

    def batch_eval(
        self,
        coeffs: np.ndarray,
        xs: Sequence[int] | None = None,
        *,
        vandermonde: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate ``m`` polynomials at the same points in one pass.

        ``coeffs`` has shape ``(m, deg + 1)`` (low-degree first); the
        points come either from ``xs`` or from a precomputed
        :meth:`vandermonde` table.  Returns shape ``(m, num_points)``:
        ``out[r, i] = sum_j coeffs[r, j] * xs[i]^j``.
        """
        coeffs = np.asarray(coeffs, dtype=self.dtype)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be 2-D (one row per polynomial)")
        if vandermonde is None:
            if xs is None:
                raise ValueError("need either xs or a vandermonde table")
            vandermonde = self.vandermonde(xs, coeffs.shape[1] - 1)
        if vandermonde.shape[1] != coeffs.shape[1]:
            raise ValueError(
                f"vandermonde width {vandermonde.shape[1]} does not match "
                f"{coeffs.shape[1]} coefficients"
            )
        prof = get_profiler()
        if prof.enabled:
            work = coeffs.shape[0] * coeffs.shape[1] * vandermonde.shape[0]
            prof.observe("vec", "batch_eval", coeffs.shape[0])
            prof.count("fields", "mul", work)
            prof.count("fields", "add", work)
        out = np.zeros((coeffs.shape[0], vandermonde.shape[0]), dtype=self.dtype)
        for j in range(coeffs.shape[1]):
            out = self.add(
                out, self.mul(coeffs[:, j, None], vandermonde[None, :, j])
            )
        return out

    # -- interpolation ----------------------------------------------------
    def lagrange_at_zero(self, xs: Sequence[int]) -> np.ndarray:
        """Lagrange coefficients at 0 for the (distinct) points ``xs``.

        The coefficient set is tiny (one entry per party) and computed
        once per point set, so it reuses the scalar reference
        implementation; the batch work happens in
        :meth:`interpolate_at_zero_batch`.
        """
        return self.array(TABLES.lagrange_at_zero(self.field, xs))

    def interpolate_at_zero_batch(
        self,
        xs: Sequence[int],
        ys: np.ndarray,
        *,
        lagrange: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reconstruct ``m`` secrets from shares at common points.

        ``ys`` has shape ``(m, len(xs))``: row ``r`` holds the share
        values of secret ``r`` at the evaluation points ``xs`` (same
        order for every row).  Returns the length-``m`` array of
        interpolations at zero — the batched form of Shamir
        reconstruction.
        """
        ys = np.asarray(ys, dtype=self.dtype)
        if ys.ndim != 2:
            raise ValueError("ys must be 2-D (one row per secret)")
        if lagrange is None:
            lagrange = self.lagrange_at_zero(xs)
        if ys.shape[1] != lagrange.shape[0]:
            raise ValueError(
                f"rows of {ys.shape[1]} shares do not match "
                f"{lagrange.shape[0]} evaluation points"
            )
        prof = get_profiler()
        if prof.enabled:
            m, npoints = ys.shape
            prof.observe("vec", "interpolate_at_zero_batch", m)
            prof.count("fields", "mul", m * npoints)
            prof.count("fields", "add", m * max(0, npoints - 1))
        return self.reduce_sum(self.mul(ys, lagrange[None, :]), axis=1)

    def dot(self, coeffs: np.ndarray, values: np.ndarray) -> int:
        """Field dot product of two 1-D arrays (Lagrange recombination)."""
        prof = get_profiler()
        if prof.enabled:
            size = int(np.asarray(coeffs).shape[0])
            prof.count("vec", "dot")
            prof.count("fields", "mul", size)
            prof.count("fields", "add", max(0, size - 1))
        prod = self.mul(
            np.asarray(coeffs, dtype=self.dtype),
            np.asarray(values, dtype=self.dtype),
        )
        return int(self.reduce_sum(prod, axis=0))


class VectorGF2k(VectorBackend):
    """Array operations over a binary extension field.

    Two multiplication kernels coexist:

    - **table gathers**: a pair of log-table gathers plus one exp-table
      gather, available only when the field carries log/exp tables
      (``k <= GF2k.TABLE_MAX_K``), used for arrays smaller than the
      instance's ``table_free_min`` (:data:`DEFAULT_TABLE_FREE_MIN`);
    - **carryless shift-and-XOR**: bit-sliced over the ``k`` multiplier
      bits, then a modular fold of bits ``2k-2 .. k`` by the reduction
      polynomial — table-free, ``O(3k)`` streaming passes regardless of
      array size, exact for every ``k <= CARRYLESS_MAX_K``.

    Arrays hold raw encodings as ``uint32`` (``k <= 16``) or ``uint64``
    (``k <= 32``); carryless intermediates peak at bit ``2k - 2``, so
    both dtypes are overflow-safe.  Both kernels implement the same
    polynomial multiplication modulo the same irreducible, so crossing
    the threshold never changes a result (property-tested).
    """

    def __init__(self, field: GF2k) -> None:
        if field.k > CARRYLESS_MAX_K:
            raise ValueError(
                f"{field.short_name} exceeds the carryless kernel width "
                f"(k > {CARRYLESS_MAX_K}); no vectorized substrate"
            )
        self.field = field
        self.k = field.k
        self.modulus = field.modulus
        self.order = field.order
        self.dtype = np.uint32 if field.k <= 16 else np.uint64
        self._group = field.order - 1
        if field._exp is not None:
            self._exp: np.ndarray | None = np.asarray(
                field._exp, dtype=np.uint32
            )
            self._log: np.ndarray | None = np.asarray(
                field._log, dtype=np.uint32
            )
        else:
            self._exp = None
            self._log = None
        self.table_free_min = DEFAULT_TABLE_FREE_MIN

    # -- carryless kernel -------------------------------------------------
    def _fold(self, acc: np.ndarray) -> np.ndarray:
        """Reduce carryless products modulo the irreducible polynomial.

        Folds bits ``2k-2 .. k`` (highest first): whenever bit ``b`` is
        set, XOR in ``modulus << (b - k)``, whose top bit is exactly
        ``b`` (the modulus has degree ``k``).
        """
        dt = self.dtype
        k = self.k
        modulus = int(self.modulus)
        for bit in range(2 * k - 2, k - 1, -1):
            reducer = dt(modulus << (bit - k))
            acc = acc ^ reducer * ((acc >> dt(bit)) & dt(1))
        return acc

    def _clmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Carryless multiply of equal-shape arrays, reduced mod field."""
        prof = get_profiler()
        if prof.enabled:
            prof.observe("vec", "clmul", int(a.size))
        dt = self.dtype
        acc = np.zeros(a.shape, dtype=dt)
        for bit in range(self.k):
            acc ^= (a << dt(bit)) * ((b >> dt(bit)) & dt(1))
        return self._fold(acc)

    def _clmul_scalar(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Carryless multiply by one scalar (iterates its set bits only)."""
        prof = get_profiler()
        if prof.enabled:
            prof.observe("vec", "clmul", int(a.size))
        dt = self.dtype
        acc = np.zeros_like(a)
        s = int(scalar)
        bit = 0
        while s:
            if s & 1:
                acc = acc ^ (a << dt(bit))
            s >>= 1
            bit += 1
        return self._fold(acc)

    # -- arithmetic -------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field addition (XOR)."""
        return np.bitwise_xor(a, b)

    def neg(self, a: np.ndarray) -> np.ndarray:
        """Characteristic 2: negation is the identity."""
        return np.asarray(a, dtype=self.dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise multiplication: table gathers or carryless."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        a, b = np.broadcast_arrays(a, b)
        if self._exp is not None and a.size < self.table_free_min:
            assert self._log is not None
            out = np.zeros(a.shape, dtype=self.dtype)
            nz = (a != 0) & (b != 0)
            if nz.any():
                idx = self._log[a[nz]].astype(np.int64) + self._log[b[nz]]
                out[nz] = self._exp[idx]
            return out
        return self._clmul(a, b)

    def scale(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply an array by one scalar encoding."""
        if scalar == 0:
            return np.zeros_like(np.asarray(a, dtype=self.dtype))
        a = np.asarray(a, dtype=self.dtype)
        if self._exp is not None and a.size < self.table_free_min:
            assert self._log is not None
            out = np.zeros_like(a)
            nz = a != 0
            if nz.any():
                idx = self._log[a[nz]].astype(np.int64) + int(
                    self._log[scalar]
                )
                out[nz] = self._exp[idx]
            return out
        return self._clmul_scalar(a, scalar)

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Element-wise inversion; raises on zeros."""
        a = np.asarray(a, dtype=self.dtype)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero in vectorized field op")
        if self._exp is not None:
            assert self._log is not None
            return self._exp[self._group - self._log[a].astype(np.int64)]
        # Fermat: a^(2^k - 2) by carryless square-and-multiply.
        out = np.full_like(a, 1)
        base = a
        e = self.order - 2
        while e:
            if e & 1:
                out = self._clmul(out, base)
            base = self._clmul(base, base)
            e >>= 1
        return out

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along one axis (XOR reduction)."""
        return np.bitwise_xor.reduce(a, axis=axis)

    def reduceat(self, a: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-segment XOR sums."""
        return np.bitwise_xor.reduceat(a, indices)


class VectorPrimeField(VectorBackend):
    """Array operations over a word-sized prime field.

    Arrays hold raw encodings as ``uint64``; the prime must satisfy
    ``p < 2^31`` so products (and row sums of products) stay inside
    ``uint64`` without intermediate reduction.
    """

    #: Largest prime for which uint64 modular arithmetic cannot overflow.
    MAX_PRIME = 1 << 31

    dtype = np.uint64

    def __init__(self, field: PrimeField) -> None:
        if field.p >= self.MAX_PRIME:
            raise ValueError(
                f"{field.short_name} too large for uint64 vectorized "
                f"arithmetic (need p < 2^31)"
            )
        self.field = field
        self.order = field.order
        self._p = np.uint64(field.p)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        return (a + b) % self._p

    def neg(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        return (self._p - a) % self._p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        return (a * b) % self._p

    def inv(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64) % self._p
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero in vectorized field op")
        # Fermat: a^(p-2) by square-and-multiply on the whole array.
        out = np.ones_like(a)
        base = a
        e = self.field.p - 2
        while e:
            if e & 1:
                out = (out * base) % self._p
            base = (base * base) % self._p
            e >>= 1
        return out

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        return a.sum(axis=axis, dtype=np.uint64) % self._p

    def reduceat(self, a: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-segment modular sums (segments must fit uint64 headroom)."""
        a = np.asarray(a, dtype=np.uint64)
        return np.add.reduceat(a, indices) % self._p


def vector_backend(field: Field) -> VectorBackend:
    """The vectorized backend for ``field``.

    Raises ``ValueError`` when the field has no vectorized substrate
    (``GF(2^k)`` beyond the carryless kernel width, huge primes, exotic
    fields); callers treat that as "use the scalar reference path".
    """
    if isinstance(field, GF2k):
        return VectorGF2k(field)
    if isinstance(field, PrimeField):
        return VectorPrimeField(field)
    raise ValueError(
        f"no vectorized backend for {getattr(field, 'short_name', field)!r}"
    )


class TableCache:
    """Cross-epoch cache of Vandermonde / Lagrange-at-zero tables.

    Every protocol execution builds a fresh VSS session, but the tables
    only depend on ``(field, evaluation points, degree)`` — caching them
    process-wide means epoch 2 deals at full speed immediately.

    Keys embed the :class:`Field` *object* (its ``__hash__``/``__eq__``
    cover the concrete type and every defining parameter, e.g.
    ``(k, modulus)`` for ``GF2k``), never a name/order repr: two
    ``GF(2^4)`` instances over different irreducibles, or a
    ``PrimeField(19)`` next to a ``GF2k`` whose modulus encodes as 19,
    must not share entries (regression-tested).

    Entries are immutable once inserted (numpy tables are marked
    read-only) and lookups are lock-guarded, so concurrent sessions
    can share the cache; eviction is LRU with a
    generous bound — point sets are per-scheme, not per-execution.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def _get(self, key: tuple, build: Callable[[], Any]) -> Any:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return value
        value = build()
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def vandermonde(
        self, backend: VectorBackend, points: Sequence[int], degree: int
    ) -> np.ndarray:
        """Cached read-only Vandermonde table for one scheme geometry."""
        key = (
            backend.field,
            "vandermonde",
            tuple(int(p) for p in points),
            int(degree),
        )

        def build() -> np.ndarray:
            table = backend.vandermonde(list(points), degree)
            table.setflags(write=False)
            return table

        return self._get(key, build)

    def lagrange_at_zero(
        self, field: Field, xs: Sequence[int]
    ) -> list[int]:
        """Cached Lagrange-at-zero coefficients (raw encodings)."""
        key = (field, "lagrange0", tuple(int(x) for x in xs))

        def build() -> list[int]:
            from .polynomial import lagrange_coefficients

            return [
                c.value
                for c in lagrange_coefficients(
                    field, [int(x) for x in xs], 0
                )
            ]

        return self._get(key, build)


#: Process-wide table cache (see [concurrency] allowed_globals in
#: taint-spec.toml: entries are immutable after insertion, lookups are
#: lock-guarded, and a lost race only recomputes an equal value).
TABLES = TableCache()
