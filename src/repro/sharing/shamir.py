"""Shamir secret sharing over an arbitrary finite field.

The (n, t) scheme hides a secret at ``f(0)`` of a random degree-``t``
polynomial and hands party ``P_i`` the evaluation ``f(alpha_i)``.  Any
``t + 1`` shares reconstruct; any ``t`` reveal nothing.  Linearity —
shares of a (public) linear combination of secrets are the same linear
combination of the shares — is what the paper's step 4 relies on to sum
the dart vectors "for free".

Two execution paths coexist: the scalar reference path (``share``,
``reconstruct``; plain Python field arithmetic, the implementation the
tests treat as ground truth) and a batched path
(:meth:`ShamirScheme.share_vector_batched`,
:meth:`ShamirScheme.reconstruct_batch`) that deals and opens whole
arrays of secrets through the numpy kernels of
:mod:`repro.fields.vectorized`.  The batched path evaluates through
those kernels iff the field has a vectorized substrate, and through
pure-Python loops otherwise.  It consumes the dealing ``rng`` in
exactly the same order as the scalar path, so for a fixed seed both
produce identical shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.fields import (
    Field,
    FieldElement,
    Polynomial,
    interpolate_at,
    lagrange_coefficients,
)
from repro.obs.profiler import get_profiler


@dataclass(frozen=True)
class Share:
    """One party's Shamir share: the point ``(x, y)`` on the polynomial."""

    x: FieldElement
    y: FieldElement

    def __add__(self, other: "Share") -> "Share":
        if self.x != other.x:
            raise ValueError("cannot add shares at different evaluation points")
        return Share(self.x, self.y + other.y)

    def scale(self, scalar: FieldElement) -> "Share":
        """The share of ``scalar * secret``."""
        return Share(self.x, self.y * scalar)


class ShamirScheme:
    """An (n, t) Shamir sharing scheme with evaluation points 1..n.

    Parameters
    ----------
    field:
        Field with ``order > n`` (needed for n distinct non-zero points).
    n:
        Number of parties.
    t:
        Degree of the sharing polynomial; any ``t`` shares are
        independent of the secret, ``t + 1`` reconstruct it.

    The batched methods use the numpy kernels iff
    :func:`repro.fields.vectorized.vector_backend` accepts ``field``
    (resolved once, here), and the pure-Python loops otherwise.
    """

    def __init__(self, field: Field, n: int, t: int):
        if n < 1:
            raise ValueError(f"need at least one party, got n={n}")
        if not 0 <= t < n:
            raise ValueError(f"threshold t={t} must satisfy 0 <= t < n={n}")
        if field.order <= n:
            raise ValueError(
                f"field of order {field.order} too small for n={n} parties"
            )
        self.field = field
        self.n = n
        self.t = t
        self.points = [field(i) for i in range(1, n + 1)]
        self._recon_coeffs_full = lagrange_coefficients(field, self.points, 0)
        self._coeff_by_x = {
            point.value: coeff.value
            for point, coeff in zip(self.points, self._recon_coeffs_full)
        }
        self._vandermonde = None
        self._lagrange_cache: dict[tuple[int, ...], list[int]] = {}
        # Looked up through the module so tests can substitute it.
        from repro.fields import vectorized

        try:
            self._vector = vectorized.vector_backend(field)
        except ValueError:
            self._vector = None  # no substrate: the pure-Python loops

    # -- dealing ---------------------------------------------------------
    def share(
        self, secret: FieldElement, rng: random.Random
    ) -> list[Share]:
        """Deal shares of ``secret`` to all n parties."""
        poly = Polynomial.random(self.field, self.t, rng, constant=secret)
        return [Share(x, poly(x)) for x in self.points]

    def share_with_polynomial(
        self, secret: FieldElement, rng: random.Random
    ) -> tuple[list[Share], Polynomial]:
        """Deal shares and also return the sharing polynomial (dealer view)."""
        poly = Polynomial.random(self.field, self.t, rng, constant=secret)
        return [Share(x, poly(x)) for x in self.points], poly

    def share_vector(
        self, secrets: Sequence[FieldElement], rng: random.Random
    ) -> list[list[Share]]:
        """Deal many secrets in parallel: result[k][i] is P_i's k-th share.

        Dispatches to :meth:`share_vector_batched`, which produces
        shares identical to dealing each secret with :meth:`share` on
        the same rng stream (and falls back to exactly that loop when
        no vector backend is available).
        """
        return self.share_vector_batched(secrets, rng)

    def share_matrix(
        self, secrets: Sequence[int], rng: random.Random
    ) -> "list[list[int]]":
        """Raw batched dealing: row ``k`` holds secret ``k``'s n share values.

        Operates on raw encodings (no ``Share`` wrappers) — this is the
        form the VSS hot path consumes.  The rng stream is consumed
        exactly as by :meth:`share`: ``t + 1`` draws per secret, the
        first overwritten by the secret.
        """
        order = self.field.order
        randrange = rng.randrange
        coeff_rows = []
        for secret in secrets:
            coeffs = [randrange(order) for _ in range(self.t + 1)]
            coeffs[0] = secret
            coeff_rows.append(coeffs)
        prof = get_profiler()
        if prof.enabled:
            prof.count("shamir", "deal", len(coeff_rows))
            prof.observe("shamir", "deal_batch", len(coeff_rows))
        return self.evaluate_matrix(coeff_rows)

    def evaluate_matrix(
        self, coeff_rows: Sequence[Sequence[int]]
    ) -> "list[list[int]]":
        """Evaluate coefficient rows at all n party points (batched)."""
        if not coeff_rows:
            return []
        vec = self._vector
        prof = get_profiler()
        if vec is None:
            if prof.enabled:
                # field.add/field.mul below route through the per-op
                # instrumented field methods, so fields/* is not counted
                # here — only the fallback marker is.
                prof.count("shamir", "eval_scalar_fallback", len(coeff_rows))
            field = self.field
            add, mul = field.add, field.mul
            xs = [p.value for p in self.points]
            table = []
            for coeffs in coeff_rows:
                row = []
                for x in xs:
                    acc = 0
                    for c in reversed(coeffs):  # Horner
                        acc = add(mul(acc, x), c)
                    row.append(acc)
                table.append(row)
            return table
        import numpy as np

        if prof.enabled:
            prof.count("shamir", "batch_eval", len(coeff_rows))
        if self._vandermonde is None:
            from repro.fields.vectorized import TABLES

            self._vandermonde = TABLES.vandermonde(
                vec, [p.value for p in self.points], self.t
            )
        out = vec.batch_eval(
            np.asarray(coeff_rows, dtype=vec.dtype),
            vandermonde=self._vandermonde,
        )
        return out.tolist()

    def share_vector_batched(
        self, secrets: Sequence[FieldElement], rng: random.Random
    ) -> list[list[Share]]:
        """Batched :meth:`share_vector`: same API, same outputs.

        All sharing polynomials are evaluated at all party points in a
        handful of numpy operations (one Vandermonde accumulation)
        instead of a Python loop per secret.
        """
        field = self.field
        table = self.share_matrix([s.value for s in secrets], rng)
        points = self.points
        return [
            [
                Share(x, FieldElement(field, int(v)))
                for x, v in zip(points, row)
            ]
            for row in table
        ]

    # -- reconstruction ----------------------------------------------------
    def _distinct_shares(self, shares: Sequence[Share]) -> list[Share]:
        """Validate and deduplicate shares by evaluation point.

        Duplicate points carrying the same value collapse to one share;
        conflicting values for one point are a malformed share list and
        raise ``ValueError`` (previously this surfaced as a deep
        ``interpolate_at`` error, or passed silently).
        """
        by_x: dict[int, int] = {}
        unique: list[Share] = []
        for share in shares:
            xv = share.x.value
            prev = by_x.get(xv)
            if prev is None:
                by_x[xv] = share.y.value
                unique.append(share)
            elif prev != share.y.value:
                raise ValueError(
                    f"conflicting shares at evaluation point {share.x!r}"
                )
        return unique

    def reconstruct(self, shares: Sequence[Share]) -> FieldElement:
        """Interpolate the secret from ``>= t + 1`` shares.

        Shares are deduplicated by evaluation point first (conflicting
        duplicates raise ``ValueError``); beyond that they are taken at
        face value.  Use
        :func:`repro.sharing.reedsolomon.berlekamp_welch` (via
        :meth:`reconstruct_robust` of the VSS layer) when some shares
        may be corrupted.
        """
        unique = self._distinct_shares(shares)
        if len(unique) < self.t + 1:
            raise ValueError(
                f"need at least {self.t + 1} shares at distinct points, "
                f"got {len(unique)} (from {len(shares)} shares)"
            )
        pts = [(s.x, s.y) for s in unique[: self.t + 1]]
        return interpolate_at(self.field, pts, 0)

    def reconstruct_all(self, shares: Sequence[Share]) -> FieldElement:
        """Reconstruct from all n shares using cached coefficients.

        Shares may arrive in any order: each is matched to its cached
        Lagrange coefficient by evaluation point.  Shares at unexpected
        or repeated points raise ``ValueError`` (previously a permuted
        share list silently reconstructed the wrong secret).
        """
        if len(shares) != self.n:
            raise ValueError(f"expected {self.n} shares, got {len(shares)}")
        f = self.field
        coeff_by_x = self._coeff_by_x
        seen = set()
        acc = 0
        for share in shares:
            xv = share.x.value
            coeff = coeff_by_x.get(xv)
            if coeff is None:
                raise ValueError(
                    f"share at unexpected evaluation point {share.x!r}"
                )
            if xv in seen:
                raise ValueError(
                    f"duplicate share for evaluation point {share.x!r}"
                )
            seen.add(xv)
            acc = f.add(acc, f.mul(coeff, share.y.value))
        return FieldElement(f, acc)

    def _lagrange_at_zero(self, xs: tuple[int, ...]) -> list[int]:
        """Cached Lagrange-at-zero coefficients for one point set."""
        coeffs = self._lagrange_cache.get(xs)
        if coeffs is None:
            from repro.fields.vectorized import TABLES

            coeffs = TABLES.lagrange_at_zero(self.field, xs)
            self._lagrange_cache[xs] = coeffs
        return coeffs

    def reconstruct_matrix(
        self, rows: Sequence[Sequence[int]], xs: Sequence[int]
    ) -> "list[int]":
        """Raw batched reconstruction: one secret per row of share values.

        ``rows[k][i]`` is the share value at evaluation point ``xs[i]``
        (the same, distinct, ``>= t + 1`` points for every row).  The
        Lagrange coefficients are computed once and all rows are
        recombined in one vectorized dot product — this is the form the
        VSS hot path consumes (no ``Share`` wrappers).
        """
        xs = tuple(xs)
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate evaluation points in share rows")
        if len(xs) < self.t + 1:
            raise ValueError(
                f"need at least {self.t + 1} shares per row, got {len(xs)}"
            )
        coeffs = self._lagrange_at_zero(xs)
        vec = self._vector
        prof = get_profiler()
        if vec is None:
            if prof.enabled:
                prof.count("shamir", "reconstruct_scalar_fallback", len(rows))
            add, mul = self.field.add, self.field.mul
            results = []
            for row in rows:
                acc = 0
                for c, y in zip(coeffs, row):
                    acc = add(acc, mul(c, y))
                results.append(acc)
            return results
        import numpy as np

        if prof.enabled:
            prof.count("shamir", "reconstruct_batch", len(rows))
        ys = np.asarray(rows, dtype=vec.dtype)
        out = vec.interpolate_at_zero_batch(xs, ys, lagrange=vec.array(coeffs))
        return out.tolist()

    def reconstruct_batch(
        self, share_rows: Sequence[Sequence[Share]]
    ) -> list[FieldElement]:
        """Reconstruct many sharings at once (batched interpolation).

        Every row must hold shares at the *same* evaluation points in
        the same order (any ordering, at least ``t + 1`` distinct
        points); the Lagrange coefficients are computed once and all
        rows are recombined in one vectorized dot product.  Agrees
        exactly with per-row :meth:`reconstruct` /
        :meth:`reconstruct_all`.
        """
        if not share_rows:
            return []
        xs = tuple(s.x.value for s in share_rows[0])
        for row in share_rows[1:]:
            if tuple(s.x.value for s in row) != xs:
                raise ValueError(
                    "all rows must hold shares at the same evaluation "
                    "points in the same order"
                )
        field = self.field
        values = self.reconstruct_matrix(
            [[s.y.value for s in row] for row in share_rows], xs
        )
        return [FieldElement(field, int(v)) for v in values]

    def consistent(self, shares: Sequence[Share]) -> bool:
        """True iff the given shares all lie on one degree <= t polynomial.

        Shares are deduplicated by evaluation point first; conflicting
        duplicates raise ``ValueError`` (previously they could slip
        through the ``len(shares) <= t + 1`` early return unnoticed).
        """
        unique = self._distinct_shares(shares)
        if len(unique) <= self.t + 1:
            return True
        pts = [(s.x, s.y) for s in unique[: self.t + 1]]
        for share in unique[self.t + 1 :]:
            if interpolate_at(self.field, pts, share.x) != share.y:
                return False
        return True

    # -- linearity ----------------------------------------------------------
    @staticmethod
    def add_shares(a: Sequence[Share], b: Sequence[Share]) -> list[Share]:
        """Component-wise sum: shares of ``secret_a + secret_b``."""
        return [sa + sb for sa, sb in zip(a, b)]

    @staticmethod
    def scale_shares(shares: Sequence[Share], scalar: FieldElement) -> list[Share]:
        """Shares of ``scalar * secret``."""
        return [s.scale(scalar) for s in shares]

    def linear_combination(
        self,
        share_rows: Sequence[Sequence[Share]],
        coefficients: Sequence[FieldElement],
    ) -> list[Share]:
        """Shares of ``sum_k coefficients[k] * secret_k``.

        ``share_rows[k]`` must hold all n parties' shares of secret k.
        """
        if len(share_rows) != len(coefficients):
            raise ValueError("one coefficient per share row required")
        f = self.field
        acc = [0] * self.n
        for row, coeff in zip(share_rows, coefficients):
            cv = coeff.value
            for i, share in enumerate(row):
                acc[i] = f.add(acc[i], f.mul(cv, share.y.value))
        return [
            Share(x, FieldElement(f, v)) for x, v in zip(self.points, acc)
        ]
