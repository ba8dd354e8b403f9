"""Parameter selection for protocol AnonChan.

The proof of Theorem 1 (via Claim 2) chooses, for error parameter
``kappa >= 2n``::

    C = 1 / (4 n^2),    d = n^4 kappa,    l = 4 n^6 kappa

so that ``n^2 (d^2/l + C d) = d/2`` (fewer than d/2 total collisions
w.h.p.) and ``C^2 d = kappa/16`` (the tail is ``2^-Omega(kappa)``).
These formulas are provided verbatim by :func:`paper_parameters`.

They are asymptotic: already for n = 5, kappa = 10 they give l =
625,000 coordinate pairs, each VSS-shared ~kappa times — far beyond
in-process simulation (and never executed by the authors either; the
paper has no implementation).  :func:`scaled_parameters` solves the
same two structural constraints at laptop scale:

- **collision budget** — the expected number of collisions hitting any
  one honest sender's d darts is at most ``(n-1) d^2 / l``; we require
  a margin factor so at least d/2 darts survive w.h.p. (this is the
  per-party specialization of Claim 2's total-collision budget), and
- **cut-and-choose soundness** — ``num_checks`` challenge bits give a
  cheater survival probability of ``2^-num_checks`` (Claim 1).

Every experiment reports which parameterization it ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import GF2k, gf2k


@dataclass(frozen=True)
class AnonChanParams:
    """Concrete parameters of one AnonChan instance.

    Attributes
    ----------
    n:
        Number of parties.
    t:
        Corruption bound, ``t < n/2``.
    kappa:
        Field degree: computations happen in ``GF(2^kappa)``; tags are
        ``kappa``-bit.  The paper requires ``kappa >= 2n`` (so the
        challenge has enough bits and tag collisions are negligible).
    ell:
        Dart-vector length (paper: ``4 n^6 kappa``).
    d:
        Sparseness — number of darts per sender (paper: ``n^4 kappa``).
    num_checks:
        Number of re-randomized copies ``w_j`` per prover == number of
        challenge bits consumed (paper: ``kappa``).

    Which kernels evaluate the field arithmetic is not a parameter: the
    sharing/VSS layer uses the numpy kernels iff ``GF(2^kappa)`` has a
    vectorized substrate (``kappa <= 32``) and the pure-Python path
    otherwise, with identical protocol behavior (asserted by tests).
    """

    n: int
    t: int
    kappa: int
    ell: int
    d: int
    num_checks: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two parties")
        if self.t < 0 or 2 * self.t >= self.n:
            raise ValueError(f"require t < n/2, got n={self.n}, t={self.t}")
        if not 0 < self.d <= self.ell:
            raise ValueError(f"require 0 < d <= ell, got d={self.d}, ell={self.ell}")
        if self.num_checks < 1:
            raise ValueError("need at least one cut-and-choose check")
        if self.kappa < self.num_checks:
            raise ValueError(
                "challenge needs kappa >= num_checks bits "
                f"(kappa={self.kappa}, num_checks={self.num_checks})"
            )
        if (1 << self.kappa) <= max(self.n, self.ell):
            raise ValueError("field too small for party count / vector length")

    @property
    def field(self) -> GF2k:
        """The protocol field ``GF(2^kappa)``."""
        return gf2k(self.kappa)

    @property
    def threshold_count(self) -> int:
        """Minimum occurrences for a pair to enter T: ``ceil(d/2)``."""
        return (self.d + 1) // 2

    @property
    def values_per_dealer(self) -> int:
        """VSS sharings per dealer (coordinates count x- and tag-halves)."""
        return 2 * self.ell + self.num_checks * (3 * self.ell + self.d) + 1

    @property
    def values_receiver(self) -> int:
        """Extra VSS sharings by the receiver (its n permutations)."""
        return self.n * self.ell

    def meets_paper_constraints(self) -> bool:
        """Whether Claim 2's *total*-collision constraint holds.

        Checks ``n^2 (d^2/l + C d) <= d/2`` with the paper's
        ``C = 1/(4 n^2)``; the scaled parameters intentionally satisfy
        only the per-party collision budget, so they return ``False``.
        """
        c = 1.0 / (4 * self.n**2)
        return self.n**2 * (self.d**2 / self.ell + c * self.d) <= self.d / 2

    def expected_collisions_per_party(self) -> float:
        """E[darts of one sender hit by any other sender]: (n-1) d^2 / l."""
        return (self.n - 1) * self.d**2 / self.ell

    def cheater_survival_bound(self) -> float:
        """Claim 1 bound: an improper vector survives w.p. 2^-num_checks."""
        return 2.0 ** (-self.num_checks)


def paper_parameters(
    n: int,
    t: int | None = None,
    kappa: int | None = None,
) -> AnonChanParams:
    """The exact parameters from the proof of Theorem 1.

    ``kappa`` defaults to the paper's minimum ``2n``, *raised if needed*
    so that ``2^kappa > l``: the protocol shares permutations and index
    lists over ``[l]`` as field elements, which the paper's minimal
    ``kappa = 2n`` cannot encode for small ``n`` (``l = 4 n^6 kappa``
    exceeds ``2^{2n}`` up to ``n ~ 24``).  This only ever *increases*
    the error parameter, so every stated guarantee still holds.
    ``t`` defaults to the maximum tolerable ``ceil(n/2) - 1``.
    """
    if t is None:
        t = (n - 1) // 2
    if kappa is None:
        kappa = 2 * n
        while (1 << kappa) <= 4 * n**6 * kappa:
            kappa += 1
    return AnonChanParams(
        n=n,
        t=t,
        kappa=kappa,
        ell=4 * n**6 * kappa,
        d=n**4 * kappa,
        num_checks=kappa,
    )


def scaled_parameters(
    n: int,
    t: int | None = None,
    d: int = 8,
    num_checks: int = 6,
    kappa: int = 16,
    margin: int = 8,
) -> AnonChanParams:
    """Laptop-scale parameters preserving the guarantees' structure.

    ``l`` is chosen as ``margin * (n-1) * d`` so the expected number of
    collisions hitting one sender's darts is ``d / margin`` — far below
    the ``d/2`` budget — mirroring the paper's choice which makes the
    same expectation ``d/(4 n^2) + (small)``.
    """
    if t is None:
        t = (n - 1) // 2
    ell = max(margin * max(n - 1, 1) * d, d + 1)
    return AnonChanParams(
        n=n,
        t=t,
        kappa=kappa,
        ell=ell,
        d=d,
        num_checks=num_checks,
    )


def reliability_failure_bound(params: AnonChanParams) -> float:
    """Union-style upper bound on the reliability error.

    Sums (a) the per-party probability that more than d/2 darts are hit,
    bounded by the hypergeometric tail of Claim 2 applied per party, and
    (b) tag-collision probability ``n^2 / 2^kappa``.
    """
    from repro.analysis.hypergeometric import collision_tail_bound

    per_party = collision_tail_bound(
        n=params.n, d=params.d, ell=params.ell, budget=params.d / 2
    )
    tag_collisions = params.n**2 / (2**params.kappa)
    return min(1.0, params.n * per_party + tag_collisions)
