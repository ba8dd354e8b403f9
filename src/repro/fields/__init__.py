"""Finite-field arithmetic for the anonymous-channel protocol stack.

The paper computes over ``F = GF(2^kappa)`` (:class:`GF2k`); prime
fields (:class:`PrimeField`) are provided as an alternative substrate.
"""

from .base import Field, FieldElement
from .gf2k import GF2k, gf2k
from .irreducible import (
    gf2_degree,
    gf2_divmod,
    gf2_gcd,
    gf2_mod,
    gf2_mul,
    gf2_mulmod,
    gf2_powmod,
    irreducible_polynomial,
    is_irreducible,
    poly_to_string,
)
from .polynomial import (
    Polynomial,
    interpolate_at,
    lagrange_coefficients,
    lagrange_interpolate,
)
from .primefield import PrimeField, is_prime, next_prime

__all__ = [
    "Field",
    "FieldElement",
    "GF2k",
    "gf2k",
    "PrimeField",
    "is_prime",
    "next_prime",
    "Polynomial",
    "lagrange_interpolate",
    "interpolate_at",
    "lagrange_coefficients",
    "irreducible_polynomial",
    "is_irreducible",
    "poly_to_string",
    "gf2_mul",
    "gf2_mod",
    "gf2_mulmod",
    "gf2_powmod",
    "gf2_divmod",
    "gf2_gcd",
    "gf2_degree",
]
