"""Dimension coefficients of the fourth-order conformal (Paneitz) operator.

Acting on a function f over an n-dimensional Riemannian manifold,

    P f = Lap^2 f - div[(a_n R g + b_n Ric) grad f] + (n-4)/2 * Q f

with the fourth-order curvature scalar

    Q = c_n |Ric|^2 + d_n R^2 - Lap(R) / (2(n-1)).

The four rationals

    a_n = ((n-2)^2 + 4) / (2(n-1)(n-2))
    b_n = -4 / (n-2)
    c_n = -2 / (n-2)^2
    d_n = (n^3 - 4n^2 + 16n - 16) / (8(n-1)^2(n-2)^2)

are kept exact as `fractions.Fraction` so the defining identities can be
asserted with integer arithmetic.  At n = 4 they collapse to the classical
form P = Lap^2 - div[(2/3 R g - 2 Ric) grad], and Q on the unit n-sphere
evaluates to n(n^2-4)/8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvalidDimensionError


@dataclass(frozen=True)
class DimensionCoefficients:
    """Exact operator coefficients for one dimension n >= 3."""

    n: int
    a: Fraction  # scalar-curvature weight inside the gradient term
    b: Fraction  # Ricci weight inside the gradient term
    c: Fraction  # |Ric|^2 weight inside Q
    d: Fraction  # R^2 weight inside Q
    q_factor: Fraction  # (n-4)/2, the zero-order coupling to Q

    @cached_property
    def trace_coefficient(self) -> Fraction:
        """n*a_n + b_n = (n^2-2n-4)/(2(n-1)), the g-trace of (a_n R g + b_n Ric)/R."""
        return self.n * self.a + self.b


@lru_cache(maxsize=None, typed=True)   # typed: 4.0 must not hit the entry for 4
def paneitz_coefficients(n: int) -> DimensionCoefficients:
    """Exact coefficients (a_n, b_n, c_n, d_n, (n-4)/2) for dimension n.

    Raises
    ------
    InvalidDimensionError
        If n < 3 (the rationals are singular at n = 2 and below).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidDimensionError(f"dimension must be an integer, got {n!r}")
    if n < 3:
        raise InvalidDimensionError(f"operator coefficients require n >= 3, got n = {n}")
    return DimensionCoefficients(
        n=n,
        a=Fraction((n - 2) ** 2 + 4, 2 * (n - 1) * (n - 2)),
        b=Fraction(-4, n - 2),
        c=Fraction(-2, (n - 2) ** 2),
        d=Fraction(n**3 - 4 * n**2 + 16 * n - 16, 8 * (n - 1) ** 2 * (n - 2) ** 2),
        q_factor=Fraction(n - 4, 2),
    )


def q_curvature(coeffs: DimensionCoefficients, ric_norm_sq: float, scalar: float,
                laplace_scalar: float = 0.0) -> float:
    """Q = c_n |Ric|^2 + d_n R^2 - Lap(R)/(2(n-1)) from pointwise curvature data.

    `ric_norm_sq` is |Ric|^2 = g^{ik} g^{jl} Ric_ij Ric_kl, `scalar` is R and
    `laplace_scalar` the Laplace-Beltrami of R (zero on homogeneous spaces).
    Works elementwise on numpy arrays as well as on floats.
    """
    n = coeffs.n
    return (
        float(coeffs.c) * ric_norm_sq
        + float(coeffs.d) * scalar**2
        - laplace_scalar / (2.0 * (n - 1))
    )
