"""Closed forms the benchmark checks the program's outputs against.

Everything here is computed apart from ``paneitzlab``: the spectra come
from the lattice of a flat torus, from the product formula of the round
sphere and from the standard Paneitz operator on products of round spheres,
and the bound values from the statements of the bounds on manifolds whose
curvature is constant.  Only the standard library and numpy are used.

The operator is P f = Lap^2 f - div[(a_n R g + b_n Ric) grad f] + (n-4)/2 Q f
(Branson), with a_n = ((n-2)^2+4)/(2(n-1)(n-2)), b_n = -4/(n-2) and
Q = -2/(n-2)^2 |Ric|^2 + (n^3-4n^2+16n-16)/(8(n-1)^2(n-2)^2) R^2 on a
manifold of constant scalar curvature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with what the benchmark expects."""


def expect_close(got, want, tol: float, what: str, relative: bool = True) -> None:
    """Fail unless |got - want| <= tol (times max(1, |want|) when relative), elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != expected {want.shape}")
    scale = np.maximum(1.0, np.abs(want)) if relative else 1.0
    err = np.abs(got - want) / scale
    if not np.all(err <= tol):
        worst = int(np.argmax(err))
        raise CheckFailed(f"{what}: entry {worst} is {got.flat[worst]!r}, expected "
                          f"{want.flat[worst]!r} (error {err.flat[worst]:.3g} > {tol:g})")


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------

def flat_torus_values(radii, count: int) -> list[float]:
    """The `count` smallest eigenvalues |k|^4 of Lap^2 on the flat torus prod S^1(r_i).

    |k|^2 = sum k_i^2 / r_i^2 over integer vectors k; the search box grows
    until every lattice vector outside it lies above the count-th value.
    """
    inv = [1.0 / r**2 for r in radii]
    box = 1
    while True:
        axes = [range(-box, box + 1)] * len(radii)
        values = sorted(sum(k * k * w for k, w in zip(vec, inv)) ** 2
                        for vec in itertools.product(*axes))
        outside = ((box + 1) ** 2 * min(inv)) ** 2
        if len(values) >= count and values[count - 1] < outside:
            return values[:count]
        box += 1


def harmonic_multiplicity(p: int, j: int) -> int:
    """Dimension of the degree-j spherical harmonics on S^p."""
    return math.comb(j + p, p) - (math.comb(j + p - 2, p) if j >= 2 else 0)


def sphere_line(n: int, r: float, j: int) -> float:
    """lambda_j = (j+n/2+1)(j+n/2)(j+n/2-1)(j+n/2-2) / r^4 on the round S^n(r)."""
    h = j + n / 2.0
    return (h + 1) * h * (h - 1) * (h - 2) / r**4


def sphere_values(n: int, r: float, count: int) -> list[float]:
    """The `count` smallest eigenvalues of the round S^n(r), with multiplicity."""
    values: list[float] = []
    j = 0
    while len(values) < count:
        values.extend([sphere_line(n, r, j)] * harmonic_multiplicity(n, j))
        j += 1
    return values[:count]


@dataclass(frozen=True)
class ProductGeometry:
    """Constant curvature data of prod S^{p_i}(r_i) in its block immersion."""

    n: int
    mean_sq: float        # euclidean |H|^2
    scalar: float         # R
    ricci: tuple          # Ricci eigenvalue per factor
    q: float              # Q


def product_geometry(factors) -> ProductGeometry:
    n = sum(p for p, _ in factors)
    scalar = sum(p * (p - 1) / r**2 for p, r in factors)
    ricci = tuple((p - 1) / r**2 for p, r in factors)
    ric_sq = sum(p * rho**2 for (p, _), rho in zip(factors, ricci))
    q = (-2.0 / (n - 2) ** 2 * ric_sq
         + (n**3 - 4 * n**2 + 16 * n - 16) / (8.0 * (n - 1) ** 2 * (n - 2) ** 2) * scalar**2)
    mean_sq = sum(p * p / r**2 for p, r in factors) / n**2
    return ProductGeometry(n=n, mean_sq=mean_sq, scalar=scalar, ricci=ricci, q=q)


def product_values(factors, count: int) -> list[float]:
    """The `count` smallest eigenvalues of P on prod S^{p_i}(r_i), with multiplicity.

    On a product of factor harmonics with Laplace eigenvalues mu_i the
    operator acts by (sum mu_i)^2 + sum (a_n R + b_n rho_i) mu_i + (n-4)/2 Q.
    Degrees run up to `top` per factor; `top` grows until any tuple with a
    larger degree is certified to lie above the count-th value.
    """
    geo = product_geometry(factors)
    n = geo.n
    a = ((n - 2) ** 2 + 4) / (2.0 * (n - 1) * (n - 2))
    b = -4.0 / (n - 2)
    kappa = [a * geo.scalar + b * rho for rho in geo.ricci]
    zero = (n - 4) / 2.0 * geo.q
    neg = max(0.0, -min(kappa))
    top = 2
    while True:
        entries = []
        for degrees in itertools.product(range(top + 1), repeat=len(factors)):
            mus = [j * (j + p - 1) / r**2 for j, (p, r) in zip(degrees, factors)]
            value = sum(mus) ** 2 + sum(k * mu for k, mu in zip(kappa, mus)) + zero
            mult = math.prod(harmonic_multiplicity(p, j) for j, (p, _) in zip(degrees, factors))
            entries.append((value, mult))
        entries.sort()
        values: list[float] = []
        for value, mult in entries:
            values.extend([value] * mult)
            if len(values) >= count:
                break
        low = min((top + 1) * (top + p) / r**2 for p, r in factors)
        floor = low * low - neg * low + zero if low > neg / 2 else -math.inf
        if len(values) >= count and floor > values[count - 1]:
            return values[:count]
        top *= 2


# --------------------------------------------------------------------------
# bounds on constant-curvature products
# --------------------------------------------------------------------------

def bound_sides(bound_id: str, factors, values) -> tuple[float, float]:
    """(lhs, rhs) of one bound on prod S^{p_i}(r_i), from its spectrum `values`.

    `values` is the multiplicity-expanded spectrum, kernel included.  The
    ground state is the constant function wherever a gap bound applies here,
    so its Dirichlet energy vanishes.  For the unit-sphere corollaries the
    euclidean |H|^2 already equals the in-sphere |H|^2 plus one.
    """
    geo = product_geometry(factors)
    n, h = geo.n, geo.mean_sq
    lam = [0.0 if abs(v) <= 1e-9 * max(1.0, max(map(abs, values))) else v for v in values]
    if bound_id in ("thm_1_1", "cor_1_1"):
        lhs = sum(math.sqrt(v) for v in lam[1:5])
        return lhs, 4.0 * math.sqrt((16.0 * h + 2.0 * geo.scalar / 3.0) * h)
    if bound_id == "chenli_l1":
        return lam[1], (16.0 * h + 2.0 * geo.scalar / 3.0) * h
    if bound_id in ("thm_1_2", "cor_3_1"):
        lhs = sum(math.sqrt(v - lam[0]) for v in lam[1:n + 1])
        return lhs, math.sqrt(0.5 * n * (n * n - 4.0) * h * n * n * h)
    if bound_id == "chenli_l2":
        return lam[1], 0.5 * n * (n * n - 4.0) * h * h + (n - 4) / 2.0 * geo.q
    raise ValueError(f"no closed form here for {bound_id}")


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def torus_weights(radii, modes, points: int) -> np.ndarray:
    """Quadrature weights sqrt(det g) dx of a perturbed block torus on an m^n grid.

    The immersion is y(x) = sum_i r_i (cos x_i, sin x_i) in coordinates
    (2i, 2i+1), plus amp cos(k . x) for every (k, amp) in `modes`.  Axes are
    in 'ij' order, as the program lays out its grid fields.
    """
    n = len(radii)
    axis = 2.0 * math.pi * np.arange(points) / points
    x = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
    dy = np.zeros(x.shape[:-1] + (2 * n, n))
    for i, r in enumerate(radii):
        dy[..., 2 * i, i] = -r * np.sin(x[..., i])
        dy[..., 2 * i + 1, i] = r * np.cos(x[..., i])
    for k, amp in modes:
        phase = x @ np.asarray(k, dtype=float)
        dy += -np.sin(phase)[..., None, None] * np.multiply.outer(
            np.asarray(amp, dtype=float), np.asarray(k, dtype=float))
    g = np.einsum("...ai,...aj->...ij", dy, dy)
    return np.sqrt(np.linalg.det(g)) * (2.0 * math.pi / points) ** n


def flat_bilaplacian(u: np.ndarray, radii) -> np.ndarray:
    """Lap^2 of band-limited fields on the flat torus grid; Nyquist modes dropped.

    Applies to the trailing len(radii) axes of u.
    """
    n = len(radii)
    shape = u.shape[-n:]
    axes = tuple(range(-n, 0))
    k2 = np.zeros(shape)
    mask = np.ones(shape, dtype=bool)
    for i, (m, r) in enumerate(zip(shape, radii)):
        freq = np.fft.fftfreq(m, d=1.0 / m)
        view = [1] * n
        view[i] = m
        k2 = k2 + (freq**2 / r**2).reshape(view)
        mask &= (np.abs(freq) < m / 2.0).reshape(view)
    return np.fft.ifftn(np.fft.fftn(u, axes=axes) * (k2**2 * mask), axes=axes).real
