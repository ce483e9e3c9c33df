"""Periodic grids, band-limited calculus, and finite Fourier immersions.

Parameter convention: every gridded manifold is a map from the standard
torus [0, 2pi)^n; radii and shape live in the immersion, the induced metric
handles the rest.  Wavenumbers are integers.

The discretization below never differentiates through an even grid's Nyquist
mode.  Products of fields and derivatives are formed on a finer grid (3m/2
per axis) reached by the zero-pad operator P and left by its exact adjoint T:

    <P u, v>_fine * dxf  ==  <u, T v>_coarse * dxc

for the plain uniform measures, because both restrict to the same band of
Fourier coefficients (all |k| < m/2; the coarse Nyquist line is outside the
band and is annihilated).  T P = band projection.  Everything downstream
(discrete.py) leans on that identity for exact symmetry of assembled
operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .geometry import ImmersionJet


class TorusGrid:
    """Uniform tensor grid on [0, 2pi)^n with per-axis even or odd size."""

    def __init__(self, shape):
        shape = tuple(int(m) for m in shape)
        if not shape:
            raise InvalidDimensionError("grid needs at least one axis")
        if any(m < 8 for m in shape):
            raise ValueError(f"grid too coarse: {shape} (need >= 8 points per axis)")
        self.shape = shape
        self.n = len(shape)
        self.size = math.prod(shape)
        #: cell volume of the parameter torus
        self.dx = (2.0 * math.pi) ** self.n / self.size
        self.axes = [np.arange(m) * (2.0 * math.pi / m) for m in shape]
        #: integer wavenumbers per axis in FFT layout
        self.freqs = [np.fft.fftfreq(m, d=1.0 / m) for m in shape]

    def points(self) -> np.ndarray:
        """All grid points, shape (*shape, n)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def band_mask(self, axis: int) -> np.ndarray:
        """True on modes strictly inside the axis band |k| < m/2.

        For even m this drops exactly the Nyquist frequency -m/2; odd grids
        have no Nyquist and keep everything.
        """
        m = self.shape[axis]
        return np.abs(self.freqs[axis]) < m / 2.0

    def full_band_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(self.n):
            shape1 = [1] * self.n
            shape1[ax] = self.shape[ax]
            mask &= self.band_mask(ax).reshape(shape1)
        return mask

    def fine(self, factor: float = 1.5) -> "TorusGrid":
        """The dealiasing companion grid (3m/2 per axis by default)."""
        out = []
        for m in self.shape:
            mf = int(round(m * factor))
            if mf < m - 1:
                raise ValueError("fine grid cannot hold the coarse band")
            out.append(mf)
        return TorusGrid(out)


def _band_indices(m: int, mf: int):
    """Positions of the size-m band's modes in FFT layouts of size m and mf."""
    half = (m - 1) // 2
    pos = np.arange(0, half + 1)
    neg = np.arange(-half, 0)
    return np.concatenate([pos, m + neg]), np.concatenate([pos, mf + neg])


def pad(u: np.ndarray, coarse: TorusGrid, fine: TorusGrid) -> np.ndarray:
    """Zero-pad a coarse-grid field to the fine grid (trigonometric upsampling)."""
    uc = np.fft.fftn(u, axes=range(-coarse.n, 0))
    idx = [_band_indices(m, mf) for m, mf in zip(coarse.shape, fine.shape)]
    out_shape = u.shape[: u.ndim - coarse.n] + fine.shape
    uf = np.zeros(out_shape, dtype=complex)
    lead = (slice(None),) * (u.ndim - coarse.n)
    uf[lead + np.ix_(*(f for _c, f in idx))] = uc[lead + np.ix_(*(c for c, _f in idx))]
    uf *= fine.size / coarse.size
    return np.fft.ifftn(uf, axes=range(-coarse.n, 0)).real


def truncate(v: np.ndarray, coarse: TorusGrid, fine: TorusGrid) -> np.ndarray:
    """Adjoint of `pad`: restrict a fine-grid field to the coarse band.

    The coarse Nyquist modes come back exactly zero, so truncate(pad(u))
    is the band projection of u.
    """
    vf = np.fft.fftn(v, axes=range(-fine.n, 0))
    idx = [_band_indices(m, mf) for m, mf in zip(coarse.shape, fine.shape)]
    out_shape = v.shape[: v.ndim - fine.n] + coarse.shape
    uc = np.zeros(out_shape, dtype=complex)
    lead = (slice(None),) * (v.ndim - fine.n)
    uc[lead + np.ix_(*(c for c, _f in idx))] = vf[lead + np.ix_(*(f for _c, f in idx))]
    uc *= coarse.size / fine.size
    return np.fft.ifftn(uc, axes=range(-coarse.n, 0)).real


def band_project(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Project onto the band |k| < m/2 per axis (identity on odd grids)."""
    uc = np.fft.fftn(u, axes=range(-grid.n, 0))
    uc *= grid.full_band_mask()
    return np.fft.ifftn(uc, axes=range(-grid.n, 0)).real

def spectral_derivative(u: np.ndarray, axis: int, grid: TorusGrid) -> np.ndarray:
    """d/dx along one torus axis; even-grid Nyquist modes are annihilated.

    Zeroing Nyquist keeps the operator real and antisymmetric, which the
    summation-by-parts argument in discrete.py needs.
    """
    fft_axis = u.ndim - grid.n + axis
    uc = np.fft.fft(u, axis=fft_axis)
    k = grid.freqs[axis] * grid.band_mask(axis)
    shape1 = [1] * u.ndim
    shape1[fft_axis] = grid.shape[axis]
    uc *= (1j * k).reshape(shape1)
    return np.fft.ifft(uc, axis=fft_axis).real


# --------------------------------------------------------------------------
# immersions with finitely many Fourier modes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierTerm:
    """One mode: y += cos(k.x) * cos_coeff + sin(k.x) * sin_coeff."""

    k: tuple[int, ...]
    cos: tuple[float, ...]
    sin: tuple[float, ...]

    def __post_init__(self):
        if len(self.cos) != len(self.sin):
            raise ValueError("cos and sin coefficient vectors must have equal length")
        if not all(isinstance(int(ki), int) and float(ki) == int(ki) for ki in self.k):
            raise ValueError(f"wavenumbers must be integers, got {self.k!r}")


class FourierImmersion:
    """An immersion of the n-torus whose coordinates are finite Fourier sums.

    The 2-jet is evaluated exactly (trig derivatives), so sampled metric and
    curvature fields carry no discretization error of their own; the only
    approximation anywhere downstream is the band limit on eigenfunctions.
    """

    def __init__(self, n: int, terms):
        self.n = int(n)
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("immersion needs at least one Fourier term")
        widths = {len(t.cos) for t in self.terms}
        if len(widths) != 1:
            raise ValueError(f"inconsistent ambient dimensions across terms: {sorted(widths)}")
        self.ambient_dim = widths.pop()
        for t in self.terms:
            if len(t.k) != self.n:
                raise ValueError(f"term wavenumber {t.k} does not match n = {self.n}")

    def jet(self, points: np.ndarray) -> ImmersionJet:
        """Exact 2-jet at parameter points of shape (..., n)."""
        points = np.asarray(points, dtype=float)
        base = points.shape[:-1]
        y = np.zeros(base + (self.ambient_dim,))
        dy = np.zeros(base + (self.ambient_dim, self.n))
        d2y = np.zeros(base + (self.ambient_dim, self.n, self.n))
        for t in self.terms:
            k = np.array(t.k, dtype=float)
            c = np.array(t.cos, dtype=float)
            s = np.array(t.sin, dtype=float)
            phase = points @ k
            cos, sin = np.cos(phase), np.sin(phase)
            y += cos[..., None] * c + sin[..., None] * s
            grad = (-sin[..., None] * c + cos[..., None] * s)[..., None] * k
            dy += grad
            hess = (-cos[..., None] * c - sin[..., None] * s)[..., None, None] * np.multiply.outer(k, k)
            d2y += hess
        return ImmersionJet(y=y, dy=dy, d2y=d2y)

    def sphere_deviation(self, grid: TorusGrid) -> float:
        """max | |y|^2 - 1 | over the grid; ~0 means the image lies on S^{N-1}(1)."""
        return unit_sphere_deviation(self.jet(grid.points()).y)

    def perturbed(self, terms) -> "FourierImmersion":
        """A new immersion with extra modes added on top of this one."""
        return FourierImmersion(self.n, self.terms + tuple(terms))


def unit_sphere_deviation(y: np.ndarray) -> float:
    """max | |y|^2 - 1 | over sampled ambient points y (..., N)."""
    return float(np.max(np.abs(np.sum(y * y, axis=-1) - 1.0)))


def clifford_torus(radii) -> FourierImmersion:
    """Product of circles, one cos/sin pair per axis: the block torus in R^{2n}."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError(f"radii must be positive, got {radii}")
    n = len(radii)
    terms = []
    for i, r in enumerate(radii):
        k = tuple(1 if j == i else 0 for j in range(n))
        cos = [0.0] * (2 * n)
        sin = [0.0] * (2 * n)
        cos[2 * i] = r
        sin[2 * i + 1] = r
        terms.append(FourierTerm(k=k, cos=tuple(cos), sin=tuple(sin)))
    return FourierImmersion(n, terms)


def donut_torus(outer: float = 2.0, inner: float = 1.0) -> FourierImmersion:
    """The surface of revolution in R^3 with radii (outer, inner).

    ((outer + inner cos v) cos u, (outer + inner cos v) sin u, inner sin v)
    expands into five modes via product-to-sum, so it fits the finite-Fourier
    format exactly.  Needs outer > inner > 0 to be embedded.
    """
    if not (outer > inner > 0):
        raise ValueError(f"need outer > inner > 0, got ({outer}, {inner})")
    R0, rh = float(outer), float(inner)
    terms = [
        FourierTerm(k=(1, 0), cos=(R0, 0.0, 0.0), sin=(0.0, R0, 0.0)),
        FourierTerm(k=(1, 1), cos=(rh / 2, 0.0, 0.0), sin=(0.0, rh / 2, 0.0)),
        FourierTerm(k=(1, -1), cos=(rh / 2, 0.0, 0.0), sin=(0.0, rh / 2, 0.0)),
        FourierTerm(k=(0, 1), cos=(0.0, 0.0, 0.0), sin=(0.0, 0.0, rh)),
    ]
    return FourierImmersion(2, terms)
