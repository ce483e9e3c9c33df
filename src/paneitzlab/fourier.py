"""Periodic grids, the spectral kernel, and finite Fourier immersions.

Parameter convention: every gridded manifold is a map from the standard
torus [0, 2pi)^n; radii and shape live in the immersion, the induced metric
handles the rest.  Wavenumbers are integers.

The discretization never differentiates through an even grid's Nyquist
mode.  Derivatives act on the band of Fourier coefficients |k| < m/2 per
axis; an even axis's Nyquist line is outside the band and is annihilated.
Products of fields and derivatives are formed pointwise on the grid itself
(collocation).  The coefficient fields they multiply are not band-limited,
so no finite padding would make those products exact; a 3/2 grid only moves
the aliasing to higher modes.  The band projection T is self-adjoint in the
plain uniform measure, and the masked ik derivative is antisymmetric there,
so everything downstream (discrete.py) stays exactly symmetric.

`SpectralKernel` is the one place that transforms fields, builds wavenumbers
and applies the band rule.  A field enters it once, by a forward real FFT,
and is kept as its coefficients (normalized, real-FFT layout: the last axis
holds k >= 0 only).  The band is a mask on that layout: a derivative is a
multiply by ik, which is zero off the band, a constant-coefficient operator
a multiply by its symbol, and one inverse FFT brings coefficients back to
the grid.
"""

from __future__ import annotations

import functools
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

    def points(self) -> np.ndarray:
        """All grid points, shape (*shape, n)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def point_block(self, start: int, stop: int) -> np.ndarray:
        """Grid points start..stop-1 in C order, shape (stop - start, n): a
        slice of points().reshape(-1, n), value for value, without forming it."""
        index = np.unravel_index(np.arange(start, stop), self.shape)
        return np.stack([i * (2.0 * math.pi / m) for i, m in zip(index, self.shape)], axis=-1)


class SpectralKernel:
    """Fourier coefficients of grid fields, their derivatives, and Fourier
    multipliers on one grid.

    Coefficients are the normalized real-FFT coefficients (norm="forward"),
    on grid.shape with the last axis cut to m // 2 + 1.  Every coefficient
    array, symbol and multiplier has that layout; `band` marks the modes
    |k| < m/2 per axis there.  Every method transforms the trailing n axes
    and batches over the leading ones.  The gradient, divergence and
    partials carry the vector index as the first axis, one component per
    torus axis.  The grid's real Fourier modes, the eigenfunctions of every
    even multiplier, are evaluated directly (`real_modes`).  The instance
    holds only wavenumbers and the band mask.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.n = grid.n
        self.axes = tuple(range(-self.n, 0))
        # integer wavenumbers of the real-FFT layout, 0, 1, .., then the
        # negatives on every axis but the last, which keeps k >= 0 only
        waves = [(np.arange(m) + m // 2) % m - m // 2 for m in grid.shape[:-1]]
        waves.append(np.arange(grid.shape[-1] // 2 + 1))
        #: wavenumbers of the real-FFT layout, shaped to broadcast over it
        self._k = [_along(k, j, self.n) for j, k in enumerate(waves)]
        #: True on the band modes of the real-FFT layout
        self.band = functools.reduce(
            np.logical_and, [np.abs(k) < m / 2.0 for k, m in zip(self._k, grid.shape)])
        #: i k_j on the band and zero off it, one row per axis
        self.ik = np.stack([1j * np.where(self.band, k, 0) for k in self._k])

    @staticmethod
    def _fft():
        """scipy.fft, imported on first use: at module level it would add ~0.1 s
        to every interpreter start, including runs that never build a grid.
        Not numpy.fft, which is 1.6-2.3x slower per transform on these grids."""
        import scipy.fft

        return scipy.fft

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of a grid field: the one forward FFT."""
        return self._fft().rfftn(u, axes=self.axes, norm="forward")

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """The grid field with coefficients c: the one inverse FFT."""
        return self._fft().irfftn(c, s=self.grid.shape, axes=self.axes, norm="forward")

    def gradient(self, c: np.ndarray) -> np.ndarray:
        """Gradient (n, *lead, *grid.shape) of the field with coefficients c;
        modes off the band are annihilated.

        One product forms all n components' coefficients in one array, and
        one batched inverse FFT takes them to the grid.
        """
        ik = self.ik.reshape((self.n,) + (1,) * (c.ndim - self.n) + self.band.shape)
        return self.synthesize(ik * c)

    def partials(self, u: np.ndarray) -> np.ndarray:
        """Partial derivatives (n, *lead, *grid.shape) of a grid field; modes
        off the band are annihilated."""
        return self.gradient(self.coefficients(u))

    def divergence(self, flow: np.ndarray) -> np.ndarray:
        """Coefficients of sum_i d_i flow_i for a grid vector field, zero off
        the band.

        One batched forward FFT for all n components.
        """
        h = self.coefficients(flow)
        out = self.ik[0] * h[0]
        for i in range(1, self.n):
            out += self.ik[i] * h[i]
        return out

    def symbol(self, g_inv: np.ndarray) -> np.ndarray:
        """g^{ij} k_i k_j, the -Lap symbol of one constant metric, per mode of
        the real-FFT layout; zero off the band."""
        k = self._k
        mu = sum(g_inv[i, j] * k[i] * k[j] for i in range(self.n) for j in range(self.n))
        return np.where(self.band, mu, 0.0)

    def _real_basis(self, symbol: np.ndarray):
        """The grid's real Fourier basis, one mode per wavenumber k: cos k.x for
        the first of each pair {k, -k} in C order (and for k = -k), sin k.x for
        the second.  Returns the even multiplier `symbol`'s value on each mode,
        the modes' wavenumbers as indices 0..m-1 of the full FFT layout (n,
        size) and their cosine flags, in ascending value, ties in C order."""
        shape = self.grid.shape
        index = np.indices(shape).reshape(self.n, -1)
        mirror = (-index) % np.array(shape)[:, None]
        # the real-FFT layout holds one of k, -k; symbol takes one value on both
        values = symbol[tuple(np.where(index[-1] <= shape[-1] // 2, index, mirror))]
        cosine = np.arange(self.grid.size) <= np.ravel_multi_index(tuple(mirror), shape)
        order = np.argsort(values, kind="stable")
        return values[order], index[:, order], cosine[order]

    def mode_values(self, symbol: np.ndarray) -> np.ndarray:
        """The values of a real, even multiplier on the real-FFT layout at the
        grid's real Fourier modes, ascending: its eigenvalues as an operator
        on grid fields, with multiplicity (grid.size of them)."""
        return self._real_basis(symbol)[0]

    def real_modes(self, symbol: np.ndarray, count: int) -> np.ndarray:
        """The first `count` real Fourier modes in the order of `mode_values`
        (the constant, cos k.x and sin k.x with unit amplitude), shape
        (count, *grid.shape): eigenfunctions of the multiplier, mutually
        orthogonal on the grid.

        Evaluated, not transformed: e^{ik.x} is the product of one factor per
        axis, each read from the exact integer phase k_a p_a mod m_a, so the
        transcendentals are taken on per-axis tables only.  One mode at a
        time is formed on the grid, so the complex temporaries stay one
        mode's size."""
        _, index, cosine = self._real_basis(symbol)
        tables = [np.exp(2j * math.pi * (np.outer(k[:count], np.arange(m)) % m) / m)
                  for k, m in zip(index, self.grid.shape)]
        out = np.empty((count,) + self.grid.shape)
        for i in range(count):
            wave = functools.reduce(np.multiply, (
                _along(table[i], a, self.n) for a, table in enumerate(tables)))
            out[i] = wave.real if cosine[i] else wave.imag
        return out


def _along(k: np.ndarray, axis: int, n: int) -> np.ndarray:
    """k reshaped to vary along one of n trailing axes and broadcast over the rest."""
    return k.reshape([-1 if ax == axis else 1 for ax in range(n)])


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
        # y, dy and the upper triangle of d2y are linear in the cos and sin of
        # the phases k.x: [cos | sin] (points, 2 terms) times the tables below,
        # since d_i cos(k.x) = -k_i sin(k.x) and d_i sin(k.x) = k_i cos(k.x)
        k = np.array([t.k for t in self.terms], dtype=float)
        c = np.array([t.cos for t in self.terms], dtype=float)
        s = np.array([t.sin for t in self.terms], dtype=float)
        rows, cols = np.triu_indices(self.n)
        kk = (k[:, rows] * k[:, cols])[:, None, :]  # integer products: exact
        self._k = k
        self._y_table = np.concatenate([c, s])
        self._dy_table = np.concatenate([s[..., None] * k[:, None, :],
                                         -c[..., None] * k[:, None, :]]).reshape(2 * len(k), -1)
        self._d2y_table = np.concatenate([-c[..., None] * kk,
                                          -s[..., None] * kk]).reshape(2 * len(k), -1)
        # position of (i, j) among the upper-triangle pairs, for both orders:
        # the two mirror entries of d2y are copies of one computed value
        pair = np.empty((self.n, self.n), dtype=int)
        pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
        self._d2y_pair = pair.reshape(-1)

    def _trig(self, points: np.ndarray) -> np.ndarray:
        """[cos | sin] of every term's phase k.x, shape (points, 2 terms)."""
        phase = np.asarray(points, dtype=float).reshape(-1, self.n) @ self._k.T
        return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)

    def jet(self, points: np.ndarray) -> ImmersionJet:
        """Exact 2-jet at parameter points of shape (..., n)."""
        base = np.shape(points)[:-1]
        trig = self._trig(points)
        N, n = self.ambient_dim, self.n
        y = trig @ self._y_table
        dy = trig @ self._dy_table
        upper = (trig @ self._d2y_table).reshape(len(trig), N, -1)
        d2y = np.take(upper, self._d2y_pair, axis=-1)
        return ImmersionJet(y=y.reshape(base + (N,)), dy=dy.reshape(base + (N, n)),
                            d2y=d2y.reshape(base + (N, n, n)))

    def values(self, points: np.ndarray) -> np.ndarray:
        """y alone at parameter points (..., n): the jet's y without its derivatives."""
        y = self._trig(points) @ self._y_table
        return y.reshape(np.shape(points)[:-1] + (self.ambient_dim,))

    def sphere_deviation(self, grid: TorusGrid) -> float:
        """max | |y|^2 - 1 | over the grid; ~0 means the image lies on S^{N-1}(1)."""
        return unit_sphere_deviation(self.values(grid.points()))

    def perturbed(self, terms) -> "FourierImmersion":
        """A new immersion with extra modes added on top of this one."""
        return FourierImmersion(self.n, self.terms + tuple(terms))


def unit_sphere_deviation(y: np.ndarray) -> float:
    """max | |y|^2 - 1 | over sampled ambient points y (..., N); inf, without
    a warning, where |y|^2 overflows."""
    with np.errstate(over="ignore"):
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
