"""Discrete engine: curvature bundles and matrix-free operators on torus grids.

Scheme.  A field on the coarse grid is zero-padded to the 3/2 fine grid
(`fourier.pad`), differentiated there, multiplied by coefficient fields
sampled *exactly* from the immersion at the fine points, differentiated
again, and brought back by the adjoint `fourier.truncate`:

    Lap f = (1/sqrt(g)) . T[ d_i ( sqrt(g) g^{ij} d_j (P f) ) ]

Summation by parts makes every term exactly symmetric in the weighted inner
product <u, v> = sum u v sqrt(g) dx: the pad/truncate pair is an exact
adjoint, the masked-ik derivative is exactly antisymmetric, and the
coefficient matrices are pointwise symmetric.  The recorded asymmetry defect
of assembled matrices is therefore pure roundoff.

Even grids carry sawtooth (Nyquist) modes that the band-limited derivative
cannot see; P annihilates them, so they sit in the kernel of every
differential term.  Both solvers therefore work on the same penalized
operator, adding the symmetric positive penalty

    Pen f = sigma (1/sqrt(g)) (f - Proj f)

(Proj = band projection), so the sawtooth junk lands near sigma instead of
flooding the bottom of the spectrum.  `default_penalty` picks sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import DimensionCoefficients, paneitz_coefficients, q_curvature
from .errors import InvalidDimensionError
from .fourier import (
    FourierImmersion,
    TorusGrid,
    band_project,
    pad,
    spectral_derivative,
    truncate,
)
from .geometry import CurvaturePoint, MetricData, curvature_point, induced_metric

#: dense assembly refuses above this many grid points
DENSE_CAP = 4096

#: fields varying less than this (relative) count as constant-coefficient
_CONST_TOL = 1e-12


@dataclass(frozen=True)
class CurvatureBundle:
    """Everything sampled once per (immersion, grid) pair.

    Coarse-grid members feed integrals and the zero-order term; the fine-grid
    flux fields feed the differentiated terms.  `coeffs`, `q_field` and
    `coeff_flux` are None when n < 3 (the fourth-order coefficients are
    singular there; the Laplacian still works).
    """

    immersion: FourierImmersion
    grid: TorusGrid
    fine: TorusGrid
    y: np.ndarray                # coarse immersion values (*shape, N)
    metric: MetricData
    curv: CurvaturePoint
    weights: np.ndarray          # sqrt(g) dx per coarse point
    volume: float
    inv_sqrt_det: np.ndarray     # coarse 1/sqrt(g)
    laplace_flux: np.ndarray | None  # fine sqrt(g) g^{ij}; None on flat bundles
    coeffs: DimensionCoefficients | None
    coeff_flux: np.ndarray | None   # fine sqrt(g) g^{-1} (a R g + b Ric) g^{-1}
    q_field: np.ndarray | None      # coarse Q with spectral Laplace of R
    laplace_r: np.ndarray | None
    constant_coefficient: bool
    laplace_symbol: np.ndarray | None  # -Lap eigenvalue mu(k) per coarse mode

    @property
    def n(self) -> int:
        return self.grid.n


def _metric_symbol(grid: TorusGrid, g_inv: np.ndarray) -> np.ndarray:
    """-Lap symbol g^{ij} k_i k_j of one constant metric, per coarse mode."""
    kvecs = np.meshgrid(*grid.freqs, indexing="ij")
    return sum(g_inv[i, j] * kvecs[i] * kvecs[j] for i in range(grid.n) for j in range(grid.n))


def _laplace_raw(f, grid, fine, inv_sqrt_det, flux):
    """(1/sqrt(g)) T[d_i(flux^{ij} d_j P f)]; flux carries the sqrt(g)."""
    pf = pad(f, grid, fine)
    grad = np.stack([spectral_derivative(pf, i, fine) for i in range(grid.n)], axis=-1)
    flow = np.einsum("...ij,...j->...i", flux, grad)
    div = sum(spectral_derivative(flow[..., i], i, fine) for i in range(grid.n))
    return inv_sqrt_det * truncate(div, grid, fine)


def build_bundle(imm: FourierImmersion, grid: TorusGrid,
                 force_general: bool = False) -> CurvatureBundle:
    """Sample geometry on coarse and fine grids and precompute flux fields.

    Constant-coefficient (flat) immersions skip the fine-grid sampling: the
    operators reduce to Fourier symbols there and never touch the flux
    fields.  force_general keeps them anyway (cross-checks want both paths).
    """
    if imm.n != grid.n:
        raise InvalidDimensionError(f"immersion is {imm.n}-dimensional, grid is {grid.n}-dimensional")
    n = grid.n
    fine = grid.fine()

    jet_c = imm.jet(grid.points())
    metric = induced_metric(jet_c)
    curv = curvature_point(jet_c, metric)
    weights = metric.sqrt_det * grid.dx
    inv_sqrt_det = 1.0 / metric.sqrt_det

    g_scale = float(np.max(np.abs(metric.g)))
    flat = (
        float(np.max(np.ptp(metric.g.reshape(-1, n, n), axis=0))) <= _CONST_TOL * g_scale
        and float(np.max(np.abs(curv.ric))) <= _CONST_TOL * g_scale
        and float(np.max(np.abs(curv.scalar))) <= _CONST_TOL
    )
    symbol = _metric_symbol(grid, metric.g_inv.reshape(-1, n, n)[0]) if flat else None

    laplace_flux = None
    coeffs = coeff_flux = q_field = laplace_r = None
    if n >= 3:
        coeffs = paneitz_coefficients(n)
    if not flat or force_general:
        jet_f = imm.jet(fine.points())
        metric_f = induced_metric(jet_f)
        laplace_flux = metric_f.sqrt_det[..., None, None] * metric_f.g_inv
        if n >= 3:
            a, b = float(coeffs.a), float(coeffs.b)
            curv_f = curvature_point(jet_f, metric_f)
            a_mat = a * curv_f.scalar[..., None, None] * metric_f.g + b * curv_f.ric
            coeff_flux = metric_f.sqrt_det[..., None, None] * np.einsum(
                "...ij,...jk,...kl->...il", metric_f.g_inv, a_mat, metric_f.g_inv
            )
    if n >= 3:
        if flat:
            laplace_r = np.zeros(grid.shape)
        else:
            # Q needs Lap R; differentiate the sampled scalar-curvature field
            laplace_r = _laplace_raw(curv.scalar, grid, fine, inv_sqrt_det, laplace_flux)
        q_field = q_curvature(coeffs, curv.ric_norm_sq, curv.scalar, laplace_r)

    return CurvatureBundle(
        immersion=imm,
        grid=grid,
        fine=fine,
        y=jet_c.y,
        metric=metric,
        curv=curv,
        weights=weights,
        volume=float(np.sum(weights)),
        inv_sqrt_det=inv_sqrt_det,
        laplace_flux=laplace_flux,
        coeffs=coeffs,
        coeff_flux=coeff_flux,
        q_field=q_field,
        laplace_r=laplace_r,
        constant_coefficient=flat,
        laplace_symbol=symbol,
    )


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def apply_laplacian(bundle: CurvatureBundle, f: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami of a coarse-grid field (trace-of-Hessian sign)."""
    if bundle.constant_coefficient:
        return _apply_symbol(bundle, f, -bundle.laplace_symbol)
    return _laplace_raw(f, bundle.grid, bundle.fine, bundle.inv_sqrt_det, bundle.laplace_flux)


def _require_coeffs(bundle: CurvatureBundle, coeffs: DimensionCoefficients):
    if bundle.coeffs is None:
        raise InvalidDimensionError("fourth-order operator needs n >= 3")
    if coeffs.n != bundle.n:
        raise InvalidDimensionError(
            f"coefficients are for n = {coeffs.n}, bundle is {bundle.n}-dimensional"
        )


def apply_paneitz(bundle: CurvatureBundle, coeffs: DimensionCoefficients, f: np.ndarray) -> np.ndarray:
    """P f = Lap^2 f - div[(a R g + b Ric) grad f] + (n-4)/2 Q f."""
    _require_coeffs(bundle, coeffs)
    if bundle.constant_coefficient:
        # curvature terms vanish identically; see build_bundle's flatness gate
        return _apply_symbol(bundle, f, bundle.laplace_symbol**2)
    lap2 = apply_laplacian(bundle, apply_laplacian(bundle, f))
    diva = _laplace_raw(f, bundle.grid, bundle.fine, bundle.inv_sqrt_det, bundle.coeff_flux)
    return lap2 - diva + float(coeffs.q_factor) * bundle.q_field * f


def _apply_symbol(bundle: CurvatureBundle, f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Multiply band coefficients by a Fourier symbol; non-band modes go to zero.

    Exactly reproduces the padded general path on constant-coefficient
    bundles, including its annihilation of sawtooth modes.
    """
    return _fourier_multiply(bundle.grid, f, symbol * bundle.grid.full_band_mask())


def _fourier_multiply(grid: TorusGrid, f: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    uc = np.fft.fftn(f, axes=range(-grid.n, 0))
    uc *= multiplier
    return np.fft.ifftn(uc, axes=range(-grid.n, 0)).real


def integrate(bundle: CurvatureBundle, f: np.ndarray) -> float:
    return float(np.sum(f * bundle.weights))


def inner(bundle: CurvatureBundle, f: np.ndarray, h: np.ndarray) -> float:
    """Volume-weighted L^2 pairing on the coarse grid."""
    return float(np.sum(f * h * bundle.weights))


def penalty_apply(bundle: CurvatureBundle, sigma: float, f: np.ndarray) -> np.ndarray:
    """sigma (1/sqrt(g)) (I - Proj) f: symmetric PSD in the weighted product,
    kernel exactly the band."""
    return sigma * bundle.inv_sqrt_det * (f - band_project(f, bundle.grid))


class PaneitzOperator:
    """Matrix-free fourth-order operator, optionally with the sawtooth penalty.

    `penalty = 0` gives the plain operator of apply_paneitz.  Instances with
    coeffs=None apply -Lap instead (the n = 2 sub-case of dense assembly).
    """

    def __init__(self, bundle: CurvatureBundle, coeffs: DimensionCoefficients | None,
                 penalty: float = 0.0):
        if coeffs is not None:
            _require_coeffs(bundle, coeffs)
        self.bundle = bundle
        self.coeffs = coeffs
        self.penalty = float(penalty)
        self.shape = bundle.grid.shape
        self.size = bundle.grid.size

    def apply(self, f: np.ndarray) -> np.ndarray:
        if self.coeffs is None:
            out = -apply_laplacian(self.bundle, f)
        else:
            out = apply_paneitz(self.bundle, self.coeffs, f)
        if self.penalty:
            out = out + penalty_apply(self.bundle, self.penalty, f)
        return out

    def inner(self, f: np.ndarray, h: np.ndarray) -> float:
        return inner(self.bundle, f, h)

    @cached_property
    def _inverse_symbol(self) -> np.ndarray:
        bundle = self.bundle
        mean_g_inv = bundle.metric.g_inv.reshape(-1, bundle.n, bundle.n).mean(axis=0)
        mu = _metric_symbol(bundle.grid, mean_g_inv)
        band = mu + 1.0 if self.coeffs is None else mu**2 + 1.0
        return np.where(bundle.grid.full_band_mask(), 1.0 / band, 1.0 / (self.penalty + 1.0))

    def precondition(self, f: np.ndarray) -> np.ndarray:
        """Approximate inverse of `apply` by FFT (the iterative solver's preconditioner).

        Divides each mode by the symbol of the grid-mean metric: mu^2 + 1
        (mu + 1 for -Lap) on band modes, penalty + 1 off the band.
        """
        return _fourier_multiply(self.bundle.grid, f, self._inverse_symbol)

    def estimate_top(self, iters: int = 25, seed: int = 0x5EED) -> float:
        """Crude largest-eigenvalue estimate by power iteration (weighted norm)."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.shape)
        est = 1.0
        for _ in range(iters):
            nrm = math.sqrt(max(self.inner(v, v), 1e-300))
            v = v / nrm
            w = self.apply(v)
            est = max(est, abs(self.inner(v, w)))
            v = w
        return est


def default_penalty(bundle: CurvatureBundle, coeffs: DimensionCoefficients | None) -> float:
    """sigma = 10 (1 + top estimate): even-grid sawtooth modes land far above
    any eigenvalue of interest."""
    return 10.0 * (1.0 + PaneitzOperator(bundle, coeffs).estimate_top())


# --------------------------------------------------------------------------
# dense assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseAssembly:
    """Symmetrized operator matrix in the weighted product, with its quality gate."""

    matrix: np.ndarray        # (size, size), K_pq = <Op e_q, e_p>_w, symmetrized
    defect: float             # ||K - K^T||_F / ||K||_F before symmetrizing
    weights: np.ndarray       # flattened quadrature weights (the mass diagonal)
    penalty: float
    shape: tuple[int, ...]


def assemble_dense(bundle: CurvatureBundle, coeffs: DimensionCoefficients | None,
                   penalty: float | None = None, chunk: int = 256) -> DenseAssembly:
    """Column-by-column assembly through the matrix-free apply (batched).

    coeffs=None assembles -Lap (the only operator available below n = 3).
    penalty=None picks `default_penalty`.
    """
    size = bundle.grid.size
    if size > DENSE_CAP:
        raise ValueError(f"grid has {size} points, dense cap is {DENSE_CAP}; use the Lanczos path")
    if penalty is None:
        penalty = default_penalty(bundle, coeffs)
    op = PaneitzOperator(bundle, coeffs, penalty)

    shape = bundle.grid.shape
    w_flat = bundle.weights.reshape(-1)
    K = np.empty((size, size))
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        basis = np.zeros((stop - start, size))
        basis[np.arange(stop - start), np.arange(start, stop)] = 1.0
        applied = op.apply(basis.reshape(-1, *shape)).reshape(stop - start, size)
        K[:, start:stop] = (applied * w_flat[None, :]).T

    norm = float(np.linalg.norm(K))
    defect = float(np.linalg.norm(K - K.T)) / max(norm, 1e-300)
    K = 0.5 * (K + K.T)
    return DenseAssembly(matrix=K, defect=defect, weights=w_flat, penalty=penalty, shape=shape)
