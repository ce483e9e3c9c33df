"""Discrete engine: curvature bundles and matrix-free operators on torus grids.

Scheme.  The Laplacian is taken in divergence form and collocated on the
grid itself (`fourier.SpectralKernel`):

    Lap f = (1/sqrt(g)) . T[ d_i ( sqrt(g) g^{ij} d_j (T f) ) ]

with T the band projection.  f enters by one forward real FFT and stays as
its coefficients.  One batched inverse FFT gives the whole gradient at
the grid points, where it is multiplied by the flux fields, sampled *exactly*
from the immersion at those points and stored as their n(n+1)/2 symmetric
components.  One batched forward FFT takes the flux to its coefficients,
and the divergence multiplies them by ik, which is zero off the band.  The
flux fields are not band-limited, so their products alias on any finite
grid; a 3/2 dealiasing grid would only move that error to higher modes, at
3.4x (n = 3) to 7.6x (n = 5) the points, and the error decays at the band's
spectral rate either way.  The Paneitz apply shares the gradient of f
between the first Laplacian and the curvature term, and sums the fluxes
sqrt(g) g^{-1} grad(Lap f) - coeff_flux grad f before its single divergence.
A block of fields is applied in batches of columns, so that its gradient and
flux arrays stay within a fixed number of bytes (`_APPLY_BYTES`).

Every operator carries one Fourier multiplier, `PaneitzOperator._symbol`:
the kernel's symbol g^{ij} k_i k_j of the grid-mean metric on band modes
(squared for P), and sigma mean(1/sqrt(g)) off them (the penalty below).
A constant metric has no curvature, so there the multiplier is the
operator: one forward FFT, one multiply, one inverse FFT.  On every bundle
the preconditioner multiplies by the reciprocal of it plus the unit, and
the iterative solver starts from the Fourier modes of its smallest values.  No
code here transforms a field itself; every FFT goes through the kernel,
and every coefficient array has its one real-FFT layout.

Summation by parts makes every term exactly symmetric in the weighted inner
product <u, v> = sum u v sqrt(g) dx: the band projection is self-adjoint,
the masked-ik derivative is exactly antisymmetric, and the coefficient
matrices are pointwise symmetric.  The recorded asymmetry defect
of assembled matrices is therefore pure roundoff.

Even grids carry sawtooth (Nyquist) modes that the band-limited derivative
cannot see; P annihilates them, so they sit in the kernel of every
differential term.  Both solvers therefore work on one penalized operator,
the same instance, adding the symmetric positive penalty

    Pen f = sigma (1/sqrt(g)) (f - Proj f)

(Proj = band projection), so the sawtooth junk lands near sigma / sqrt(g)
instead of flooding the bottom of the spectrum.  `default_penalty` sizes
sigma from the metric, with no operator apply.  On a flat bundle, where
sqrt(g) is constant, the penalty is the multiplier's off-band value.

Scale.  Under y -> c y the operator's eigenvalues scale as c^-4 (c^-2 for
-Lap) and sqrt(g) as c^n.  The penalty, the preconditioner's shift and the
iterative solver's residual floor are built on two units that scale the same
way, `PaneitzOperator.unit` and the grid mean of sqrt(g), so no absolute
number sets the conditioning.  Both units are rounded to powers of two, which
multiply without rounding error (as in LAPACK's balancing): near unit scale
they are exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .coefficients import DimensionCoefficients, paneitz_coefficients, q_curvature
from .errors import DegenerateImmersionError, InvalidDimensionError
from .fourier import FourierImmersion, SpectralKernel, TorusGrid
from .geometry import CurvatureFields, MetricData, curvature_point, induced_metric

#: dense assembly refuses above this many grid points
DENSE_CAP = 4096

#: fields varying less than this (relative) count as constant-coefficient
_CONST_TOL = 1e-12

#: columns per batched apply in dense assembly: 64 assembles as fast as 256
#: on perturbed 8^3 at under half the peak memory
_ASSEMBLY_BATCH = 64

#: grid points per block when build_bundle samples jet, metric and curvature:
#: the 2-jet and curvature temporaries of one block (~4 MB each for N = 10,
#: n = 5) bound the sampling memory whatever the grid size
_SAMPLE_BLOCK = 2048

#: bytes one (n, columns, grid) array of a general-path apply may take: wider
#: blocks are applied in batches of columns, so the gradient and fluxes of an
#: apply stay bounded whatever the block width (on an 8^5 grid one column is
#: 1.3 MB and a batch holds 12 columns; on 8^3 a batch holds 1365)
_APPLY_BYTES = 16 * 2**20


@dataclass(frozen=True)
class CurvatureBundle:
    """Everything sampled once per (immersion, grid) pair.

    Every member lives on the grid points.  y, the metric and the curvature
    fields feed integrals, bounds, replays and the zero-order term (no
    Christoffel symbols, no second fundamental form).  The flux fields feed
    the differentiated terms.  A flux field is a symmetric matrix field
    stored as its upper triangle, row by row: shape (n(n+1)/2, *grid.shape).
    Flat bundles keep no flux field.  `coeffs`, `q_field` and `coeff_flux`
    are None when n < 3 (the fourth-order coefficients are singular there;
    the Laplacian still works).
    """

    immersion: FourierImmersion
    grid: TorusGrid
    kernel: SpectralKernel       # every FFT: coefficients, grad/div, symbols
    y: np.ndarray                # immersion values (*shape, N)
    metric: MetricData           # g, g^{-1}, sqrt(g)
    curv: CurvatureFields        # H, |H|^2, S, Ric, |Ric|^2, R
    weights: np.ndarray          # sqrt(g) dx per point
    volume: float
    inv_sqrt_det: np.ndarray     # 1/sqrt(g)
    laplace_flux: np.ndarray | None  # sqrt(g) g^{ij}, packed; None on flat bundles
    coeffs: DimensionCoefficients | None
    coeff_flux: np.ndarray | None   # sqrt(g) g^{-1} (a R g + b Ric) g^{-1}, packed
    q_field: np.ndarray | None      # Q with spectral Laplace of R
    laplace_r: np.ndarray | None
    constant_coefficient: bool

    @property
    def n(self) -> int:
        return self.grid.n


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    """(i, j) with i <= j, row by row: the component order of a packed flux field."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _pack(field: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric matrix field (..., n, n), component axis first."""
    return np.stack([field[..., i, j] for i, j in _upper_pairs(field.shape[-1])])


def _flux(packed: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """flow_i = sum_j S_ij grad_j for a packed symmetric S and a gradient (n, ...)."""
    n = grad.shape[0]
    pos = {}
    for p, (i, j) in enumerate(_upper_pairs(n)):
        pos[i, j] = pos[j, i] = p
    flow = np.empty_like(grad)
    for i in range(n):
        np.multiply(packed[pos[i, 0]], grad[0], out=flow[i])
        for j in range(1, n):
            flow[i] += packed[pos[i, j]] * grad[j]
    return flow


def _divergence(kernel: SpectralKernel, inv_sqrt_det: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """(1/sqrt(g)) T[d_i flow_i] at the grid points; flow carries the sqrt(g)."""
    return inv_sqrt_det * kernel.synthesize(kernel.divergence(flow))


def _blocks(size: int):
    """(start, stop) of consecutive _SAMPLE_BLOCK-point blocks covering range(size)."""
    for start in range(0, size, _SAMPLE_BLOCK):
        yield start, min(start + _SAMPLE_BLOCK, size)


def _sample_block(imm: FourierImmersion, grid: TorusGrid, start: int, stop: int):
    """Jet and metric at grid points start..stop-1 (C order).

    A degenerate point is reported by its grid multi-index, as whole-grid
    sampling would report it, not by its position in the block.
    """
    jet = imm.jet(grid.point_block(start, stop))
    try:
        return jet, induced_metric(jet)
    except DegenerateImmersionError as exc:
        where = tuple(int(i) for i in np.unravel_index(start + exc.where[0], grid.shape))
        raise DegenerateImmersionError.at(where, exc.det) from None


def _sample_coarse(imm: FourierImmersion, grid: TorusGrid):
    """y, the metric and the CurvatureFields on the grid, block by block,
    written into arrays allocated once."""
    out: dict[str, np.ndarray] = {}
    for start, stop in _blocks(grid.size):
        jet, metric = _sample_block(imm, grid, start, stop)
        curv = curvature_point(jet, metric)
        block = {"y": jet.y, **vars(metric),
                 **{f.name: getattr(curv, f.name) for f in fields(CurvatureFields)}}
        for name, value in block.items():
            if name not in out:
                out[name] = np.empty((grid.size,) + value.shape[1:])
            out[name][start:stop] = value
    out = {name: value.reshape(grid.shape + value.shape[1:]) for name, value in out.items()}
    y = out.pop("y")
    metric = MetricData(**{f.name: out.pop(f.name) for f in fields(MetricData)})
    return y, metric, CurvatureFields(**out)


def raised_curvature_matrix(coeffs: DimensionCoefficients, metric: MetricData,
                            curv: CurvatureFields) -> np.ndarray:
    """g^{-1} (a R g + b Ric) g^{-1}: the curvature term's coefficient matrix
    with both indices raised, pointwise (..., n, n)."""
    lower = float(coeffs.a) * curv.scalar[..., None, None] * metric.g + float(coeffs.b) * curv.ric
    return metric.g_inv @ lower @ metric.g_inv


def build_bundle(imm: FourierImmersion, grid: TorusGrid,
                 force_general: bool = False) -> CurvatureBundle:
    """Sample geometry at the grid points and form the flux fields there.

    The grid is sampled in blocks of _SAMPLE_BLOCK points: each block's jet,
    metric and curvature are evaluated once, the fields the bundle keeps
    are written into preallocated arrays, and the block's temporaries are
    dropped.  The flux fields are then products of the stored metric and
    curvature, with no further jet.

    Constant-coefficient (flat) immersions skip the flux fields: the
    operators reduce to Fourier symbols there and never touch them.
    force_general forms them anyway and puts every apply on the flux path
    (cross-checks set it against the multiplier path).
    """
    if imm.n != grid.n:
        raise InvalidDimensionError(f"immersion is {imm.n}-dimensional, grid is {grid.n}-dimensional")
    n = grid.n
    kernel = SpectralKernel(grid)

    y, metric, curv = _sample_coarse(imm, grid)
    weights = metric.sqrt_det * grid.dx
    inv_sqrt_det = 1.0 / metric.sqrt_det

    # a constant metric has vanishing Christoffel symbols, so it is flat: the
    # gate needs g alone
    g_scale = float(np.max(np.abs(metric.g)))
    flat = not force_general and (
        float(np.max(np.ptp(metric.g.reshape(-1, n, n), axis=0))) <= _CONST_TOL * g_scale)

    coeffs = paneitz_coefficients(n) if n >= 3 else None
    laplace_flux = coeff_flux = q_field = laplace_r = None
    if not flat:
        root = metric.sqrt_det[..., None, None]
        laplace_flux = _pack(root * metric.g_inv)
        if coeffs is not None:
            coeff_flux = _pack(root * raised_curvature_matrix(coeffs, metric, curv))
    if n >= 3:
        if flat:
            laplace_r = np.zeros(grid.shape)
        else:
            # Q needs Lap R; differentiate the sampled scalar-curvature field
            grad_r = kernel.gradient(kernel.coefficients(curv.scalar))
            laplace_r = _divergence(kernel, inv_sqrt_det, _flux(laplace_flux, grad_r))
        q_field = q_curvature(coeffs, curv.ric_norm_sq, curv.scalar, laplace_r)

    return CurvatureBundle(
        immersion=imm,
        grid=grid,
        kernel=kernel,
        y=y,
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
    )


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def apply_laplacian(bundle: CurvatureBundle, f: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami of a grid field (trace-of-Hessian sign)."""
    return -PaneitzOperator(bundle, None).apply(f)


def apply_paneitz(bundle: CurvatureBundle, coeffs: DimensionCoefficients, f: np.ndarray) -> np.ndarray:
    """P f = Lap^2 f - div[(a R g + b Ric) grad f] + (n-4)/2 Q f."""
    return PaneitzOperator(bundle, coeffs).apply(f)


def _by_columns(bundle: CurvatureBundle, part, coef: np.ndarray) -> np.ndarray:
    """part(coef) for kernel coefficients with any leading axes, computed in
    batches of leading columns whose (n, columns, grid) arrays fit
    _APPLY_BYTES; part maps coefficients to grid fields."""
    n = bundle.n
    lead = coef.shape[: coef.ndim - n]
    columns = coef.reshape((-1,) + coef.shape[coef.ndim - n:])
    batch = max(1, _APPLY_BYTES // (n * bundle.grid.size * np.dtype(float).itemsize))
    out = np.empty((len(columns),) + bundle.grid.shape)
    for start in range(0, len(columns), batch):
        out[start:start + batch] = part(columns[start:start + batch])
    return out.reshape(lead + bundle.grid.shape)


def _require_coeffs(bundle: CurvatureBundle, coeffs: DimensionCoefficients):
    if bundle.coeffs is None:
        raise InvalidDimensionError("fourth-order operator needs n >= 3")
    if coeffs.n != bundle.n:
        raise InvalidDimensionError(
            f"coefficients are for n = {coeffs.n}, bundle is {bundle.n}-dimensional"
        )


def integrate(bundle: CurvatureBundle, f: np.ndarray) -> float:
    return float(np.sum(f * bundle.weights))


def inner(bundle: CurvatureBundle, f: np.ndarray, h: np.ndarray) -> float:
    """Volume-weighted L^2 pairing on the grid."""
    return float(np.sum(f * h * bundle.weights))


def _power_of_two(x: float) -> float:
    """The power of two nearest to x > 0 on a log scale."""
    return 2.0 ** round(math.log2(x))


class PaneitzOperator:
    """Matrix-free fourth-order operator, optionally with the sawtooth penalty.

    `penalty = 0` gives the plain operator P of apply_paneitz.  Instances
    with coeffs=None apply -Lap instead (apply_laplacian, and the only
    operator below n = 3).  `apply` is the one place either operator is
    applied.  One instance serves a whole solve: LOBPCG applies and
    preconditions it, and `assemble_dense` assembles it.
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
        bundle = self.bundle
        kernel = bundle.kernel
        coef = kernel.coefficients(f)
        if bundle.constant_coefficient:
            # curvature terms vanish identically; see build_bundle's flatness gate
            return kernel.synthesize(coef * self._symbol)
        out = _by_columns(bundle, self._differentiated, coef)
        if self.coeffs is not None:
            # a new array, not +=: the sum takes the memory order of its
            # operands, and the replay's reductions follow that order
            out = out + float(self.coeffs.q_factor) * bundle.q_field * f
        if self.penalty:
            # sigma (1/sqrt(g)) (I - Proj) f, projecting f by the coefficients above
            out += self.penalty * bundle.inv_sqrt_det * (f - kernel.synthesize(coef * kernel.band))
        return out

    def _differentiated(self, coef: np.ndarray) -> np.ndarray:
        """The differentiated terms on fields with coefficients coef:
        -Lap, or Lap^2 - div[(a R g + b Ric) grad].  The gradient of f serves
        both the inner Laplacian and the curvature term, whose flux joins the
        outer Laplacian's before one divergence."""
        bundle = self.bundle
        kernel = bundle.kernel
        grad = kernel.gradient(coef)
        lap = _divergence(kernel, bundle.inv_sqrt_det, _flux(bundle.laplace_flux, grad))
        if self.coeffs is None:
            return -lap
        flow = _flux(bundle.laplace_flux, kernel.gradient(kernel.coefficients(lap)))
        flow -= _flux(bundle.coeff_flux, grad)
        return _divergence(kernel, bundle.inv_sqrt_det, flow)

    @cached_property
    def _mean_g_inv(self) -> np.ndarray:
        bundle = self.bundle
        return bundle.metric.g_inv.reshape(-1, bundle.n, bundle.n).mean(axis=0)

    @cached_property
    def unit(self) -> float:
        """The operator's eigenvalue unit, to a power of two: the -Lap symbol
        tr(g^{-1}) / n of the grid-mean metric at unit wavenumber, squared for
        the fourth-order operator.  It scales as the eigenvalues do."""
        mu = float(np.trace(self._mean_g_inv)) / self.bundle.n
        return _power_of_two(mu if self.coeffs is None else mu**2)

    @cached_property
    def _symbol(self) -> np.ndarray:
        """The operator as a Fourier multiplier of the grid-mean metric, on the
        real-FFT layout: the -Lap symbol mu on band modes (mu^2 for P), and
        penalty * mean(1/sqrt(g)) off the band.  On a flat bundle it is the
        operator itself; on every bundle its values predict the spectrum."""
        bundle = self.bundle
        mu = bundle.kernel.symbol(self._mean_g_inv)
        off_band = self.penalty * float(np.mean(bundle.inv_sqrt_det))
        return np.where(bundle.kernel.band, mu if self.coeffs is None else mu**2, off_band)

    def precondition(self, f: np.ndarray) -> np.ndarray:
        """Approximate inverse of `apply` by FFT (the iterative solver's
        preconditioner): each mode divided by `_symbol` + unit, so on a flat
        bundle it inverts apply + unit exactly."""
        kernel = self.bundle.kernel
        return kernel.synthesize(kernel.coefficients(f) * (1.0 / (self._symbol + self.unit)))

    def estimate_top(self) -> float:
        """The band's largest principal symbol: the largest eigenvalue of
        g^{-1} over the grid points times the band's largest |k|^2, squared
        for the fourth-order operator.  Read from the metric, no apply."""
        bundle = self.bundle
        g_inv = bundle.metric.g_inv.reshape(-1, bundle.n, bundle.n)
        k_sq = float(bundle.kernel.symbol(np.eye(bundle.n)).max())
        mu = float(np.linalg.eigvalsh(g_inv)[:, -1].max()) * k_sq
        return mu if self.coeffs is None else mu**2


def default_penalty(op: PaneitzOperator) -> float:
    """sigma = 10 (unit + estimate_top) mean sqrt(g) for op, the mean to a
    power of two, read from the metric: even-grid sawtooth modes land far
    above any eigenvalue of interest, and sigma / sqrt(g) scales with the
    operator's eigenvalues.  op.penalty is not read, so a solve can set it
    from this on the operator it sizes."""
    density = _power_of_two(float(np.mean(op.bundle.metric.sqrt_det)))
    return 10.0 * (op.unit + op.estimate_top()) * density


# --------------------------------------------------------------------------
# dense assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseAssembly:
    """An operator's symmetrized matrix in the sqrt(w) u variables, with its quality gate."""

    op: PaneitzOperator
    matrix: np.ndarray        # (size, size), A = W^{1/2} Op W^{-1/2}, symmetrized
    defect: float             # ||A - A^T||_F / ||A||_F before symmetrizing


def assemble_dense(op: PaneitzOperator) -> DenseAssembly:
    """A = W^{1/2} Op W^{-1/2} (W the quadrature weights), the symmetric matrix
    the iterative solver applies, column by column through `op.apply`,
    _ASSEMBLY_BATCH columns per apply."""
    size, shape = op.size, op.shape
    if size > DENSE_CAP:
        raise ValueError(f"grid has {size} points, dense cap is {DENSE_CAP}; "
                         "use solver: lanczos (LOBPCG)")
    root_w = np.sqrt(op.bundle.weights.reshape(size))
    A = np.empty((size, size))
    for start in range(0, size, _ASSEMBLY_BATCH):
        stop = min(start + _ASSEMBLY_BATCH, size)
        basis = np.zeros((stop - start, size))
        basis[np.arange(stop - start), np.arange(start, stop)] = 1.0 / root_w[start:stop]
        applied = op.apply(basis.reshape(-1, *shape)).reshape(stop - start, size)
        A[:, start:stop] = (applied * root_w).T

    defect = float(np.linalg.norm(A - A.T)) / max(float(np.linalg.norm(A)), 1e-300)
    return DenseAssembly(op=op, matrix=0.5 * (A + A.T), defect=defect)
