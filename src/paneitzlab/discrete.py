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
On both paths, flat and curved, a block of fields is applied in batches of
columns, each batch from its own forward FFT, so that its coefficient,
gradient and flux arrays stay within a fixed number of bytes (`_APPLY_BYTES`).

Every operator carries one Fourier multiplier, `PaneitzOperator._symbol`:
the kernel's symbol g^{ij} k_i k_j of the grid-mean metric on band modes
(squared for P), and sigma mean(1/sqrt(g)) off them (the penalty below).
A constant metric has no curvature, so there the multiplier is the
operator: one forward FFT, one multiply, one inverse FFT.  On every bundle
the iterative solver (`eigensolve`) reads it twice: it starts from the
Fourier modes of its smallest values, and its preconditioner divides each
mode by it plus the unit.  No code here transforms a field itself; every
FFT goes through the kernel, and every coefficient array has its one
real-FFT layout.

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
-Lap) and sqrt(g) as c^n.  The penalty here, and the iterative solver's
preconditioner shift and residual floor, are built on two units that scale
the same way, `PaneitzOperator.unit` and the grid mean of sqrt(g), so no
absolute number sets the conditioning.  Both units are rounded to powers of
two, which multiply without rounding error (as in LAPACK's balancing): near
unit scale they are exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .coefficients import DimensionCoefficients, paneitz_coefficients, q_curvature
from .errors import DegenerateImmersionError, InvalidDimensionError
from .fourier import FourierImmersion, SpectralKernel, TorusGrid
from .geometry import CurvatureFields, CurvaturePoint, MetricData, curvature_point, induced_metric

#: dense assembly refuses above this many grid points
DENSE_CAP = 4096

#: fields varying less than this (relative) count as constant-coefficient
_CONST_TOL = 1e-12

#: columns per batched apply in dense assembly: 64 assembles as fast as 256
#: on perturbed 8^3 at under half the peak memory
_ASSEMBLY_BATCH = 64

#: grid points per block when build_bundle samples jet, metric and curvature:
#: one block's temporaries bound the sampling memory whatever the grid size.
#: For N = 10, n = 5 they peak at 5.4 MB (the 2-jet's d2y is 1.0 MB of it),
#: against 21 MB for 2048 points, which built no faster
_SAMPLE_BLOCK = 512

#: bytes one (n, columns, grid) array of an apply may take: wider blocks are
#: applied in batches of columns on both paths, so the spectrum, gradient and
#: fluxes of an apply stay bounded whatever the block width (on an 8^5 grid
#: one column is 1.3 MB and a batch holds up to 12 columns; on 8^3, 1365)
_APPLY_BYTES = 16 * 2**20


@dataclass(frozen=True)
class CurvatureBundle:
    """Everything sampled once per (immersion, grid) pair that is read after
    the build.

    Every member lives on the grid points.  y, g^{-1} and the curvature
    fields feed integrals, bounds, replays and the operator's scales (g,
    Christoffel symbols, h, H, Ric, |Ric|^2 and Lap R end with the build).
    The flux fields feed the differentiated terms, the coefficient flux also
    the replay's curvature form.  A flux field is a symmetric matrix field
    stored as its upper triangle, row by row: shape (n(n+1)/2, *grid.shape).
    Flat bundles keep no flux field.  `coeffs`, `q_field` and `coeff_flux`
    are None when n < 3, where the fourth-order coefficients are singular.
    """

    grid: TorusGrid
    kernel: SpectralKernel       # every FFT: coefficients, grad/div, symbols
    y: np.ndarray                # immersion values (*shape, N)
    g_inv: np.ndarray            # g^{-1} (*shape, n, n)
    curv: CurvatureFields        # |H|^2, S, R
    weights: np.ndarray          # sqrt(g) dx per point
    volume: float
    inv_sqrt_det: np.ndarray     # 1/sqrt(g)
    laplace_flux: np.ndarray | None  # sqrt(g) g^{ij}, packed; None on flat bundles
    coeffs: DimensionCoefficients | None
    coeff_flux: np.ndarray | None   # sqrt(g) g^{-1} (a R g + b Ric) g^{-1}, packed
    q_field: np.ndarray | None      # Q with spectral Laplace of R
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


def packed_flux(packed: np.ndarray, grad: np.ndarray) -> np.ndarray:
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
    """y, g^{-1}, sqrt(g), the CurvatureFields, |Ric|^2 and (n >= 3) the
    coefficient flux on the grid, block by block, written into arrays
    allocated once, and the least and greatest value of each component of
    g, which ends with its block."""
    n = grid.n
    coeffs = paneitz_coefficients(n) if n >= 3 else None
    coeff_flux = None if coeffs is None else np.empty((n * (n + 1) // 2,) + grid.shape)
    out: dict[str, np.ndarray] = {}
    g_min, g_max = np.inf, -np.inf
    for start, stop in _blocks(grid.size):
        jet, metric = _sample_block(imm, grid, start, stop)
        curv = curvature_point(jet, metric)
        block = {"y": jet.y, "g_inv": metric.g_inv, "sqrt_det": metric.sqrt_det,
                 "ric_norm_sq": curv.ric_norm_sq,
                 **{f.name: getattr(curv, f.name) for f in fields(CurvatureFields)}}
        for name, value in block.items():
            if name not in out:
                out[name] = np.empty((grid.size,) + value.shape[1:])
            out[name][start:stop] = value
        if coeffs is not None:
            raised = metric.sqrt_det[..., None, None] * raised_curvature_matrix(coeffs, metric, curv)
            coeff_flux.reshape(len(coeff_flux), -1)[:, start:stop] = _pack(raised)
        g_min = np.minimum(g_min, metric.g.min(axis=0))
        g_max = np.maximum(g_max, metric.g.max(axis=0))
    out = {name: value.reshape(grid.shape + value.shape[1:]) for name, value in out.items()}
    y, g_inv, sqrt_det, ric_norm_sq = (out.pop(name) for name in
                                       ("y", "g_inv", "sqrt_det", "ric_norm_sq"))
    return y, g_inv, sqrt_det, (g_min, g_max), CurvatureFields(**out), ric_norm_sq, coeff_flux


def raised_curvature_matrix(coeffs: DimensionCoefficients, metric: MetricData,
                            curv: CurvaturePoint) -> np.ndarray:
    """g^{-1} (a R g + b Ric) g^{-1}: the curvature term's coefficient matrix
    with both indices raised, pointwise (..., n, n)."""
    lower = float(coeffs.a) * curv.scalar[..., None, None] * metric.g + float(coeffs.b) * curv.ric
    return metric.g_inv @ lower @ metric.g_inv


def build_bundle(imm: FourierImmersion, grid: TorusGrid,
                 force_general: bool = False) -> CurvatureBundle:
    """Sample geometry at the grid points and form the flux fields there.

    The grid is sampled in blocks of _SAMPLE_BLOCK points: each block's jet,
    metric and curvature are evaluated once, the fields the build reads
    (with the coefficient flux, formed from the block's g) are written into
    preallocated arrays, and the block's temporaries, g among them, are
    dropped.  The Laplace flux and Q are then products of those fields,
    with no further jet; sqrt(g), |Ric|^2 and Lap R end with the build.

    Constant-coefficient (flat) immersions drop the flux fields: the
    operators reduce to Fourier symbols there and never touch them.
    force_general forms them anyway and puts every apply on the flux path
    (cross-checks set it against the multiplier path).
    """
    if imm.n != grid.n:
        raise InvalidDimensionError(f"immersion is {imm.n}-dimensional, grid is {grid.n}-dimensional")
    n = grid.n
    kernel = SpectralKernel(grid)

    y, g_inv, sqrt_det, (g_min, g_max), curv, ric_norm_sq, coeff_flux = _sample_coarse(imm, grid)
    weights = sqrt_det * grid.dx
    inv_sqrt_det = 1.0 / sqrt_det

    # a constant metric has vanishing Christoffel symbols, so it is flat: the
    # gate needs the range of g alone
    g_scale = float(np.max(np.abs([g_min, g_max])))
    flat = not force_general and float(np.max(g_max - g_min)) <= _CONST_TOL * g_scale

    coeffs = paneitz_coefficients(n) if n >= 3 else None
    laplace_flux = None if flat else _pack(sqrt_det[..., None, None] * g_inv)
    q_field = None
    if n >= 3:
        if flat:
            laplace_r = np.zeros(grid.shape)
        else:
            # Q needs Lap R; differentiate the sampled scalar-curvature field
            grad_r = kernel.gradient(kernel.coefficients(curv.scalar))
            laplace_r = _divergence(kernel, inv_sqrt_det, packed_flux(laplace_flux, grad_r))
        q_field = q_curvature(coeffs, ric_norm_sq, curv.scalar, laplace_r)

    return CurvatureBundle(
        grid=grid,
        kernel=kernel,
        y=y,
        g_inv=g_inv,
        curv=curv,
        weights=weights,
        volume=float(np.sum(weights)),
        inv_sqrt_det=inv_sqrt_det,
        laplace_flux=laplace_flux,
        coeffs=coeffs,
        coeff_flux=None if flat else coeff_flux,
        q_field=q_field,
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


def _by_columns(bundle: CurvatureBundle, part, f: np.ndarray) -> np.ndarray:
    """part(f) for grid fields with any leading axes, computed in equal
    batches of leading columns whose (n, columns, grid) arrays fit
    _APPLY_BYTES; part maps a batch of fields (columns, *grid.shape) to grid
    fields, from its own forward FFT."""
    n = bundle.n
    lead = f.shape[: f.ndim - n]
    columns = f.reshape((-1,) + bundle.grid.shape)
    cap = max(1, _APPLY_BYTES // (n * bundle.grid.size * np.dtype(float).itemsize))
    batches = max(1, math.ceil(len(columns) / cap))     # the fewest within the cap,
    batch = max(1, math.ceil(len(columns) / batches))   # of equal width
    if batches == 1:
        return part(columns).reshape(lead + bundle.grid.shape)
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


def _power_of_two(x: float) -> float:
    """The power of two nearest to x > 0 on a log scale."""
    return 2.0 ** round(math.log2(x))


class PaneitzOperator:
    """Matrix-free fourth-order operator, optionally with the sawtooth penalty.

    `penalty = 0` gives the plain operator P of apply_paneitz.  Instances
    with coeffs=None apply -Lap instead (apply_laplacian, and the only
    operator below n = 3).  `apply` is the one place either operator is
    applied.  One instance serves a whole solve: LOBPCG applies it and
    preconditions by its symbol, and `assemble_dense` assembles it.
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
        return _by_columns(self.bundle, self._apply_batch, f)

    def _apply_batch(self, f: np.ndarray) -> np.ndarray:
        """apply on one batch of columns (columns, *grid.shape)."""
        bundle = self.bundle
        kernel = bundle.kernel
        coef = kernel.coefficients(f)
        if bundle.constant_coefficient:
            # curvature terms vanish identically; see build_bundle's flatness gate
            coef *= self._symbol
            return kernel.synthesize(coef)
        out = self._differentiated(coef)
        if self.coeffs is not None:
            out += float(self.coeffs.q_factor) * bundle.q_field * f
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
        lap = _divergence(kernel, bundle.inv_sqrt_det, packed_flux(bundle.laplace_flux, grad))
        if self.coeffs is None:
            return -lap
        flow = packed_flux(bundle.laplace_flux, kernel.gradient(kernel.coefficients(lap)))
        flow -= packed_flux(bundle.coeff_flux, grad)
        return _divergence(kernel, bundle.inv_sqrt_det, flow)

    @cached_property
    def _mean_g_inv(self) -> np.ndarray:
        bundle = self.bundle
        return bundle.g_inv.reshape(-1, bundle.n, bundle.n).mean(axis=0)

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

    def estimate_top(self) -> float:
        """The band's largest principal symbol: the largest eigenvalue of
        g^{-1} over the grid points times the band's largest |k|^2, squared
        for the fourth-order operator.  Read from the metric, no apply."""
        bundle = self.bundle
        g_inv = bundle.g_inv.reshape(-1, bundle.n, bundle.n)
        k_sq = float(bundle.kernel.symbol(np.eye(bundle.n)).max())
        mu = float(np.linalg.eigvalsh(g_inv)[:, -1].max()) * k_sq
        return mu if self.coeffs is None else mu**2


def default_penalty(op: PaneitzOperator) -> float:
    """sigma = 10 (unit + estimate_top) mean sqrt(g) for op, the mean to a
    power of two, read from the metric (the mean is the volume over that of
    the parameter torus): even-grid sawtooth modes land far above any
    eigenvalue of interest, and sigma / sqrt(g) scales with the operator's
    eigenvalues.  op.penalty is not read, so a solve can set it from this on
    the operator it sizes."""
    density = _power_of_two(op.bundle.volume / (2.0 * math.pi) ** op.bundle.n)
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
