"""Symmetric eigensolvers for the discrete operators.

Two routes to the same answer, both on one penalized `PaneitzOperator`
(penalty `discrete.default_penalty`), built once per `spectrum` call, so
their spectra agree to solver tolerance on any metric, flat or not:

* iterative, the default: preconditioned block LOBPCG (Knyazev 2001) with
  soft locking, matrix-free, with the mean-metric symbol inverted by FFT as
  preconditioner.  Its iteration count does not grow with the grid.  Spec
  files, reports and the API still call this route `lanczos`, after the
  Krylov solver it replaced.
* dense, on request: assemble the matrix LOBPCG applies, A = W^{1/2} Op
  W^{-1/2} in the variables sqrt(w) u (W the quadrature weights), and eigh
  it; bit-for-bit reproducible.  Kept as the oracle on small grids.

Eigenvalue multiplicity is reported by clustering with relative gap 1e-6;
ties inside a cluster keep solver order.

Catalog manifolds answer in the same type: `SpectrumResult.closed_form`
cuts the exact spectral lines of `catalog.paneitz_spectrum` at k values,
one cluster per line, with zero residuals and no eigenfunctions, so reports
and bounds read a closed-form spectrum as they read a grid one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import DimensionCoefficients
from .discrete import (
    CurvatureBundle,
    DenseAssembly,
    PaneitzOperator,
    assemble_dense,
    build_bundle,
    default_penalty,
    integrate,
)
from .errors import SolverFailureError
from .fourier import FourierImmersion, TorusGrid

DEFAULT_SEED = 0x5EED
CLUSTER_RTOL = 1e-6
TOL_EIG = 1e-8
MAX_ITER = 500


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues (multiplicity-expanded) with paired data."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray | None   # (k, *grid shape), orthonormal in <.,.>_w
    residuals: np.ndarray               # ||Op u - lambda u||_w per pair
    clusters: tuple[tuple[float, int], ...]
    method: str
    defect: float | None = None         # dense-path asymmetry defect
    iterations: int | None = None       # LOBPCG iterations used
    penalty: float | None = None

    @classmethod
    def closed_form(cls, lines, k: int) -> SpectrumResult:
        """The k smallest values of exact spectral lines (ascending, each
        with `value` and `multiplicity`), the last line cut at k."""
        clusters, left = [], k
        for line in lines:
            if left <= 0:
                break
            take = min(line.multiplicity, left)
            clusters.append((line.value, take))
            left -= take
        if left > 0:
            raise ValueError(f"only {k - left} eigenvalues available, {k} requested")
        values = np.repeat([v for v, _ in clusters], [c for _, c in clusters])
        return cls(eigenvalues=values, eigenfunctions=None, residuals=np.zeros(k),
                   clusters=tuple(clusters), method="closed_form")


def cluster_eigenvalues(values, rtol: float = CLUSTER_RTOL):
    """Group sorted eigenvalues whose gap is below rtol max(min(1, max|lambda|), |lambda|)."""
    floor = min(1.0, max((abs(v) for v in values), default=1.0))
    clusters: list[list[float]] = []
    for v in values:
        if clusters and abs(v - clusters[-1][-1]) <= rtol * max(floor, abs(v)):
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return tuple((float(np.mean(c)), len(c)) for c in clusters)


# --------------------------------------------------------------------------
# dense route
# --------------------------------------------------------------------------

def dense_spectrum(assembly: DenseAssembly, k: int) -> SpectrumResult:
    """The k smallest eigenpairs of an assembled A = W^{1/2} Op W^{-1/2}: v
    from eigh, u = v / sqrt(w), and ||Op u - lambda u||_w = ||A v - lambda v||."""
    op, matrix = assembly.op, assembly.matrix
    if not 1 <= k <= op.size:
        raise ValueError(f"k = {k} out of range for a {op.size}-point grid")
    vals, vecs = np.linalg.eigh(matrix)
    lam, v = vals[:k].copy(), vecs[:, :k]
    r = matrix @ v - v * lam
    u = v / np.sqrt(op.bundle.weights.reshape(op.size, 1))
    return SpectrumResult(
        eigenvalues=lam,
        eigenfunctions=u.T.reshape((k,) + op.shape),
        residuals=np.sqrt(np.einsum("pi,pi->i", r, r)),
        clusters=cluster_eigenvalues(lam),
        method="dense",
        defect=assembly.defect,
        penalty=op.penalty,
    )


# --------------------------------------------------------------------------
# iterative route
# --------------------------------------------------------------------------

def _orthonormalize(v: np.ndarray, av, against):
    """Orthonormal rows spanning the part of v orthogonal to the orthonormal
    (u, op u) blocks `against`, with av = op v following (None: skipped): rows
    scaled to unit norm and projected, then SVQB (Stathopoulos and Wu 2002)
    with dependent directions dropped (Duersch et al. 2018).  v and av are
    overwritten."""
    scale = 1.0 / np.sqrt(np.maximum(np.einsum("ij,ij->i", v, v), np.finfo(float).tiny))
    for u, au in against:
        c = v @ u.T
        v -= c @ u
        if av is not None:
            av -= c @ au
    lam, q = np.linalg.eigh(scale[:, None] * (v @ v.T) * scale)
    keep = lam > 1e-10  # under 1e-5 of a unit row left outside `against`: dependent
    t = (q[:, keep] / np.sqrt(lam[keep])).T * scale
    return t @ v, None if av is None else t @ av


def _rayleigh_ritz(x, ax, search, m: int):
    """The m smallest Ritz values, vectors and images of op on the span of the
    x and search blocks (with images), and the vectors' search-block part p, op p
    (0 without search blocks), built block by block, never as a stacked basis."""
    blocks = [(x, ax)] + search
    gram = np.block([[u @ v.T for v, _ in blocks] for u, _ in blocks])
    gram_a = np.block([[u @ av.T for _, av in blocks] for u, _ in blocks])
    inv = np.linalg.inv(np.linalg.cholesky(gram))
    theta, vecs = np.linalg.eigh(inv @ gram_a @ inv.T)
    coef = np.split((inv.T @ vecs[:, :m]).T, np.cumsum([len(v) for v, _ in blocks])[:-1], axis=1)
    p = sum(c @ v for c, (v, _) in zip(coef[1:], search))
    ap = sum(c @ av for c, (_, av) in zip(coef[1:], search))
    return theta[:m], coef[0] @ x + p, coef[0] @ ax + ap, p, ap


def lanczos_smallest(op: PaneitzOperator, k: int, *, seed: int = DEFAULT_SEED) -> SpectrumResult:
    """k smallest eigenpairs of `op` by preconditioned block LOBPCG.

    The name is kept from the Lanczos solver this replaced.  From k + 4
    random vectors X (fixed seed), each iteration runs Rayleigh-Ritz on X,
    the active pairs' residuals preconditioned by `op.precondition` and their
    previous steps; if the Gram factorization fails, the steps are dropped
    and the iteration retried once.  A pair passing ||op u - lambda u||_w <=
    10 TOL_EIG max(op.unit, |lambda|) leaves the active set but stays in X
    (soft locking); once the k wanted pairs pass on a fresh apply of op, the
    top Ritz value must clear the k-th value's cluster (relative gap
    CLUSTER_RTOL) or X grows.  A breakdown or more than MAX_ITER iterations
    raises SolverFailureError with the last residuals.
    """
    shape, size = op.shape, op.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > size:
        raise ValueError(f"k = {k} exceeds the {size}-dimensional space")
    root_w = np.sqrt(op.bundle.weights.reshape(size))

    def scaled(fn, v):
        """fn on the rows of v in the variables sqrt(w) u, where <., .>_w is
        the plain dot product and op is a symmetric matrix."""
        return root_w * fn((v / root_w).reshape((-1,) + shape)).reshape(v.shape)

    rng = np.random.default_rng(seed)
    m = min(k + 4, size)
    target, unit = 10.0 * TOL_EIG, op.unit
    x = rng.standard_normal((m, size))
    ax, search = scaled(op.apply, x), []
    iterations, residuals = 0, np.empty(0)
    while True:
        try:
            theta, x, ax, p, ap = _rayleigh_ritz(x, ax, search, m)
        except np.linalg.LinAlgError as exc:
            if len(search) < 2:
                raise SolverFailureError(f"LOBPCG broke down after {iterations} iterations: "
                                         f"{exc}", residuals=residuals[:k].tolist()) from exc
            search = search[:1]
            continue
        r = ax - theta[:, None] * x
        residuals = np.sqrt(np.einsum("ij,ij->i", r, r))
        converged = residuals <= target * np.maximum(unit, np.abs(theta))
        if converged[:k].all():
            if search:  # confirm on a fresh image: ax is otherwise a recurrence
                ax, search = scaled(op.apply, x), []
                continue
            edge = theta[k - 1] + CLUSTER_RTOL * max(unit, abs(theta[k - 1]))
            if m == size or theta[-1] > edge:
                break
            new = rng.standard_normal((min(m - k, size - m), size))
            x, ax = np.vstack([x, new]), np.vstack([ax, scaled(op.apply, new)])
            m = len(x)
            continue
        if iterations >= MAX_ITER:
            raise SolverFailureError(
                f"LOBPCG did not converge within {MAX_ITER} iterations "
                f"(residuals {np.array2string(residuals[:k], precision=2)})",
                residuals=residuals[:k].tolist())
        d, _ = _orthonormalize(scaled(op.precondition, r[~converged]), None, [(x, ax)])
        del r  # the residuals are spent: free their block before the next allocations
        basis = [(x, ax), (d, scaled(op.apply, d))]
        if search:  # the previous steps of the active pairs
            basis.append(_orthonormalize(p[~converged], ap[~converged], basis))
        search = basis[1:]
        iterations += 1

    return SpectrumResult(
        eigenvalues=theta[:k],
        eigenfunctions=(x[:k] / root_w).reshape((k,) + tuple(shape)),
        residuals=residuals[:k],
        clusters=cluster_eigenvalues(theta[:k]),
        method="lanczos",
        iterations=iterations,
        penalty=op.penalty,
    )


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

def spectrum(imm: FourierImmersion, grid: TorusGrid, coeffs: DimensionCoefficients | None,
             k: int, *, bundle: CurvatureBundle | None = None, solver: str | None = None,
             seed: int = DEFAULT_SEED) -> SpectrumResult:
    """Build the bundle, run a solver, and fix eigenfunction signs.

    solver: None or "lanczos" (the LOBPCG route), or "dense" (the assembled
    oracle, for grids up to `discrete.DENSE_CAP` points).  One operator, with
    the penalty `default_penalty`, is built here and both routes solve it.
    The solvers return eigenfunctions orthonormal in the weighted product;
    each sign is chosen here so that int u dv >= 0, falling back to a
    positive largest-magnitude sample.
    """
    if solver not in (None, "dense", "lanczos"):
        raise ValueError(f"unknown solver {solver!r}")
    if bundle is None:
        bundle = build_bundle(imm, grid)
    op = PaneitzOperator(bundle, coeffs)
    op.penalty = default_penalty(op)  # before anything caches op._symbol, which reads it
    if solver == "dense":
        result = dense_spectrum(assemble_dense(op), k)
    else:
        result = lanczos_smallest(op, k, seed=seed)

    funcs = result.eigenfunctions
    vol_scale = math.sqrt(bundle.volume)
    for i in range(funcs.shape[0]):
        mass = integrate(bundle, funcs[i])
        if abs(mass) > 1e-10 * vol_scale:
            sign = math.copysign(1.0, mass)
        else:
            flat = funcs[i].reshape(-1)
            sign = math.copysign(1.0, flat[int(np.argmax(np.abs(flat)))])
        funcs[i] *= sign
    return result
