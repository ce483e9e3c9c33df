"""Symmetric eigensolvers for the discrete operators.

Two routes to the same answer, both on the same penalized operator
(`discrete.default_penalty`), so their spectra agree to solver tolerance on
any metric, flat or not:

* dense: assemble K in the weighted product, solve the generalized problem
  through the diagonal mass matrix (K~ = D^{-1/2} K D^{-1/2}, then eigh);
  bit-for-bit reproducible.  Kept as the oracle on small grids.
* iterative: preconditioned block LOBPCG (Knyazev 2001) on K x = lambda W x,
  matrix-free, with the mean-metric symbol inverted by FFT as preconditioner.
  Its iteration count does not grow with the grid.  Spec files, reports and
  the API still call this route `lanczos`, after the Krylov solver it
  replaced.

Eigenvalue multiplicity is reported by clustering with relative gap 1e-6;
ties inside a cluster keep solver order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

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
#: the auto route solves grids up to this many points densely.  Measured
#: with k = 7 on one core: the routes tie at 256 points (16^2 donut); LOBPCG
#: is 1.7x faster at 512 (perturbed 8^3), 13x at 1728 (12^3) and 47x at 4096
#: (8^4).  8^3 stays dense so that the smallest 3-d grid keeps the
#: reproducible oracle route.
AUTO_DENSE_MAX = 512


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


def cluster_eigenvalues(values, rtol: float = CLUSTER_RTOL):
    """Group sorted eigenvalues whose relative gap is below rtol."""
    clusters: list[list[float]] = []
    for v in values:
        scale = max(1.0, abs(v))
        if clusters and abs(v - clusters[-1][-1]) <= rtol * scale:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return tuple((float(np.mean(c)), len(c)) for c in clusters)


# --------------------------------------------------------------------------
# dense route
# --------------------------------------------------------------------------

def dense_spectrum(assembly: DenseAssembly, k: int) -> SpectrumResult:
    size = assembly.matrix.shape[0]
    if not 1 <= k <= size:
        raise ValueError(f"k = {k} out of range for a {size}-point grid")
    s = np.sqrt(assembly.weights)
    kt = assembly.matrix / s[:, None] / s[None, :]
    kt = 0.5 * (kt + kt.T)
    vals, vecs = eigh(kt)
    lam = vals[:k]
    u_flat = vecs[:, :k] / s[:, None]

    # residual through the assembled matrix: Op(u) recovered as (K u)/w
    op_u = (assembly.matrix @ u_flat) / assembly.weights[:, None]
    resid_vec = op_u - u_flat * lam[None, :]
    residuals = np.sqrt(np.einsum("pi,pi,p->i", resid_vec, resid_vec, assembly.weights))

    return SpectrumResult(
        eigenvalues=lam.copy(),
        eigenfunctions=u_flat.T.reshape((k,) + assembly.shape),
        residuals=residuals,
        clusters=cluster_eigenvalues(lam),
        method="dense",
        defect=assembly.defect,
        penalty=assembly.penalty,
    )


# --------------------------------------------------------------------------
# iterative route
# --------------------------------------------------------------------------

#: LOBPCG iterations per restart
_CHUNK = 20
#: block vectors beyond the k wanted
_EXTRA = 4
_DEFAULT_MAX_ITER = 500


def lanczos_smallest(op: PaneitzOperator, k: int, tol_eig: float = 1e-8, *,
                     seed: int = DEFAULT_SEED, max_iter: int | None = None) -> SpectrumResult:
    """k smallest eigenpairs of `op` by preconditioned block LOBPCG.

    The name is kept from the Lanczos solver this replaced.  Solves
    K x = lambda W x with K = W op.apply and W = diag(weights), from a block
    of k + 4 random vectors (fixed seed) with `op.precondition` as the
    preconditioner.  scipy's lobpcg stops only once the whole block has
    converged, so it runs in restarts of _CHUNK iterations and the stop is
    this function's own test: every wanted pair passes the true-residual
    check ||op u - lambda u||_w <= 10 tol_eig max(op.unit, |lambda|), lambda the
    Rayleigh quotient.  lobpcg hands back the iterate with the smallest mean
    residual over the block, which can be the one it started from while the
    spare vectors settle; a restart that leaves the worst wanted residual no
    lower therefore doubles the next one.  Completeness: the block's top
    Ritz value must sit past the k-th value's cluster (relative gap
    CLUSTER_RTOL), or the block grows.  max_iter (default 500) bounds the
    LOBPCG iterations; a breakdown or a spent budget raises
    SolverFailureError.
    """
    from scipy.sparse.linalg import lobpcg

    shape, size = op.shape, op.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > size:
        raise ValueError(f"k = {k} exceeds the {size}-dimensional space")
    budget = max_iter if max_iter is not None else _DEFAULT_MAX_ITER
    w = op.bundle.weights.reshape(-1, 1)

    def columns(fn, x):
        """Apply a batched grid-field map to the columns of a (size, b) block."""
        b = x.shape[1]
        return fn(x.T.reshape((b,) + shape)).reshape(b, size).T

    def stiffness(x):
        return w * columns(op.apply, x)

    def precondition(r):
        return columns(op.precondition, r / w)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, min(k + _EXTRA, size)))
    target, unit = 10.0 * tol_eig, op.unit
    # lobpcg measures ||K x - theta W x||_2 >= sqrt(min w) ||op x - theta x||_w,
    # so a pair it locks also passes the final check
    lobpcg_tol = target * unit * math.sqrt(float(w.min()))
    iterations, chunk, best = 0, _CHUNK, math.inf
    residuals = np.empty(0)
    while True:
        if iterations >= budget:
            raise SolverFailureError(
                f"LOBPCG did not converge within {budget} iterations "
                f"(residuals {np.array2string(residuals, precision=2)})",
                residuals=residuals.tolist(),
            )
        step = min(chunk, budget - iterations)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "not reaching the tolerance"
                theta, x = lobpcg(stiffness, x, B=lambda v: w * v, M=precondition,
                                  tol=lobpcg_tol, maxiter=step, largest=False)
        except ValueError as exc:  # numpy's LinAlgError included, e.g. a singular Gram block
            raise SolverFailureError(
                f"LOBPCG broke down after {iterations} iterations: {exc}",
                residuals=residuals.tolist(),
            ) from exc
        iterations += step

        u = x[:, :k]
        au = columns(op.apply, u)
        lam = np.sum(w * u * au, axis=0)  # Rayleigh refinement; x is W-orthonormal
        r = au - u * lam
        residuals = np.sqrt(np.sum(w * r * r, axis=0))
        worst = float(np.max(residuals / (target * np.maximum(unit, np.abs(lam)))))
        if worst <= 1.0:
            edge = lam.max() + CLUSTER_RTOL * max(unit, abs(lam.max()))
            if x.shape[1] == size or theta[-1] > edge:
                break
            grow = min(x.shape[1] - k, size - x.shape[1])
            x = np.hstack([x, rng.standard_normal((size, grow))])
            best = math.inf
            continue
        if worst >= best:
            chunk *= 2
        best = min(best, worst)

    asc = np.argsort(lam, kind="stable")
    return SpectrumResult(
        eigenvalues=lam[asc],
        eigenfunctions=u.T[asc].reshape((k,) + tuple(shape)),
        residuals=residuals[asc],
        clusters=cluster_eigenvalues(lam[asc]),
        method="lanczos",
        iterations=iterations,
        penalty=op.penalty,
    )


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

def spectrum(imm: FourierImmersion, grid: TorusGrid, coeffs: DimensionCoefficients | None,
             k: int, *, bundle: CurvatureBundle | None = None, solver: str | None = None,
             seed: int = DEFAULT_SEED, tol_eig: float = 1e-8,
             max_iter: int | None = None, penalty: float | None = None) -> SpectrumResult:
    """Build the bundle, pick a solver by size, and fix eigenfunction signs.

    solver: None (auto: dense up to AUTO_DENSE_MAX points), "dense", or
    "lanczos" (the LOBPCG route).  Both routes get the same penalty,
    `default_penalty` unless given.  Eigenfunctions are normalized in the
    weighted product with sign chosen so int u dv >= 0, falling back to a
    positive largest-magnitude sample.
    """
    if solver not in (None, "dense", "lanczos"):
        raise ValueError(f"unknown solver {solver!r}")
    if bundle is None:
        bundle = build_bundle(imm, grid)
    if solver is None:
        solver = "dense" if grid.size <= AUTO_DENSE_MAX else "lanczos"
    if penalty is None:
        penalty = default_penalty(bundle, coeffs)
    if solver == "dense":
        result = dense_spectrum(assemble_dense(bundle, coeffs, penalty=penalty), k)
    else:
        result = lanczos_smallest(PaneitzOperator(bundle, coeffs, penalty), k, tol_eig,
                                  seed=seed, max_iter=max_iter)

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
