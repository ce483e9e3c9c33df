"""Shared oracles for the test suite.

The geometry tests need 2-jets whose derivatives were produced by something
other than the library itself; sympy differentiates explicit chart formulas
and the lambdified results are evaluated at batches of interior points.

The discretization tests need spectral operations that do not go through
`SpectralKernel`: `band_project` and `derivative` below work on full
complex numpy FFTs, one axis at a time where they can.

`reference_jet` and `reference_curvature` are the plain forms of the batched
products in `FourierImmersion.jet` and `geometry.curvature_point`: a loop
over Fourier terms, and one einsum per contraction.  `reference_grid_inputs`
is the batched form of the replay's streamed loop over rotated coordinates,
its geometry sampled afresh from the immersion rather than read from the
bundle.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from paneitzlab.bounds import snap_kernel
from paneitzlab.discrete import apply_laplacian, apply_paneitz
from paneitzlab.geometry import ImmersionJet, curvature_point, induced_metric


def chart_jet(components, variables, points) -> ImmersionJet:
    """Exact 2-jet of a symbolic immersion chart.

    components: sequence of sympy expressions y_a(x_1..x_n)
    variables:  the chart coordinates, in slot order
    points:     (P, n) array of evaluation points
    """
    points = np.asarray(points, dtype=float)
    n = len(variables)
    N = len(components)
    assert points.shape[-1] == n

    y_f = sp.lambdify(variables, components, "numpy")
    dy_exprs = [[sp.diff(c, v) for v in variables] for c in components]
    dy_f = sp.lambdify(variables, dy_exprs, "numpy")
    d2y_exprs = [[[sp.diff(c, u, v) for v in variables] for u in variables]
                 for c in components]
    d2y_f = sp.lambdify(variables, d2y_exprs, "numpy")

    cols = [points[..., i] for i in range(n)]
    P = points.shape[:-1]
    y = np.empty(P + (N,))
    dy = np.empty(P + (N, n))
    d2y = np.empty(P + (N, n, n))
    y_val = y_f(*cols)
    dy_val = dy_f(*cols)
    d2y_val = d2y_f(*cols)
    for a in range(N):
        y[..., a] = y_val[a]
        for i in range(n):
            dy[..., a, i] = dy_val[a][i]
            for j in range(n):
                d2y[..., a, i, j] = d2y_val[a][i][j]
    return ImmersionJet(y=y, dy=dy, d2y=d2y)


def reference_jet(imm, points):
    """(y, dy, d2y) of a FourierImmersion summed term by term."""
    points = np.asarray(points, dtype=float)
    base = points.shape[:-1]
    y = np.zeros(base + (imm.ambient_dim,))
    dy = np.zeros(base + (imm.ambient_dim, imm.n))
    d2y = np.zeros(base + (imm.ambient_dim, imm.n, imm.n))
    for t in imm.terms:
        k = np.array(t.k, dtype=float)
        c = np.array(t.cos, dtype=float)
        s = np.array(t.sin, dtype=float)
        phase = points @ k
        cos, sin = np.cos(phase)[..., None], np.sin(phase)[..., None]
        y += cos * c + sin * s
        dy += (-sin * c + cos * s)[..., None] * k
        d2y += (-cos * c - sin * s)[..., None, None] * np.multiply.outer(k, k)
    return y, dy, d2y


def reference_curvature(jet, metric) -> dict:
    """The fields of geometry.CurvaturePoint, one einsum per contraction."""
    n = jet.dim
    g_inv = metric.g_inv
    gamma = np.einsum("...kl,...al,...aij->...kij", g_inv, jet.dy, jet.d2y)
    h = jet.d2y - np.einsum("...ak,...kij->...aij", jet.dy, gamma)
    mean = np.einsum("...ij,...aij->...a", g_inv, h) / n
    ric = n * np.einsum("...a,...aij->...ij", mean, h) - np.einsum(
        "...kl,...akj,...ail->...ij", g_inv, h, h)
    return {
        "gamma": gamma,
        "h": h,
        "mean": mean,
        "mean_sq": np.einsum("...a,...a->...", mean, mean),
        "s_norm": np.einsum("...ik,...jl,...aij,...akl->...", g_inv, g_inv, h, h),
        "ric": ric,
        "ric_norm_sq": np.einsum("...ik,...jl,...ij,...kl->...", g_inv, g_inv, ric, ric),
        "scalar": np.einsum("...ij,...ij->...", g_inv, ric),
    }


def sampled_geometry(imm, grid, chunk=4096):
    """y, g^{-1}, |H|^2, R and Ric from the immersion's jet at the grid
    points, chunk points at a time, shaped over the grid."""
    points = grid.points().reshape(-1, grid.n)
    parts = []
    for start in range(0, len(points), chunk):
        jet = imm.jet(points[start:start + chunk])
        metric = induced_metric(jet)
        curv = curvature_point(jet, metric)
        parts.append((jet.y, metric.g_inv, curv.mean_sq, curv.scalar, curv.ric))
    return [np.concatenate(field).reshape(grid.shape + field[0].shape[1:])
            for field in zip(*parts)]


def reference_grid_inputs(imm, bundle, result, u1) -> dict:
    """The grid replay's per-coordinate integrals, pointwise maxima and
    Gram-Schmidt residual for the weight u1 (constant when it carries no
    Laplacian), every rotated coordinate at once, one einsum per contraction.

    y, g^{-1} and the curvature come from the immersion's jet at the grid
    points, and the curvature form is restated as a R |grad z|^2 +
    b Ric(v, v), v = g^{-1} grad z: none of it is read from the bundle, so a
    wrong coefficient flux there shows in rayleigh_ibp."""
    n = bundle.n
    axes = tuple(range(-n, 0))
    y, g_inv, mean_sq, scalar, ric = sampled_geometry(imm, bundle.grid)
    wq, w = bundle.weights, u1.w
    vals = snap_kernel(result.eigenvalues)
    lam_w, big_n = vals[0], y.shape[-1]
    b = min(vals.size - 1, big_n)
    funcs = result.eigenfunctions

    def integ(field):
        return np.sum(field * wq, axis=axes)

    def grad(f):
        return np.moveaxis(bundle.kernel.partials(f), 0, -1)

    def pairings(f, g):
        """sum_x f_a(x) g_j(x) over the grid, for two stacks of fields."""
        return f.reshape(len(f), -1) @ g.reshape(len(g), -1).T

    partner_w = funcs[1:1 + b] * (w * wq)
    q_rot = np.linalg.qr(pairings(np.moveaxis(y, -1, 0), partner_w), mode="complete")[0]
    z = np.einsum("...g,ga->a...", y, q_rot)
    trial = (z - integ(z * w * w)[(...,) + (None,) * n]) * w
    dz = grad(z)
    dw = np.zeros(dz.shape[1:]) if u1.lap is None else grad(w)
    lw = np.zeros(w.shape) if u1.lap is None else u1.lap
    gz2 = np.einsum("a...i,...ij,a...j->a...", dz, g_inv, dz)
    gzw = np.einsum("a...i,...ij,...j->a...", dz, g_inv, dw)
    raised = np.einsum("...ik,...kl,...lj->...ij", g_inv, ric, g_inv)
    quad = (float(bundle.coeffs.a) * scalar * gz2
            + float(bundle.coeffs.b) * np.einsum("a...i,...ij,a...j->a...", dz, raised, dz))
    lz = apply_laplacian(bundle, z)
    flux = w * lz + 2.0 * gzw
    norms2, t1 = integ(trial * trial), integ(flux * flux)
    return {
        "norms2": norms2,
        "rayleigh": integ(trial * apply_paneitz(bundle, bundle.coeffs, trial)) - lam_w * norms2,
        "rayleigh_ibp": t1 + integ(quad * w * w) - 2.0 * integ(gz2 * w * lw),
        "t1": t1,
        "cross": integ(trial * flux),
        "grad_energy": integ(gz2 * w * w),
        "gaps": vals[1:1 + b] - lam_w,
        "root_gaps": np.sqrt(np.clip(vals[1:] - lam_w, 0.0, None)),
        "orthogonality": np.max(np.abs(np.tril(pairings(trial, funcs[:b] * wq)))),
        "laplacian": np.max(np.abs(np.sum(lz * lz, axis=0) - n**2 * mean_sq)),
        "resolution": np.max(np.abs(np.sum(gzw * gzw, axis=0)
                                    - np.einsum("...i,...ij,...j->...", dw, g_inv, dw))),
        "energy": np.max(np.abs(np.sum(gz2, axis=0) - n)),
        "max_grad_sq": np.max(gz2),
        "gram_schmidt_residual": np.max(np.abs(np.tril(pairings(z, partner_w), -1))),
    }


def hypersphere_chart(n: int, r: float = 1.0, prefix: str = "phi"):
    """Hyperspherical chart of S^n(r) in R^{n+1}: (components, variables).

    Distinct prefixes keep variables disjoint when charts are multiplied.
    """
    phis = sp.symbols(f"{prefix}0:{n}", real=True)
    rr = sp.Rational(r) if float(r).is_integer() else sp.Float(r, 30)
    comps = []
    for a in range(n + 1):
        term = rr
        for i in range(min(a, n)):
            term *= sp.sin(phis[i])
        if a < n:
            term *= sp.cos(phis[a])
        comps.append(sp.expand_trig(term))
    return comps, list(phis)


def product_chart(factors):
    """Concatenate factor charts into a product immersion chart.

    factors: list of (components, variables) pairs with disjoint variables.
    """
    comps, variables = [], []
    for fc, fv in factors:
        comps.extend(fc)
        variables.extend(fv)
    return comps, variables


def interior_points(n: int, count: int, rng, low: float = 0.4, high: float = 2.2):
    """Chart points away from the polar degeneracies of hyperspherical charts."""
    return rng.uniform(low, high, size=(count, n))


# --------------------------------------------------------------------------
# spectral reference: full complex FFTs, independent of SpectralKernel
# --------------------------------------------------------------------------

def band_project(u, grid):
    """Project onto the band |k| < m/2 per axis (identity on odd grids).
    Transforms the trailing grid.n axes, batches the rest."""
    axes = tuple(range(-grid.n, 0))
    uc = np.fft.fftn(u, axes=axes, norm="forward")
    for axis, m in enumerate(grid.shape):
        k = np.fft.fftfreq(m, d=1.0 / m)
        shape1 = [1] * u.ndim
        shape1[u.ndim - grid.n + axis] = m
        uc = uc * (np.abs(k) < m / 2.0).reshape(shape1)
    return np.fft.ifftn(uc, axes=axes, norm="forward").real


def derivative(u, axis, grid):
    """d/dx along one torus axis by a complex FFT along that axis alone; the
    axis's Nyquist mode is annihilated, the other axes are left as they are."""
    fft_axis = u.ndim - grid.n + axis
    m = grid.shape[axis]
    k = np.fft.fftfreq(m, d=1.0 / m)
    k[np.abs(k) >= m / 2.0] = 0.0
    shape1 = [1] * u.ndim
    shape1[fft_axis] = m
    uc = np.fft.fft(u, axis=fft_axis) * (1j * k).reshape(shape1)
    return np.fft.ifft(uc, axis=fft_axis).real
