"""Step-by-step replay of the trial-function derivations behind the bounds.

``bounds.evaluate`` checks only the endpoints of each eigenvalue bound.
This module re-runs the derivation itself: rotate the ambient coordinates
against computed (or closed-form) eigenfunctions, build the trial functions,
and record the slack of every intermediate inequality and the residual of
every identity used along the way.  A report whose steps are all
nonnegative-up-to-tol is a machine check that the chain of reasoning, not
just its conclusion, holds on the given manifold.

Two routes:

* ``replay_proof_analytic`` -- single round spheres, every quantity an exact
  expression in (n, r).  The equality case: all slacks vanish.
* ``replay_proof`` -- any curvature bundle plus a computed spectrum.  Needs
  at least n + 2 eigenpairs; with fewer than ambient-dimension many, summed
  steps degrade to valid partial sums and are flagged.

Step naming is shared between routes so reports can be diffed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BOUNDS, optimal_delta, snap_kernel
from .catalog import ModelManifold, model_constants, paneitz_form
from .coefficients import paneitz_coefficients
from .discrete import CurvatureBundle, apply_laplacian, apply_paneitz, raised_curvature_matrix
from .eigensolve import SpectrumResult
from .errors import GateError, InvalidDimensionError

#: slack floor for closed-form chains (pure float roundoff)
REPLAY_TOL_ANALYTIC = 1e-9
#: slack floor for discretized chains (quadrature + solver residuals)
REPLAY_TOL_NUMERICAL = 1e-6

@dataclass(frozen=True)
class ProofStep:
    """One recorded link of the chain.

    kind "inequality": slack = rhs - lhs, the claim is slack >= -tol.
    kind "identity":   slack = -|lhs - rhs|, same acceptance test.
    Per-alpha families are collapsed to their worst member (see note).
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    slack: float
    note: str = ""


@dataclass(frozen=True)
class ProofChainReport:
    theorem_id: str
    route: str                      # "analytic" | "numerical"
    label: str
    steps: tuple[ProofStep, ...]
    gram_schmidt_residual: float
    delta: float
    final_lhs: float
    final_rhs: float
    tol: float
    ok: bool
    flags: tuple[str, ...] = ()

    @property
    def worst_slack(self) -> float:
        return min(s.slack for s in self.steps)

    def step(self, name: str) -> ProofStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def _ineq(steps, name, lhs, rhs, note=""):
    steps.append(ProofStep(name, "inequality", float(lhs), float(rhs),
                           float(rhs) - float(lhs), note))


def _ident(steps, name, lhs, rhs, note=""):
    steps.append(ProofStep(name, "identity", float(lhs), float(rhs),
                           -abs(float(lhs) - float(rhs)), note))


def _check_theorem(theorem_id: str, n: int):
    rule = BOUNDS.get(theorem_id)
    if rule is None or not rule.replayable:
        known = tuple(r.bound_id for r in BOUNDS.values() if r.replayable)
        raise ValueError(f"replayable theorems are {known}, got {theorem_id!r}")
    rule.require(n)


def replay_theorem(n: int) -> str:
    """The bound whose proof chain replays on an n-manifold."""
    for rule in BOUNDS.values():
        if rule.replayable and rule.applies(n):
            return rule.bound_id
    raise InvalidDimensionError(f"no replayable chain for n = {n}")


# --------------------------------------------------------------------------
# closed-form route
# --------------------------------------------------------------------------

def replay_proof_analytic(theorem_id: str, model: ModelManifold,
                          tol: float = REPLAY_TOL_ANALYTIC) -> ProofChainReport:
    """Replay on a single round sphere, all integrals in closed form.

    The coordinate Gram matrix against first-harmonic eigenfunctions is a
    multiple of the identity, so the rotation is trivial (z = y) and each
    per-alpha quantity is the same exact expression; slacks come out as
    machine zeros.  Anything that is not a single sphere goes through the
    grid route instead.
    """
    if model.kind != "sphere" or len(model.factors) != 1:
        raise GateError(
            "closed-form replay covers single round spheres; "
            "sample the immersion on a grid for anything else")
    n = model.n
    _check_theorem(theorem_id, n)
    r = model.factors[0].r
    consts = model_constants(model)
    coeffs = paneitz_coefficients(n)
    form = paneitz_form(model)
    kappa, z0 = form.kappas[0], form.zero_order

    lam_w = 0.0 if n == 4 else z0        # eigenvalue of the constant weight
    mu = n / r**2                        # first nonconstant Laplace eigenvalue
    gap = mu**2 + kappa * mu             # first fourth-order line minus lam_w
    big_n = n + 1                        # number of ambient coordinates
    h2 = consts.mean_sq_euclidean        # == 1/r^2
    scal = consts.scalar
    tr = float(coeffs.trace_coefficient)

    # per-alpha integrals of the trial function psi = y_alpha / sqrt(vol)
    norm_sq = r**2 / big_n               # int psi^2
    ddz_sq = n**2 / (r**2 * big_n)       # int (w Lap z)^2
    grad_int = n / big_n                 # int w^2 |grad z|^2
    quad_form = ddz_sq + kappa * grad_int

    p_raw = n**2 * h2 + tr * scal        # summed quadratic form per volume
    q_used = n**2 * h2
    p_used = p_raw if n == 4 else n * (n**2 - 4) / 2.0 * h2

    steps: list[ProofStep] = []
    _ident(steps, "trial_orthogonality", 0.0, 0.0,
           "coordinates are already L2-orthogonal against first harmonics")
    _ident(steps, "quadratic_form_identity", gap * norm_sq, quad_form,
           "integrated-by-parts form of int psi P psi, identical for every alpha")
    _ineq(steps, "rayleigh_ritz", gap * norm_sq, quad_form,
          "trial functions are exact eigenfunctions here")
    _ident(steps, "laplacian_coordinate_identity", big_n * ddz_sq,
           n**2 * h2, "sum over alpha of int (w Lap z)^2 vs n^2 |H|^2")
    _ident(steps, "coordinate_energy_identity", big_n * grad_int, float(n),
           "sum over alpha of int w^2 |grad z|^2")
    _ineq(steps, "summed_trace_bound", big_n * gap * norm_sq, p_raw)
    _ident(steps, "gradient_identity", -mu * norm_sq, -grad_int,
           "int psi w Lap z vs -int w^2 |grad z|^2")
    if n > 4:
        _ineq(steps, "gauss_scalar_estimate", p_raw, p_used,
              "umbilical: scalar curvature saturates the Gauss bound")

    choice = optimal_delta(p_used, q_used)
    delta = choice.delta
    root_gap = math.sqrt(gap)
    _ineq(steps, "am_gm_pivot", root_gap * grad_int,
          0.5 * (delta * gap * norm_sq + ddz_sq / delta),
          "worst alpha (all identical)")
    _ineq(steps, "summed_gradient_bound", big_n * root_gap * grad_int,
          0.5 * (delta * p_used + q_used / delta))
    _ineq(steps, "gradient_pointwise_bound", 1.0, 1.0,
          "max over the sphere of |grad z|^2 = 1 - (y/r)^2")
    # sorting: all n+1 relevant gaps sit on the same spectral line, so the
    # rearranged middle quantity equals the plain sum exactly
    sorted_mid = (n * root_gap * grad_int
                  + root_gap * (n - n * grad_int))
    _ineq(steps, "sorting_bound", n * root_gap, sorted_mid)
    _ineq(steps, "sorted_tail_comparison", sorted_mid, big_n * root_gap * grad_int)

    final_lhs = n * root_gap
    final_rhs = choice.value
    _ineq(steps, "final_bound", final_lhs, final_rhs)
    for fac, tag in ((1.1, "up"), (1 / 1.1, "down")):
        d = delta * fac
        _ineq(steps, f"delta_perturbation_{tag}", choice.value,
              0.5 * (d * p_used + q_used / d),
              "paper's delta is a local minimum of the pivot")

    ok = all(s.slack >= -tol for s in steps)
    return ProofChainReport(
        theorem_id=theorem_id, route="analytic", label=model.describe(),
        steps=tuple(steps), gram_schmidt_residual=0.0, delta=delta,
        final_lhs=final_lhs, final_rhs=final_rhs, tol=tol, ok=ok)


# --------------------------------------------------------------------------
# grid route
# --------------------------------------------------------------------------

def _worst(steps, name, lhs_vec, rhs_vec, kind, note=""):
    """Collapse a per-alpha family to its worst member."""
    lhs_vec = np.atleast_1d(np.asarray(lhs_vec, dtype=float))
    rhs_vec = np.atleast_1d(np.asarray(rhs_vec, dtype=float))
    rhs_vec = np.broadcast_to(rhs_vec, lhs_vec.shape)
    if kind == "inequality":
        i = int(np.argmin(rhs_vec - lhs_vec))
        _ineq(steps, name, lhs_vec[i], rhs_vec[i],
              note or f"worst of {lhs_vec.size} trial functions")
    else:
        i = int(np.argmax(np.abs(lhs_vec - rhs_vec)))
        _ident(steps, name, lhs_vec[i], rhs_vec[i],
               note or f"worst of {lhs_vec.size} trial functions")


def replay_proof(theorem_id: str, result: SpectrumResult,
                 bundle: CurvatureBundle,
                 tol: float = REPLAY_TOL_NUMERICAL) -> ProofChainReport:
    """Replay on a sampled immersion against a computed spectrum.

    The weight is the exact constant kernel function for thm_1_1 and the
    computed first eigenfunction for thm_1_2; coordinates come from the
    immersion's 2-jet on the coarse grid.  Needs n + 2 eigenpairs; summed
    steps use however many trial functions the spectrum supports (a valid
    partial sum when fewer than ambient-dimension many, flagged).
    """
    n = bundle.n
    _check_theorem(theorem_id, n)
    grid = bundle.grid
    vals = snap_kernel(result.eigenvalues)
    k = int(vals.size)
    if k < n + 2:
        raise GateError(f"replay needs at least n + 2 = {n + 2} eigenpairs, got {k}")
    if result.eigenfunctions is None:
        raise GateError("replay needs eigenfunctions alongside eigenvalues")

    flags: list[str] = []
    wq = bundle.weights
    vol = bundle.volume
    axes = tuple(range(-grid.n, 0))

    def integ(field):
        return np.sum(field * wq, axis=axes)

    # ---- the weight function and its derivatives
    if n == 4:
        if vals[0] != 0.0:
            raise GateError("kernel eigenvalue not resolved; the n = 4 chain "
                            "anchors on the constant eigenfunction")
        w = np.full(grid.shape, vol ** -0.5)
        lam_w = 0.0
        dw = np.zeros(grid.shape + (grid.n,))
        lw = np.zeros(grid.shape)
    else:
        w = np.array(result.eigenfunctions[0], dtype=float)
        w /= math.sqrt(float(integ(w * w)))
        if float(integ(w)) < 0:
            w = -w                        # fix the sign convention int w dv >= 0
        lam_w = float(vals[0])
        dw = np.moveaxis(bundle.kernel.partials(w), 0, -1)
        lw = apply_laplacian(bundle, w)
        if result.clusters and result.clusters[0][1] > 1:
            flags.append("first_eigenvalue_multiple")
    grad_w_energy = -float(integ(w * lw))

    # ---- rotated coordinates
    y = bundle.y                                       # (*shape, N)
    big_n = y.shape[-1]
    b_avail = min(k - 1, big_n)
    partners = result.eigenfunctions[1:1 + b_avail]    # u after the weight
    y_flat = y.reshape(-1, big_n)
    partner_w = (partners * (w * wq)).reshape(b_avail, -1)
    gram = y_flat.T @ partner_w.T                      # (N, B)
    q_rot, r_tri = np.linalg.qr(gram, mode="complete")
    pivots = np.abs(np.diag(r_tri[:b_avail, :b_avail]))
    scale_a = max(1.0, float(np.linalg.norm(gram)))
    if np.any(pivots <= 1e-10 * scale_a):
        flags.append("degenerate_coordinate_configuration")
    z = np.einsum("...g,ga->a...", y, q_rot)           # (N, *shape)

    lower = z.reshape(big_n, -1) @ partner_w.T
    gs_resid = float(np.max(np.abs(np.tril(lower, -1)))) if b_avail else 0.0

    # ---- trial functions
    center = integ(z * (w * w))
    shape1 = (big_n,) + (1,) * grid.n
    trial = (z - center.reshape(shape1)) * w
    norms2 = integ(trial * trial)

    gaps = vals[1:1 + b_avail] - lam_w
    if np.any(gaps < 0):
        flags.append("negative_gap_clamped")
    roots_all = np.sqrt(np.clip(vals[1:] - lam_w, 0.0, None))  # index j -> sqrt gap_j

    steps: list[ProofStep] = []

    # orthogonality of trial functions against the eigenfunctions below them
    below_w = (result.eigenfunctions[:b_avail] * wq).reshape(b_avail, -1)
    overlap = trial.reshape(big_n, -1) @ below_w.T
    _ident(steps, "trial_orthogonality",
           float(np.max(np.abs(np.tril(overlap)))), 0.0,
           "largest pairing of a trial function with an eigenfunction below it")

    # ---- operator applications and pointwise fields
    p_trial = apply_paneitz(bundle, bundle.coeffs, trial)
    quad_rr = integ(trial * p_trial) - lam_w * norms2
    lz = apply_laplacian(bundle, z)
    dz = np.moveaxis(bundle.kernel.partials(z), 0, -1)
    g_inv = bundle.metric.g_inv
    gz2 = np.einsum("a...i,...ij,a...j->a...", dz, g_inv, dz)
    gzw = np.einsum("a...i,...ij,...j->a...", dz, g_inv, dw)
    gw2 = np.einsum("...i,...ij,...j->...", dw, g_inv, dw)

    raised_b = raised_curvature_matrix(bundle.coeffs, bundle.metric, bundle.curv)
    quad_b = np.einsum("a...i,...ij,a...j->a...", dz, raised_b, dz)

    h2 = bundle.curv.mean_sq
    scal = bundle.curv.scalar
    tr = float(bundle.coeffs.trace_coefficient)

    # the integrated-by-parts identity behind the Rayleigh-Ritz numerator
    flux = w * lz + 2.0 * gzw
    t1 = integ(flux * flux)
    t2 = integ(quad_b * (w * w))
    t3 = -2.0 * integ(gz2 * (w * lw))
    _worst(steps, "quadratic_form_identity", quad_rr, t1 + t2 + t3, "identity",
           note=f"all {big_n} rotated coordinates")

    _worst(steps, "rayleigh_ritz", gaps * norms2[:b_avail], quad_rr[:b_avail],
           "inequality")

    # rotation-invariant coordinate identities, pointwise
    _ident(steps, "laplacian_coordinate_identity",
           float(np.max(np.abs(np.sum(lz * lz, axis=0) - n**2 * h2))), 0.0,
           "max pointwise |sum (Lap z)^2 - n^2 |H|^2|")
    _ident(steps, "gradient_resolution_identity",
           float(np.max(np.abs(np.sum(gzw * gzw, axis=0) - gw2))), 0.0,
           "max pointwise |sum g(grad z, grad w)^2 - |grad w|^2|")
    _ident(steps, "coordinate_energy_identity",
           float(np.max(np.abs(np.sum(gz2, axis=0) - n))), 0.0,
           "max pointwise |sum |grad z|^2 - n|")

    p_raw = float(integ((n**2 * h2 + tr * scal) * (w * w))) \
        + 2.0 * (n + 2) * grad_w_energy
    partial = " (partial sum)" if b_avail < big_n else ""
    _ineq(steps, "summed_trace_bound",
          float(np.sum(gaps * norms2[:b_avail])), p_raw,
          f"{b_avail} of {big_n} trial functions{partial}")

    grad_energy = integ(gz2 * (w * w))
    _worst(steps, "gradient_identity", integ(trial * flux), -grad_energy,
           "identity", note=f"all {big_n} rotated coordinates")

    q_used = float(integ(n**2 * h2 * (w * w))) + 4.0 * grad_w_energy
    if n > 4:
        target = n * (n**2 - 4) / 2.0 * h2
        _ineq(steps, "gauss_scalar_estimate",
              float(np.max(n**2 * h2 + tr * scal - target)), 0.0,
              "max pointwise excess over the umbilical-case integrand")
        p_used = float(integ(target * (w * w))) + 2.0 * (n + 2) * grad_w_energy
    else:
        p_used = p_raw

    choice = optimal_delta(p_used, q_used)
    if choice.degenerate:
        raise GateError("AM-GM pivot degenerates: a curvature integral vanished")
    delta = choice.delta
    roots = roots_all[:b_avail]
    _worst(steps, "am_gm_pivot", roots * grad_energy[:b_avail],
           0.5 * (delta * gaps * norms2[:b_avail] + t1[:b_avail] / delta),
           "inequality")
    _ineq(steps, "summed_gradient_bound",
          float(np.sum(roots * grad_energy[:b_avail])),
          0.5 * (delta * p_used + q_used / delta),
          f"{b_avail} of {big_n} trial functions{partial}")

    _ineq(steps, "gradient_pointwise_bound", float(np.max(gz2)), 1.0,
          "max over grid and alpha of |grad z|^2")

    # sorting: the first n gradient energies plus the (n+1)-th gap soak up
    # the remaining coordinate energy
    lead = float(np.sum(roots_all[:n] * grad_energy[:n]))
    sorted_mid = lead + roots_all[n] * (n - float(np.sum(grad_energy[:n])))
    final_lhs = float(np.sum(roots_all[:n]))
    _ineq(steps, "sorting_bound", final_lhs, sorted_mid)
    if b_avail == big_n:
        _ineq(steps, "sorted_tail_comparison", sorted_mid,
              float(np.sum(roots * grad_energy)),
              "rearranged middle vs the full rotated sum")
    else:
        flags.append("partial_chain")

    final_rhs = choice.value
    _ineq(steps, "final_bound", final_lhs, final_rhs)
    for fac, tag in ((1.1, "up"), (1 / 1.1, "down")):
        d = delta * fac
        _ineq(steps, f"delta_perturbation_{tag}", choice.value,
              0.5 * (d * p_used + q_used / d),
              "paper's delta is a local minimum of the pivot")

    ok = all(s.slack >= -tol for s in steps)
    label = f"{theorem_id} replay on grid {'x'.join(map(str, grid.shape))}"
    return ProofChainReport(
        theorem_id=theorem_id, route="numerical", label=label,
        steps=tuple(steps), gram_schmidt_residual=gs_resid, delta=delta,
        final_lhs=final_lhs, final_rhs=final_rhs, tol=tol, ok=ok,
        flags=tuple(flags))
