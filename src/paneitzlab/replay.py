"""Step-by-step replay of the trial-function derivation behind the bounds.

``bounds.evaluate`` checks only the endpoints of each eigenvalue bound.
This module re-runs the derivation itself: rotate the ambient coordinates
against eigenfunctions, build the trial functions, apply Rayleigh-Ritz and
the AM-GM pivot in delta, and record the slack of every intermediate
inequality and the residual of every identity used along the way.  A report
whose steps are all nonnegative-up-to-tol is a machine check that the chain
of reasoning, not just its conclusion, holds on the given manifold.

The chain is written once, in ``_chain``, as a function of the integrals and
pointwise residuals it reads (``ChainInputs``).  Two routes supply them:

* ``replay_proof_analytic`` -- single round spheres, every input an exact
  expression in (n, r).  The equality case: all slacks vanish.
* ``replay_proof`` -- any curvature bundle plus a computed spectrum, the
  inputs sampled on the grid.  Needs at least n + 2 eigenpairs; with fewer
  than ambient-dimension many, summed steps degrade to valid partial sums
  and are flagged.

Both take the pivot's integrals from ``bounds.pivot_integrals`` and the
weight from a ``bounds.U1Data``, as the bounds do, so a chain's
``final_rhs`` is its bound's rhs; both emit the same step names.

Inside a degenerate eigencluster the grid route's eigenfunctions are one
basis among many, the one the solver happened to pick, and the per-step
lhs and rhs values depend on it.  Only the slacks are comparable across
solver changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BOUNDS, U1Data, constant_ground_state, optimal_delta, pivot_integrals,
                     snap_kernel, summarize_bundle, summarize_model, u1_from_result)
from .catalog import ModelManifold, paneitz_form
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
    # the JSON report's replay section is these fields (and those of each
    # ProofStep), in this order
    theorem_id: str
    route: str                      # "analytic" | "numerical"
    label: str
    gram_schmidt_residual: float
    delta: float
    final_lhs: float
    final_rhs: float
    tol: float
    ok: bool
    flags: tuple[str, ...]
    steps: tuple[ProofStep, ...]

    @property
    def worst_slack(self) -> float:
        return min(s.slack for s in self.steps)

    def step(self, name: str) -> ProofStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class ChainInputs:
    """Everything the chain reads, however it was obtained.

    w is the weight (eigenvalue lam_w), z_a the rotated coordinates,
    psi_a = (z_a - c_a) w the trial functions and
    f_a = w Lap z_a + 2 g(grad z_a, grad w).  Per-coordinate arrays hold one
    entry per rotated coordinate; the first len(gaps) of them are paired with
    an eigenfunction, and the summed steps run over those.
    """

    n: int
    norms2: np.ndarray        # int psi_a^2
    rayleigh: np.ndarray      # int psi_a P psi_a - lam_w int psi_a^2
    rayleigh_ibp: np.ndarray  # the same, integrated by parts
    t1: np.ndarray            # int f_a^2
    cross: np.ndarray         # int psi_a f_a
    grad_energy: np.ndarray   # int w^2 |grad z_a|^2
    gaps: np.ndarray          # lam_a - lam_w over the paired coordinates
    root_gaps: np.ndarray     # sqrt(max(lam_j - lam_w, 0)) for every j above the weight
    orthogonality: float      # largest pairing of a psi_a with an eigenfunction below it
    laplacian: float          # max |sum (Lap z)^2 - n^2 |H|^2|
    resolution: float         # max |sum g(grad z, grad w)^2 - |grad w|^2|
    energy: float             # max |sum |grad z|^2 - n|
    max_grad_sq: float        # max over points and a of |grad z_a|^2
    gauss_excess: float       # max of n^2 |H|^2 + tr R - n (n^2 - 4) |H|^2 / 2 (n > 4)
    p_raw: float              # int (n^2 |H|^2 + tr R) w^2 + 2 (n + 2) int |grad w|^2
    p_used: float             # p_raw after the Gauss estimate (n > 4)
    q_used: float             # int n^2 |H|^2 w^2 + 4 int |grad w|^2


def _ineq(steps, name, lhs, rhs, note=""):
    steps.append(ProofStep(name, "inequality", float(lhs), float(rhs),
                           float(rhs) - float(lhs), note))


def _ident(steps, name, lhs, rhs, note=""):
    steps.append(ProofStep(name, "identity", float(lhs), float(rhs),
                           -abs(float(lhs) - float(rhs)), note))


def _worst(steps, name, lhs_vec, rhs_vec, kind, note=""):
    """Collapse a per-alpha family to its worst member."""
    lhs_vec = np.atleast_1d(np.asarray(lhs_vec, dtype=float))
    rhs_vec = np.atleast_1d(np.asarray(rhs_vec, dtype=float))
    rhs_vec = np.broadcast_to(rhs_vec, lhs_vec.shape)
    note = note or f"worst of {lhs_vec.size} trial functions"
    if kind == "inequality":
        i = int(np.argmin(rhs_vec - lhs_vec))
        _ineq(steps, name, lhs_vec[i], rhs_vec[i], note)
    else:
        i = int(np.argmax(np.abs(lhs_vec - rhs_vec)))
        _ident(steps, name, lhs_vec[i], rhs_vec[i], note)


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
# the chain
# --------------------------------------------------------------------------

def _chain(theorem_id: str, route: str, label: str, inp: ChainInputs,
           gram_schmidt_residual: float, tol: float, flags=()) -> ProofChainReport:
    """Every step of the trial-function argument, from its inputs."""
    n, big_n, b = inp.n, inp.norms2.size, inp.gaps.size
    flags = list(flags)
    every = f"all {big_n} rotated coordinates"
    summed = f"{b} of {big_n} trial functions" + (" (partial sum)" if b < big_n else "")
    gaps, norms2 = inp.gaps, inp.norms2[:b]
    steps: list[ProofStep] = []

    _ident(steps, "trial_orthogonality", inp.orthogonality, 0.0,
           "largest pairing of a trial function with an eigenfunction below it")
    _worst(steps, "quadratic_form_identity", inp.rayleigh, inp.rayleigh_ibp, "identity",
           note=every)
    _worst(steps, "rayleigh_ritz", gaps * norms2, inp.rayleigh[:b], "inequality")

    # rotation-invariant coordinate identities, pointwise
    _ident(steps, "laplacian_coordinate_identity", inp.laplacian, 0.0,
           "max pointwise |sum (Lap z)^2 - n^2 |H|^2|")
    _ident(steps, "gradient_resolution_identity", inp.resolution, 0.0,
           "max pointwise |sum g(grad z, grad w)^2 - |grad w|^2|")
    _ident(steps, "coordinate_energy_identity", inp.energy, 0.0,
           "max pointwise |sum |grad z|^2 - n|")

    _ineq(steps, "summed_trace_bound", float(np.sum(gaps * norms2)), inp.p_raw, summed)
    _worst(steps, "gradient_identity", inp.cross, -inp.grad_energy, "identity", note=every)
    if n > 4:
        _ineq(steps, "gauss_scalar_estimate", inp.gauss_excess, 0.0,
              "max pointwise excess over the umbilical-case integrand")

    choice = optimal_delta(inp.p_used, inp.q_used)
    if choice.degenerate:
        raise GateError("AM-GM pivot degenerates: a curvature integral vanished")
    delta = choice.delta
    roots, energy = inp.root_gaps[:b], inp.grad_energy[:b]
    _worst(steps, "am_gm_pivot", roots * energy,
           0.5 * (delta * gaps * norms2 + inp.t1[:b] / delta), "inequality")
    _ineq(steps, "summed_gradient_bound", float(np.sum(roots * energy)),
          0.5 * (delta * inp.p_used + inp.q_used / delta), summed)
    _ineq(steps, "gradient_pointwise_bound", inp.max_grad_sq, 1.0,
          "max over grid and alpha of |grad z|^2")

    # sorting: the first n gradient energies plus the (n+1)-th gap soak up
    # the remaining coordinate energy
    lead = float(np.sum(inp.root_gaps[:n] * inp.grad_energy[:n]))
    sorted_mid = lead + inp.root_gaps[n] * (n - float(np.sum(inp.grad_energy[:n])))
    final_lhs = float(np.sum(inp.root_gaps[:n]))
    _ineq(steps, "sorting_bound", final_lhs, sorted_mid)
    if b == big_n:
        _ineq(steps, "sorted_tail_comparison", sorted_mid, float(np.sum(roots * energy)),
              "rearranged middle vs the full rotated sum")
    else:
        flags.append("partial_chain")

    final_rhs = choice.value
    _ineq(steps, "final_bound", final_lhs, final_rhs)
    for fac, tag in ((1.1, "up"), (1 / 1.1, "down")):
        d = delta * fac
        _ineq(steps, f"delta_perturbation_{tag}", choice.value,
              0.5 * (d * inp.p_used + inp.q_used / d),
              "paper's delta is a local minimum of the pivot")

    ok = all(s.slack >= -tol for s in steps)
    return ProofChainReport(
        theorem_id=theorem_id, route=route, label=label, steps=tuple(steps),
        gram_schmidt_residual=gram_schmidt_residual, delta=delta,
        final_lhs=final_lhs, final_rhs=final_rhs, tol=tol, ok=ok, flags=tuple(flags))


# --------------------------------------------------------------------------
# closed-form route
# --------------------------------------------------------------------------

def replay_proof_analytic(theorem_id: str, model: ModelManifold,
                          tol: float = REPLAY_TOL_ANALYTIC) -> ProofChainReport:
    """Replay on a single round sphere, every input in closed form.

    The first harmonics are the coordinates themselves, so the rotation is
    trivial (z = y), the weight is the constant eigenfunction, and the
    N = n + 1 trial functions psi_a = y_a / sqrt(vol) are exact eigenfunctions
    sharing every integral.  The coordinate identities hold at each point,
    |grad z_a|^2 = 1 - (y_a/r)^2 peaks at 1, and the Gauss integrand is
    constant.  Anything that is not a single sphere goes through the grid
    route instead.
    """
    if model.kind != "sphere" or len(model.factors) != 1:
        raise GateError(
            "closed-form replay covers single round spheres; "
            "sample the immersion on a grid for anything else")
    n = model.n
    _check_theorem(theorem_id, n)
    r = model.factors[0].r
    kappa = paneitz_form(model).kappas[0]

    mu = n / r**2                        # first nonconstant Laplace eigenvalue
    gap = mu**2 + kappa * mu             # first fourth-order line minus lam_w

    each = np.ones(n + 1)
    norm_sq = r**2 / (n + 1)             # int psi^2
    ddz_sq = n**2 / (r**2 * (n + 1))     # int (w Lap z)^2
    grad_int = n / (n + 1)               # int w^2 |grad z|^2
    inputs = ChainInputs(
        n=n, norms2=norm_sq * each, rayleigh=gap * norm_sq * each,
        rayleigh_ibp=(ddz_sq + kappa * grad_int) * each, t1=ddz_sq * each,
        cross=-mu * norm_sq * each, grad_energy=grad_int * each,
        gaps=gap * each, root_gaps=math.sqrt(gap) * each,
        orthogonality=0.0, laplacian=0.0, resolution=0.0, energy=0.0,
        max_grad_sq=1.0, **vars(pivot_integrals(summarize_model(model))))
    return _chain(theorem_id, "analytic", model.describe(), inputs, 0.0, tol)


# --------------------------------------------------------------------------
# grid route
# --------------------------------------------------------------------------

def replay_proof(theorem_id: str, result: SpectrumResult,
                 bundle: CurvatureBundle,
                 tol: float = REPLAY_TOL_NUMERICAL,
                 u1: U1Data | None = None) -> ProofChainReport:
    """Replay on a sampled immersion against a computed spectrum.

    The weight is the exact constant kernel function for thm_1_1 and the
    computed first eigenfunction for thm_1_2, as the bounds read them: u1,
    the bounds' `U1Data` of this result and bundle when the caller has it,
    else `u1_from_result`, which applies the Laplacian once more.
    Coordinates come from the immersion's 2-jet at the grid points.  Needs
    n + 2 eigenpairs; summed steps use however many trial functions the
    spectrum supports (a valid partial sum when fewer than ambient-dimension
    many, flagged).
    """
    n = bundle.n
    _check_theorem(theorem_id, n)
    grid = bundle.grid
    geo = summarize_bundle(bundle)
    vals = snap_kernel(result.eigenvalues)
    k = int(vals.size)
    if k < n + 2:
        raise GateError(f"replay needs at least n + 2 = {n + 2} eigenpairs, got {k}")
    if result.eigenfunctions is None:
        raise GateError("replay needs eigenfunctions alongside eigenvalues")

    wq = bundle.weights
    axes = tuple(range(-grid.n, 0))

    def integ(field):
        return np.sum(field * wq, axis=axes)

    # ---- the weight function and its derivatives
    if n == 4:
        if vals[0] != 0.0:
            raise GateError("kernel eigenvalue not resolved; the n = 4 chain "
                            "anchors on the constant eigenfunction")
        u1 = constant_ground_state(geo)
        dw = np.zeros(grid.shape + (grid.n,))
        lw = np.zeros(grid.shape)
    else:
        if u1 is None:
            u1 = u1_from_result(bundle, result)
        dw = np.moveaxis(bundle.kernel.partials(u1.w), 0, -1)
        lw = u1.lap
    w, lam_w = u1.w, float(vals[0])
    flags = list(u1.flags)

    # ---- rotated coordinates
    y = bundle.y                                       # (*shape, N)
    big_n = y.shape[-1]
    b_avail = min(k - 1, big_n)
    partners = result.eigenfunctions[1:1 + b_avail]    # u after the weight
    partner_w = (partners * (w * wq)).reshape(b_avail, -1)
    gram = y.reshape(-1, big_n).T @ partner_w.T        # (N, B)
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
    trial = (z - center.reshape((big_n,) + (1,) * grid.n)) * w
    norms2 = integ(trial * trial)

    gaps = vals[1:1 + b_avail] - lam_w
    if np.any(gaps < 0):
        flags.append("negative_gap_clamped")

    # pairings of the trial functions with the eigenfunctions below them
    below_w = (result.eigenfunctions[:b_avail] * wq).reshape(b_avail, -1)
    overlap = trial.reshape(big_n, -1) @ below_w.T

    # ---- operator applications and pointwise fields
    p_trial = apply_paneitz(bundle, bundle.coeffs, trial)
    lz = apply_laplacian(bundle, z)
    dz = np.moveaxis(bundle.kernel.partials(z), 0, -1)
    g_inv = bundle.metric.g_inv
    gz2 = np.einsum("a...i,...ij,a...j->a...", dz, g_inv, dz)
    gzw = np.einsum("a...i,...ij,...j->a...", dz, g_inv, dw)
    gw2 = np.einsum("...i,...ij,...j->...", dw, g_inv, dw)

    raised_b = raised_curvature_matrix(bundle.coeffs, bundle.metric, bundle.curv)
    quad_b = np.einsum("a...i,...ij,a...j->a...", dz, raised_b, dz)

    # the integrated-by-parts identity behind the Rayleigh-Ritz numerator
    flux = w * lz + 2.0 * gzw
    t1 = integ(flux * flux)
    t2 = integ(quad_b * (w * w))
    t3 = -2.0 * integ(gz2 * (w * lw))

    inputs = ChainInputs(
        n=n, norms2=norms2, rayleigh=integ(trial * p_trial) - lam_w * norms2,
        rayleigh_ibp=t1 + t2 + t3, t1=t1, cross=integ(trial * flux),
        grad_energy=integ(gz2 * (w * w)),
        gaps=gaps, root_gaps=np.sqrt(np.clip(vals[1:] - lam_w, 0.0, None)),
        orthogonality=float(np.max(np.abs(np.tril(overlap)))),
        laplacian=float(np.max(np.abs(np.sum(lz * lz, axis=0) - n**2 * geo.mean_sq))),
        resolution=float(np.max(np.abs(np.sum(gzw * gzw, axis=0) - gw2))),
        energy=float(np.max(np.abs(np.sum(gz2, axis=0) - n))),
        max_grad_sq=float(np.max(gz2)), **vars(pivot_integrals(geo, u1)))
    label = f"{theorem_id} replay on grid {'x'.join(map(str, grid.shape))}"
    return _chain(theorem_id, "numerical", label, inputs, gs_resid, tol, flags)
