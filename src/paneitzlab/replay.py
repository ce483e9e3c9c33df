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

* ``replay_proof_analytic`` -- any catalog product of round spheres (flat
  tori included), every input a factor's closed form in (p, r) against the
  catalog spectrum.  On the equality cases all slacks vanish.
* ``replay_proof`` -- any curvature bundle plus a computed spectrum, the
  inputs sampled on the grid.  Needs at least n + 2 eigenpairs; with fewer
  than ambient-dimension many, summed steps degrade to valid partial sums
  and are flagged.

Both take the pivot's integrals from ``bounds.pivot_integrals`` and the
weight from a ``bounds.U1Data``, as the bounds do, so a chain's
``final_rhs`` is its bound's rhs; both emit the same step names.

The grid route forms the rotated coordinates one at a time and keeps of
each only its integrals, its pairings with the eigenfunctions and three
running pointwise sums: it holds one coordinate's grid fields at a time.

Inside a degenerate eigencluster the grid route's eigenfunctions are the
basis the solver happened to pick.  The per-step lhs and rhs depend on it,
and so does the slack of ``gradient_pointwise_bound``, a grid maximum of
gradients: across solver changes only the worst slack is comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BOUNDS, GeometrySummary, U1Data, constant_ground_state, optimal_delta,
                     pivot_integrals, snap_kernel, summarize_bundle, summarize_model,
                     u1_from_lines, u1_from_result)
from .catalog import ModelManifold, expand_lines, paneitz_form, paneitz_spectrum
from .discrete import CurvatureBundle, PaneitzOperator, packed_flux
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
    """Replay on a catalog product of round spheres, every input in closed form.

    The p + 1 coordinates of a factor S^p(r) are first harmonics, so the
    rotation is trivial (z = y) and each is an eigenfunction of value
    mu^2 + kappa mu + (n - 4) Q / 2, mu = p / r^2, kappa its factor's.  The
    weight is the bottom line's (`u1_from_lines`, as the bounds read it),
    the constant: kappa > -mu on every factor keeps all else above it.
    Sorted by value, the coordinates pair with the true spectrum, the a-th
    at or above lambda_{a+1}.  Each integral is its factor's closed form,
    the coordinate identities hold at every point, and |grad y_j|^2 =
    1 - (y_j/r)^2 peaks at 1.  A round sphere is the one-factor case.
    """
    n, big_n = model.n, model.ambient_dim
    _check_theorem(theorem_id, n)
    lines = paneitz_spectrum(model, big_n + 1).lines
    vals = np.array(expand_lines(lines, big_n + 1))
    geo = summarize_model(model)
    u1 = u1_from_lines(geo, lines)
    form = paneitz_form(model)

    p = np.array([f.p for f in model.factors])
    r2 = np.array([f.r**2 for f in model.factors])
    mu, kappa = p / r2, np.array(form.kappas)
    # per coordinate, sorted by value: value, mu, kappa, int psi^2, int w^2 |grad z|^2
    rows = np.repeat([mu**2 + kappa * mu + form.zero_order, mu, kappa, r2 / (p + 1),
                      p / (p + 1)], p + 1, axis=1)
    value, mu, kappa, norm_sq, grad_int = rows[:, np.argsort(rows[0], kind="stable")]
    t1 = mu**2 * norm_sq                 # int (w Lap z)^2
    gaps = vals[1:] - vals[0]
    inputs = ChainInputs(
        n=n, norms2=norm_sq, rayleigh=(value - vals[0]) * norm_sq,
        rayleigh_ibp=t1 + kappa * grad_int, t1=t1, cross=-mu * norm_sq,
        grad_energy=grad_int, gaps=gaps, root_gaps=np.sqrt(gaps),
        orthogonality=0.0, laplacian=0.0, resolution=0.0, energy=0.0,
        max_grad_sq=1.0, **vars(pivot_integrals(geo, u1)))
    return _chain(theorem_id, "analytic", model.describe(), inputs, 0.0, tol, u1.flags)


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
    geo = summarize_bundle(bundle)
    vals = snap_kernel(result.eigenvalues)
    if vals.size < n + 2:
        raise GateError(f"replay needs at least n + 2 = {n + 2} eigenpairs, got {vals.size}")
    if result.eigenfunctions is None:
        raise GateError("replay needs eigenfunctions alongside eigenvalues")
    if n == 4:
        if vals[0] != 0.0:
            raise GateError("kernel eigenvalue not resolved; the n = 4 chain "
                            "anchors on the constant eigenfunction")
        u1 = constant_ground_state(geo)
    elif u1 is None:
        u1 = u1_from_result(bundle, result)
    inputs, gs_resid, flags = grid_chain_inputs(bundle, geo, result, u1)
    label = f"{theorem_id} replay on grid {'x'.join(map(str, bundle.grid.shape))}"
    return _chain(theorem_id, "numerical", label, inputs, gs_resid, tol, flags)


def grid_chain_inputs(bundle: CurvatureBundle, geo: GeometrySummary, result: SpectrumResult,
                      u1: U1Data) -> tuple[ChainInputs, float, list[str]]:
    """The chain's inputs on the grid for the weight u1 (constant when it
    carries no Laplacian), the Gram-Schmidt residual of the rotation, and
    the flags raised on the way.

    The rotation comes first, from the Gram matrix of the coordinates
    against the weighted eigenfunctions after the weight.  Then one rotated
    coordinate at a time: z_a, its trial function, P psi_a, Lap z_a and
    grad z_a, reduced to their integrals, their pairings with the
    eigenfunctions (matrix-vector products) and three running pointwise sums.
    """
    n, shape = bundle.n, bundle.grid.shape
    vals = snap_kernel(result.eigenvalues)
    wq, g_inv, coeff_flux = bundle.weights, bundle.g_inv, bundle.coeff_flux
    integ = geo.integrate
    w, lam_w = u1.w, float(vals[0])
    flags = list(u1.flags)
    if u1.lap is None:
        dw, lw = np.zeros(shape + (n,)), np.zeros(shape)
    else:
        dw, lw = np.moveaxis(bundle.kernel.partials(w), 0, -1), u1.lap

    # ---- the rotation
    y = bundle.y.reshape(-1, bundle.y.shape[-1])        # (points, N)
    big_n = y.shape[1]
    b_avail = min(vals.size - 1, big_n)
    funcs = result.eigenfunctions.reshape(vals.size, -1)
    partners, below = funcs[1:1 + b_avail], funcs[:b_avail]
    ww = w * wq
    gram = y.T @ (partners * ww.reshape(-1)).T          # (N, B)
    q_rot, r_tri = np.linalg.qr(gram, mode="complete")
    pivots = np.abs(np.diag(r_tri[:b_avail, :b_avail]))
    if np.any(pivots <= 1e-10 * max(1.0, float(np.linalg.norm(gram)))):
        flags.append("degenerate_coordinate_configuration")
    gaps = vals[1:1 + b_avail] - lam_w
    if np.any(gaps < 0):
        flags.append("negative_gap_clamped")

    # ---- one rotated coordinate at a time: with v = g^{-1} grad z_a,
    # |grad z_a|^2 = g(v, v) is grad z_a . v, and the curvature form is the
    # operator's own, grad z_a . (coeff_flux grad z_a) / sqrt(g) (0 when flat)
    lap_op, p_op = PaneitzOperator(bundle, None), PaneitzOperator(bundle, bundle.coeffs)
    w2, w_lw, w2_inv_root = w * w, w * lw, w * w * bundle.inv_sqrt_det
    rows, lower, overlap = [], [], []
    lap_sum, res_sum, energy_sum = (np.zeros(shape) for _ in range(3))
    max_grad_sq = -math.inf
    for a in range(big_n):
        z = (y @ q_rot[:, a]).reshape(shape)
        lower.append(partners @ (z * ww).reshape(-1))
        trial = (z - integ(z * w2)) * w
        overlap.append(below @ (trial * wq).reshape(-1))
        lz = -lap_op.apply(z)
        grad = bundle.kernel.partials(z)
        dz = np.moveaxis(grad, 0, -1)
        v = np.einsum("...ij,...j->...i", g_inv, dz)
        gz2 = np.einsum("...i,...i->...", dz, v)
        gzw = np.einsum("...i,...i->...", v, dw)
        curvature = 0.0 if coeff_flux is None else integ(np.einsum(
            "i...,i...,...->...", grad, packed_flux(coeff_flux, grad), w2_inv_root))
        # the integrated-by-parts identity behind the Rayleigh-Ritz numerator
        flux = w * lz + 2.0 * gzw
        norm2, t1 = integ(trial * trial), integ(flux * flux)
        rows.append((norm2, integ(trial * p_op.apply(trial)) - lam_w * norm2,
                     t1 + curvature - 2.0 * integ(gz2 * w_lw), t1,
                     integ(trial * flux), integ(gz2 * w2)))
        lap_sum += lz * lz
        res_sum += gzw * gzw
        energy_sum += gz2
        max_grad_sq = max(max_grad_sq, float(np.max(gz2)))
    norms2, rayleigh, rayleigh_ibp, t1, cross, grad_energy = np.array(rows).T

    gw2 = np.einsum("...i,...ij,...j->...", dw, g_inv, dw)
    inputs = ChainInputs(
        n=n, norms2=norms2, rayleigh=rayleigh, rayleigh_ibp=rayleigh_ibp, t1=t1,
        cross=cross, grad_energy=grad_energy,
        gaps=gaps, root_gaps=np.sqrt(np.clip(vals[1:] - lam_w, 0.0, None)),
        orthogonality=float(np.max(np.abs(np.tril(np.array(overlap))))),
        laplacian=float(np.max(np.abs(lap_sum - n**2 * geo.mean_sq))),
        resolution=float(np.max(np.abs(res_sum - gw2))),
        energy=float(np.max(np.abs(energy_sum - n))),
        max_grad_sq=max_grad_sq, **vars(pivot_integrals(geo, u1)))
    gs_resid = float(np.max(np.abs(np.tril(np.array(lower), -1)))) if b_avail else 0.0
    return inputs, gs_resid, flags
