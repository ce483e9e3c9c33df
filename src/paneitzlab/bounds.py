"""Eigenvalue-bound evaluation and equality diagnosis.

`BOUNDS` is the one table of bounds: each row holds a bound's hypotheses,
the number of eigenvalues it reads and a formula that computes only its two
sides.  `evaluate` is the one way in.  It checks a row's hypotheses in a
fixed order and raises each refusal from one line, in one form:
dimension (``{id} is stated for {dims}, got n = {n}``), unit-sphere ambient
(``{id} needs a manifold in the unit sphere``), eigenvalue count
(``{id}: need {k} eigenvalues, have {m}``), then lambda_1 > 0 for the
refusable row (``operator is not positive on ...``).

Formulas take a multiplicity-expanded ascending spectrum plus a
GeometrySummary — the small bridge type that lets closed-form catalog
constants and sampled curvature bundles feed the same formulas.  Reports
carry both sides, the slack, and flags for anything that pushed the input
outside a theorem's hypotheses (clamped negative eigenvalues, kernel
snapping, equality showing up off the classified cases).

Sign conventions: slack = rhs - lhs, so valid inputs keep slack >= -tol;
`ok` records that gate.  Ambient-sphere variants measure the mean curvature
inside the unit sphere, which enters the integrands as |H|^2 + 1 — exactly
the euclidean |H|^2 of the composed immersion, so they share the formulas.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import ModelManifold, model_constants
from .coefficients import paneitz_coefficients
from .discrete import CurvatureBundle, apply_laplacian, inner
from .errors import GateError, InvalidDimensionError, PositivityError
from .fourier import unit_sphere_deviation

#: relative equality tolerance for closed-form inputs
TOL_EQ_ANALYTIC = 1e-8
#: relative equality tolerance for discretized inputs
TOL_EQ_NUMERICAL = 1e-4
#: |lambda| below this times max(1, lambda_max) counts as the kernel
KERNEL_SNAP_RTOL = 1e-9
#: relative field variation allowed in equality diagnosis
DIAGNOSIS_RTOL = 1e-6
#: |y|^2 may deviate from 1 by at most this for sphere-ambient bounds
SPHERE_DEVIATION_TOL = 1e-9


@dataclass(frozen=True)
class GeometrySummary:
    """Curvature data of one manifold in bound-ready form.

    Fields are euclidean (ambient R^N) pointwise arrays, or plain scalars
    for closed-form models; `weights=None` marks the scalar case.  `scalar`
    and `q` are intrinsic.  For `ambient_unit_sphere` inputs the in-sphere
    |H|^2 is mean_sq - 1.
    """

    n: int
    volume: float
    mean_sq: np.ndarray | float
    s_norm: np.ndarray | float
    scalar: np.ndarray | float
    q: np.ndarray | float
    ambient_unit_sphere: bool
    numerical: bool
    label: str
    weights: np.ndarray | None = None

    def integrate(self, f) -> float:
        if self.weights is None:
            return float(f) * self.volume
        return float(np.sum(np.broadcast_to(f, self.weights.shape) * self.weights))

    @property
    def tol_eq(self) -> float:
        return TOL_EQ_NUMERICAL if self.numerical else TOL_EQ_ANALYTIC


def summarize_model(m: ModelManifold) -> GeometrySummary:
    mc = model_constants(m)
    return GeometrySummary(
        n=m.n,
        volume=mc.volume,
        mean_sq=mc.mean_sq_euclidean,
        s_norm=mc.s_norm_euclidean,
        scalar=mc.scalar,
        q=mc.q,
        ambient_unit_sphere=(m.ambient == "unit_sphere"),
        numerical=False,
        label=m.describe(),
    )


def summarize_bundle(bundle: CurvatureBundle) -> GeometrySummary:
    return GeometrySummary(
        n=bundle.n,
        volume=bundle.volume,
        mean_sq=bundle.curv.mean_sq,
        s_norm=bundle.curv.s_norm,
        scalar=bundle.curv.scalar,
        q=bundle.q_field if bundle.q_field is not None else 0.0,
        ambient_unit_sphere=unit_sphere_deviation(bundle.y) <= SPHERE_DEVIATION_TOL,
        numerical=True,
        label=f"immersion on grid {'x'.join(map(str, bundle.grid.shape))}",
        weights=bundle.weights,
    )


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    lhs: float
    rhs: float
    slack: float
    relative_slack: float
    equality: bool
    strictness_expected: bool
    ok: bool                      # slack >= -tol_eq * |rhs|
    tol_eq: float
    inputs: dict
    flags: tuple[str, ...] = ()


def _report(bound_id, lhs, rhs, geo, k, flags, strict=False, tol_eq=None) -> BoundReport:
    tol = geo.tol_eq if tol_eq is None else tol_eq
    slack = rhs - lhs
    rel = slack / abs(rhs) if rhs else math.inf
    return BoundReport(
        bound_id=bound_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        relative_slack=rel,
        equality=abs(slack) <= tol * abs(rhs),
        strictness_expected=strict,
        ok=slack >= -tol * abs(rhs),
        tol_eq=tol,
        inputs={"manifold": geo.label, "n": geo.n, "k": k, "tol_eq": tol},
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class EqualityDiagnosis:
    umbilical: bool
    constant_H: bool
    constant_R: bool
    minimal_in_sphere: bool
    matched_case: str             # round_sphere | minimal_const_R_in_sphere | none


@dataclass
class U1Data:
    """Ground-eigenfunction data for the gap bounds: u_1^2 as a field
    (None means the constant 1/vol) and the Dirichlet energy of u_1."""

    u1_sq: np.ndarray | None = None
    grad_energy: float = 0.0
    multiple: bool = False
    flags: tuple[str, ...] = field(default_factory=tuple)


def u1_from_result(bundle: CurvatureBundle, result) -> U1Data:
    """Extract u_1 data from a discrete SpectrumResult (ground pair first)."""
    u1 = result.eigenfunctions[0]
    nrm = inner(bundle, u1, u1)
    u1 = u1 / math.sqrt(nrm)
    grad = -inner(bundle, u1, apply_laplacian(bundle, u1))
    multiple = result.clusters[0][1] > 1
    flags = ("lambda_1_multiple",) if multiple else ()
    return U1Data(u1_sq=u1 * u1, grad_energy=grad, multiple=multiple, flags=flags)


# --------------------------------------------------------------------------
# the formulas: (snapped spectrum, geo, u1, flags) -> (lhs, rhs)
# --------------------------------------------------------------------------

def snap_kernel(values, rtol: float = KERNEL_SNAP_RTOL) -> np.ndarray:
    """Zero out eigenvalues that are numerically the constants' kernel: within
    rtol max |lambda| of zero, so the snap is scale covariant."""
    values = np.asarray(values, dtype=float).copy()
    values[np.abs(values) <= rtol * np.max(np.abs(values), initial=0.0)] = 0.0
    return values


def _sqrt_clamped(vals, flags):
    vals = np.asarray(vals, dtype=float)
    if np.any(vals < 0):
        flags.append("negative_eigenvalue_clamped; out of theorem hypotheses")
    return np.sqrt(np.maximum(vals, 0.0))


def _sum_formula(values, geo, u1, flags):
    """Sum of the four root eigenvalues of a 4-manifold against the
    curvature-integral bound."""
    lhs = float(np.sum(_sqrt_clamped(values[:4], flags)))
    p = geo.integrate(16.0 * geo.mean_sq + (2.0 / 3.0) * geo.scalar)
    h = geo.integrate(geo.mean_sq)
    return lhs, 4.0 * math.sqrt(max(p * h, 0.0)) / geo.volume


def _gap_formula(values, geo, u1, flags):
    """Sum of root gaps (lambda_{j+1} - lambda_1), j = 1..n, weighted by the
    ground eigenfunction."""
    n = geo.n
    u1 = u1 or U1Data()
    flags.extend(u1.flags)
    gaps = values[1 : n + 1] - values[0]
    if np.any(gaps < -geo.tol_eq):
        flags.append("negative_gap_clamped")
    lhs = float(np.sum(_sqrt_clamped(np.maximum(gaps, 0.0), flags)))
    if u1.u1_sq is None:  # constant ground state, u_1^2 = 1/vol
        h = geo.integrate(geo.mean_sq) / geo.volume
    else:
        h = geo.integrate(geo.mean_sq * u1.u1_sq)
    grad = u1.grad_energy
    p = 0.5 * n * (n * n - 4.0) * h + 2.0 * (n + 2.0) * grad
    q = n * n * h + 4.0 * grad
    return lhs, math.sqrt(max(p, 0.0)) * math.sqrt(max(q, 0.0))


def _strict_formula(values, geo, u1, flags):
    """The first n root eigenvalues of a unit-sphere submanifold, n != 4."""
    n = geo.n
    lhs = float(np.sum(_sqrt_clamped(values[:n], flags)))
    c = paneitz_coefficients(n)
    p = geo.integrate(n * n * geo.mean_sq + float(c.trace_coefficient) * geo.scalar
                      + float(c.q_factor) * geo.q)
    h = geo.integrate(geo.mean_sq)
    return lhs, n * math.sqrt(max(p * h, 0.0)) / geo.volume


def _first_formula(values, geo, u1, flags):
    """The introduction's lambda_1 bound on 4-manifolds."""
    rhs = (geo.integrate(16.0 * geo.mean_sq + (2.0 / 3.0) * geo.scalar)
           * geo.integrate(geo.mean_sq)) / geo.volume**2
    return float(values[0]), rhs


def _second_formula(values, geo, u1, flags):
    """The introduction's lambda_2 bound for n >= 7."""
    n = geo.n
    qfac = float(paneitz_coefficients(n).q_factor)
    rhs = (0.5 * n * (n * n - 4.0) * geo.integrate(geo.mean_sq**2)
           + qfac * geo.integrate(geo.q)) / geo.volume
    return float(values[1]), rhs


# --------------------------------------------------------------------------
# the bound registry
# --------------------------------------------------------------------------

#: the dimensions a bound is stated for, by the words that state them
DIMENSION_RULES = {
    "4-manifolds": lambda n: n == 4,
    "n > 4": lambda n: n > 4,
    "n >= 7": lambda n: n >= 7,
    "n != 4": lambda n: n != 4,
}


@dataclass(frozen=True)
class BoundRule:
    """One bound: its hypotheses, formula(values, geo, u1, flags) -> (lhs,
    rhs), and count(n), the eigenvalues it reads (the n = 4 kernel slot
    included).  A refusable bound also needs lambda_1 > 0 and is strict."""

    bound_id: str
    dims: str                     # a key of DIMENSION_RULES
    formula: Callable
    count: Callable
    unit_sphere: bool = False     # needs the unit-sphere ambient
    needs_u1: bool = False        # reads the ground eigenfunction
    refusable: bool = False       # a PositivityError is a refusal while others apply
    replayable: bool = False      # replay.py re-runs its proof chain

    def applies(self, n: int, unit_sphere: bool = True) -> bool:
        """Hypotheses hold in dimension n (and, if given, in that ambient)."""
        return DIMENSION_RULES[self.dims](n) and (unit_sphere or not self.unit_sphere)

    def require(self, n: int) -> None:
        """Refuse a dimension the bound is not stated for."""
        if not self.applies(n):
            raise InvalidDimensionError(f"{self.bound_id} is stated for {self.dims}, got n = {n}")

    @property
    def lowest_dim(self) -> int:
        """The smallest n >= 3 (where the operator exists) the bound covers."""
        return next(n for n in itertools.count(3) if self.applies(n))


#: every bound, in report order
BOUNDS = {rule.bound_id: rule for rule in (
    BoundRule("thm_1_1", "4-manifolds", _sum_formula, lambda n: 5, replayable=True),
    BoundRule("chenli_l1", "4-manifolds", _first_formula, lambda n: 2),
    BoundRule("cor_1_1", "4-manifolds", _sum_formula, lambda n: 5, unit_sphere=True),
    BoundRule("thm_1_2", "n > 4", _gap_formula, lambda n: n + 1, needs_u1=True, replayable=True),
    BoundRule("cor_3_1", "n > 4", _gap_formula, lambda n: n + 1, unit_sphere=True, needs_u1=True),
    BoundRule("chenli_l2", "n >= 7", _second_formula, lambda n: 2),
    BoundRule("thm_1_3", "n != 4", _strict_formula, lambda n: n, unit_sphere=True, refusable=True),
)}


def evaluate(bound_id: str, eigenvalues, geo: GeometrySummary, u1: U1Data | None = None,
             tol_eq: float | None = None) -> BoundReport:
    """Check a bound's hypotheses in the order dimension, unit-sphere
    ambient, eigenvalue count, lambda_1 > 0 (refusable bounds), then
    evaluate its formula.  On 4-manifolds the operator kills constants, so
    the leading lambda_0 = 0 is dropped before the formula indexes."""
    rule = BOUNDS[bound_id]
    rule.require(geo.n)
    if rule.unit_sphere and not geo.ambient_unit_sphere:
        raise GateError(f"{bound_id} needs a manifold in the unit sphere")
    values = snap_kernel(eigenvalues)
    need, k = rule.count(geo.n), values.size
    if k < need:
        raise GateError(f"{bound_id}: need {need} eigenvalues, have {k}")
    if rule.refusable and values[0] <= 0.0:
        raise PositivityError(
            f"operator is not positive on {geo.label}: lambda_1 = {float(values[0]):.6g} <= 0")
    flags: list[str] = []
    if geo.n == 4:
        if values[0] != 0.0:
            flags.append("kernel_not_found_n4")
        values = values[1:]
    lhs, rhs = rule.formula(values, geo, u1, flags)
    rep = _report(bound_id, lhs, rhs, geo, k, flags, strict=rule.refusable, tol_eq=tol_eq)
    return _flag_off_case_equality(rep, geo) if geo.n == 4 else rep


def verify_thm_1_1(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """Four root eigenvalues of a 4-manifold against curvature integrals."""
    return evaluate("thm_1_1", eigenvalues, geo, tol_eq=tol_eq)


def verify_cor_1_1(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """thm_1_1 for submanifolds of the unit sphere."""
    return evaluate("cor_1_1", eigenvalues, geo, tol_eq=tol_eq)


def verify_thm_1_2(eigenvalues, geo: GeometrySummary, u1: U1Data | None = None,
                   tol_eq: float | None = None) -> BoundReport:
    """Gap bound for n > 4; no positivity assumption."""
    return evaluate("thm_1_2", eigenvalues, geo, u1, tol_eq)


def verify_cor_3_1(eigenvalues, geo: GeometrySummary, u1: U1Data | None = None,
                   tol_eq: float | None = None) -> BoundReport:
    """thm_1_2 for submanifolds of the unit sphere."""
    return evaluate("cor_3_1", eigenvalues, geo, u1, tol_eq)


def verify_thm_1_3(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """Strict bound for unit-sphere submanifolds, n != 4, lambda_1 > 0."""
    return evaluate("thm_1_3", eigenvalues, geo, tol_eq=tol_eq)


def verify_intro_bounds(eigenvalues, geo: GeometrySummary,
                        tol_eq: float | None = None) -> list[BoundReport]:
    """The two earlier bounds quoted in the introduction that apply in
    dimension n: chenli_l1 for n = 4, chenli_l2 for n >= 7."""
    reports = [evaluate(bound_id, eigenvalues, geo, tol_eq=tol_eq)
               for bound_id in ("chenli_l1", "chenli_l2") if BOUNDS[bound_id].applies(geo.n)]
    if not reports:
        raise InvalidDimensionError(f"no introductory bound applies to n = {geo.n}")
    return reports


# --------------------------------------------------------------------------
# equality diagnosis
# --------------------------------------------------------------------------

def _rel_variation(f) -> float:
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(arr))))
    return float(np.ptp(arr)) / scale


def diagnose_equality(geo: GeometrySummary, rtol: float = DIAGNOSIS_RTOL) -> EqualityDiagnosis:
    """Classify which (if any) equality case the curvature fields match."""
    h2 = np.asarray(geo.mean_sq, dtype=float)
    s = np.asarray(geo.s_norm, dtype=float)
    scale = max(1.0, float(np.max(np.abs(s))))
    umbilical = bool(np.max(np.abs(s - geo.n * h2)) <= rtol * scale)
    constant_h = _rel_variation(h2) <= rtol
    constant_r = _rel_variation(geo.scalar) <= rtol
    minimal = bool(geo.ambient_unit_sphere and np.max(np.abs(h2 - 1.0)) <= rtol)
    if umbilical and constant_h:
        matched = "round_sphere"
    elif minimal and constant_r:
        matched = "minimal_const_R_in_sphere"
    else:
        matched = "none"
    return EqualityDiagnosis(
        umbilical=umbilical,
        constant_H=constant_h,
        constant_R=constant_r,
        minimal_in_sphere=minimal,
        matched_case=matched,
    )


def _flag_off_case_equality(rep: BoundReport, geo: GeometrySummary) -> BoundReport:
    """Equality outside the classified cases is legitimate but noteworthy
    (flat 4-tori hit it); surface it rather than letting it pass silently."""
    if not rep.equality:
        return rep
    if diagnose_equality(geo).matched_case != "none":
        return rep
    return replace(rep, flags=rep.flags + ("equality_outside_classification",))


# --------------------------------------------------------------------------
# the AM-GM pivot
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaChoice:
    delta: float
    value: float
    degenerate: bool = False


def optimal_delta(p: float, q: float) -> DeltaChoice:
    """Minimize (delta p + q/delta)/2 over delta > 0: delta* = sqrt(q/p),
    value sqrt(p q).  Either coefficient vanishing degenerates the pivot:
    p = 0 pushes delta* to infinity, q = 0 to zero, and in both cases the
    infimum is 0 but no minimizing delta exists."""
    if p < 0 or q < 0:
        raise ValueError(f"need p >= 0 and q >= 0, got p = {p}, q = {q}")
    if p == 0:
        return DeltaChoice(delta=math.inf, value=0.0, degenerate=True)
    if q == 0:
        return DeltaChoice(delta=0.0, value=0.0, degenerate=True)
    return DeltaChoice(delta=math.sqrt(q / p), value=math.sqrt(p * q))
