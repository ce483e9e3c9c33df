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
GeometrySummary, curvature fields on a bundle's grid or on a catalog model's
one point of weight vol.  The sharp bounds read the AM-GM pivot's integrals
from `pivot_integrals`, as both replay routes do.  Reports carry both sides,
the slack, and flags for anything that pushed the input outside a theorem's
hypotheses (clamped negative eigenvalues, kernel snapping, a multiple bottom
eigenvalue, equality showing up off the classified cases).

Sign conventions: slack = rhs - lhs, so valid inputs keep slack >= -tol;
`ok` records that gate.  Ambient-sphere variants measure the mean curvature
inside the unit sphere, which enters the integrands as |H|^2 + 1 — exactly
the euclidean |H|^2 of the composed immersion, so they share the formulas.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .catalog import ModelManifold, model_constants
from .coefficients import paneitz_coefficients
from .discrete import CurvatureBundle, apply_laplacian, integrate
from .errors import AmbiguityError, GateError, InvalidDimensionError, PositivityError
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

    Fields are euclidean (ambient R^N) values at the quadrature points of
    `weights`: a grid's sample points, or a catalog model's single point of
    weight vol.  `scalar` and `q` are intrinsic.  For `ambient_unit_sphere`
    inputs the in-sphere |H|^2 is mean_sq - 1.
    """

    n: int
    volume: float
    mean_sq: np.ndarray
    s_norm: np.ndarray
    scalar: np.ndarray
    q: np.ndarray | float
    ambient_unit_sphere: bool
    numerical: bool
    label: str
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float((f * self.weights).sum())

    @property
    def tol_eq(self) -> float:
        return TOL_EQ_NUMERICAL if self.numerical else TOL_EQ_ANALYTIC


def summarize_model(m: ModelManifold) -> GeometrySummary:
    """One point of weight vol: it integrates a homogeneous model's constant
    fields exactly."""
    mc = model_constants(m)
    return GeometrySummary(
        n=m.n,
        volume=mc.volume,
        mean_sq=np.array([mc.mean_sq_euclidean]),
        s_norm=np.array([mc.s_norm_euclidean]),
        scalar=np.array([mc.scalar]),
        q=np.array([mc.q]),
        ambient_unit_sphere=(m.ambient == "unit_sphere"),
        numerical=False,
        label=m.describe(),
        weights=np.array([mc.volume]),
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


@dataclass(frozen=True)
class U1Data:
    """The ground state w at a GeometrySummary's points (unit L^2 norm; on a
    grid, signed as `eigensolve.spectrum` left it), its energy
    int |grad w|^2, Lap w on a grid, and whether the bottom eigenvalue is
    multiple.  Every consumer is invariant under w -> -w."""

    w: np.ndarray
    grad_energy: float
    multiple: bool = False
    lap: np.ndarray | None = None

    @property
    def u1_sq(self) -> np.ndarray:
        return self.w * self.w

    @property
    def flags(self) -> tuple[str, ...]:
        return ("first_eigenvalue_multiple",) if self.multiple else ()


def u1_from_result(bundle: CurvatureBundle, result) -> U1Data:
    """The computed ground pair of a grid SpectrumResult (ground pair first),
    its eigenfunction as `eigensolve.spectrum` normalized and signed it."""
    w = result.eigenfunctions[0]
    lap = apply_laplacian(bundle, w)
    return U1Data(w=w, grad_energy=-integrate(bundle, w * lap),
                  multiple=result.clusters[0][1] > 1, lap=lap)


def constant_ground_state(geo: GeometrySummary, grad_energy: float = 0.0,
                          multiple: bool = False) -> U1Data:
    """1/sqrt(vol) on geo's points: the n = 4 kernel weight, and a catalog
    model's ground state whatever its degree, since against a constant |H|^2
    only int w^2 = 1 and the energy reach the pivot."""
    return U1Data(w=np.full(geo.weights.shape, geo.volume ** -0.5),
                  grad_energy=grad_energy, multiple=multiple)


def u1_from_lines(geo: GeometrySummary, lines) -> U1Data:
    """The ground state of a catalog model from its closed-form lines
    (`catalog.SpectralLine`, ascending).  A bottom line gathered from more
    than one degree tuple has no canonical eigenfunction, which the gap
    bounds need, so it is refused."""
    bottom = lines[0]
    if bottom.tuples > 1:
        raise AmbiguityError(
            f"bottom line {bottom.value:.12g} is degenerate across {bottom.tuples} "
            f"degree tuples; no canonical bottom eigenfunction",
            lines=lines[:2],
        )
    return constant_ground_state(geo, bottom.energy, bottom.multiplicity > 1)


# --------------------------------------------------------------------------
# the formulas: (snapped spectrum, geo, u1, flags) -> (lhs, rhs)
# --------------------------------------------------------------------------

def snap_kernel(values) -> np.ndarray:
    """Zero out eigenvalues that are numerically the constants' kernel: within
    KERNEL_SNAP_RTOL max |lambda| of zero, so the snap is scale covariant."""
    values = np.asarray(values, dtype=float).copy()
    values[np.abs(values) <= KERNEL_SNAP_RTOL * np.max(np.abs(values), initial=0.0)] = 0.0
    return values


def _sqrt_clamped(vals, flags):
    if np.any(vals < 0):
        flags.append("negative_eigenvalue_clamped; out of theorem hypotheses")
    return np.sqrt(np.maximum(vals, 0.0))


def _sum_formula(values, geo, u1, flags):
    """Sum of the four root eigenvalues of a 4-manifold against the pivot,
    weighted by the constant kernel function."""
    lhs = float(np.sum(_sqrt_clamped(values[:4], flags)))
    return lhs, pivot_integrals(geo).value


def _gap_formula(values, geo, u1, flags):
    """Sum of root gaps (lambda_{j+1} - lambda_1), j = 1..n, against the
    pivot weighted by the ground eigenfunction (the constant if none given)."""
    n = geo.n
    flags.extend(u1.flags if u1 else ())
    gaps = values[1 : n + 1] - values[0]
    if np.any(gaps < -geo.tol_eq):
        flags.append("negative_gap_clamped")
    lhs = float(np.sum(_sqrt_clamped(np.maximum(gaps, 0.0), flags)))
    return lhs, pivot_integrals(geo, u1).value


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
    """The introduction's lambda_1 bound on 4-manifolds: p q / 16 under the
    constant weight."""
    pivot = pivot_integrals(geo)
    return float(values[0]), pivot.p_raw * pivot.q_used / 16.0


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

def _curvature_unit(geo: GeometrySummary) -> float:
    """max |II|^2 / n over the points, to the nearest power of two: 1 on the
    unit sphere and the unit Clifford torus, and it scales as |H|^2 and R do
    (as `catalog._curvature_unit` does for the spectra).  |II|^2 > 0 on every
    closed submanifold of euclidean space."""
    return 2.0 ** round(math.log2(float(np.max(geo.s_norm)) / geo.n))


def _scale(f, unit: float) -> float:
    return max(unit, float(np.max(np.abs(f))))


def diagnose_equality(geo: GeometrySummary) -> EqualityDiagnosis:
    """Classify which (if any) equality case the curvature fields match.

    Variations are measured against the field's size, floored at the
    curvature unit, so the diagnosis does not change when the immersion is
    scaled (DIAGNOSIS_RTOL)."""
    h2, s = geo.mean_sq, geo.s_norm
    unit = _curvature_unit(geo)
    umbilical = bool(np.max(np.abs(s - geo.n * h2)) <= DIAGNOSIS_RTOL * _scale(s, unit))
    constant_h = float(np.ptp(h2)) <= DIAGNOSIS_RTOL * _scale(h2, unit)
    constant_r = float(np.ptp(geo.scalar)) <= DIAGNOSIS_RTOL * _scale(geo.scalar, unit)
    minimal = bool(geo.ambient_unit_sphere and np.max(np.abs(h2 - 1.0)) <= DIAGNOSIS_RTOL)
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


@dataclass(frozen=True)
class Pivot:
    """The pivot's integrals under a ground state w of energy E:
    p_raw = int (n^2 |H|^2 + tr R) w^2 + 2 (n + 2) E and
    q_used = int n^2 |H|^2 w^2 + 4 E.  Above n = 4, p_used puts the Gauss
    estimate n (n^2 - 4) |H|^2 / 2 in p_raw's integrand, and gauss_excess is
    the most that gives up at a point.  The names are `replay.ChainInputs`'."""

    p_raw: float
    p_used: float
    q_used: float
    gauss_excess: float

    @property
    def value(self) -> float:
        """sqrt(p_used q_used), as optimal_delta computes it."""
        return math.sqrt(max(self.p_used, 0.0) * max(self.q_used, 0.0))


def pivot_integrals(geo: GeometrySummary, u1: U1Data | None = None) -> Pivot:
    """The pivot on geo under u1 (None: the constant ground state), with w^2
    divided by its integral, 1 up to rounding: flat T^4 stays exact."""
    n = geo.n
    u1 = constant_ground_state(geo) if u1 is None else u1
    w2, h2 = u1.u1_sq, geo.mean_sq
    mass = geo.integrate(w2)

    def weighted(f, energy_factor):
        return (geo.integrate(f * w2) + energy_factor * u1.grad_energy) / mass

    integrand = n**2 * h2 + float(paneitz_coefficients(n).trace_coefficient) * geo.scalar
    p_raw, q_used = weighted(integrand, 2.0 * (n + 2)), weighted(n**2 * h2, 4.0)
    if n == 4:
        return Pivot(p_raw, p_raw, q_used, 0.0)
    target = n * (n**2 - 4) / 2.0 * h2
    return Pivot(p_raw, weighted(target, 2.0 * (n + 2)), q_used,
                 float(np.max(integrand - target)))
