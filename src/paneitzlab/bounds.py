"""Eigenvalue-bound evaluation and equality diagnosis.

Every checker takes a multiplicity-expanded ascending spectrum plus a
GeometrySummary — the small bridge type that lets closed-form catalog
constants and sampled curvature bundles feed the same formulas.  Reports
carry both sides, the slack, and flags for anything that pushed the input
outside a theorem's hypotheses (clamped negative eigenvalues, kernel
snapping, equality showing up off the classified cases).

Sign conventions: slack = rhs - lhs, so valid inputs keep slack >= -tol;
`ok` records that gate.  Ambient-sphere variants measure the mean curvature
inside the unit sphere, which enters the integrands as |H|^2 + 1 — exactly
the euclidean |H|^2 of the composed immersion.
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


#: |y|^2 may deviate from 1 by at most this for sphere-ambient bounds
SPHERE_DEVIATION_TOL = 1e-9


def summarize_bundle(bundle: CurvatureBundle, label: str | None = None) -> GeometrySummary:
    return GeometrySummary(
        n=bundle.n,
        volume=bundle.volume,
        mean_sq=bundle.curv.mean_sq,
        s_norm=bundle.curv.s_norm,
        scalar=bundle.curv.scalar,
        q=bundle.q_field if bundle.q_field is not None else 0.0,
        ambient_unit_sphere=unit_sphere_deviation(bundle.y) <= SPHERE_DEVIATION_TOL,
        numerical=True,
        label=label or f"immersion on grid {'x'.join(map(str, bundle.grid.shape))}",
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
# spectrum indexing
# --------------------------------------------------------------------------

def snap_kernel(values, rtol: float = KERNEL_SNAP_RTOL) -> np.ndarray:
    """Zero out eigenvalues that are numerically the constants' kernel."""
    values = np.asarray(values, dtype=float).copy()
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    values[np.abs(values) <= rtol * scale] = 0.0
    return values


def _positive_index(values, need, flags):
    """Count eigenvalues from lambda_1: on 4-manifolds the operator kills
    constants, so the leading lambda_0 = 0 is dropped before indexing."""
    values = snap_kernel(values)
    if values.size == 0 or values[0] != 0.0:
        flags.append("kernel_not_found_n4")
    values = values[1:]
    if values.size < need:
        raise GateError(f"need {need} eigenvalues past the kernel, have {values.size}")
    return values


def _sqrt_clamped(vals, flags):
    vals = np.asarray(vals, dtype=float)
    if np.any(vals < 0):
        flags.append("negative_eigenvalue_clamped; out of theorem hypotheses")
    return np.sqrt(np.maximum(vals, 0.0))


# --------------------------------------------------------------------------
# the bounds
# --------------------------------------------------------------------------

def _require_unit_sphere(geo: GeometrySummary) -> None:
    if not geo.ambient_unit_sphere:
        raise GateError("manifold is not contained in a unit sphere")


def _sum_bound(bound_id, eigenvalues, geo, tol_eq, in_sphere=False):
    if geo.n != 4:
        raise InvalidDimensionError(f"four-dimensional bound, got n = {geo.n}")
    if in_sphere:
        _require_unit_sphere(geo)
    flags: list[str] = []
    lam = _positive_index(eigenvalues, 4, flags)[:4]
    lhs = float(np.sum(_sqrt_clamped(lam, flags)))
    p = geo.integrate(16.0 * geo.mean_sq + (2.0 / 3.0) * geo.scalar)
    h = geo.integrate(geo.mean_sq)
    rhs = 4.0 * math.sqrt(max(p * h, 0.0)) / geo.volume
    rep = _report(bound_id, lhs, rhs, geo, len(np.asarray(eigenvalues)), flags, tol_eq=tol_eq)
    return _flag_off_case_equality(rep, geo)


def verify_thm_1_1(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """Sum of the four root eigenvalues of a 4-manifold against the
    curvature-integral bound; equality on round spheres and minimal
    constant-R submanifolds of spheres."""
    return _sum_bound("thm_1_1", eigenvalues, geo, tol_eq)


def verify_cor_1_1(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """Ambient-unit-sphere version: substitute |H|^2 + 1 (in-sphere mean
    curvature plus the sphere's own contribution) in both integrals.  The
    euclidean mean_sq already equals that sum, so the body is thm_1_1's."""
    return _sum_bound("cor_1_1", eigenvalues, geo, tol_eq, in_sphere=True)


def _gap_bound(bound_id, eigenvalues, geo, u1, tol_eq):
    n = geo.n
    if n <= 4:
        raise InvalidDimensionError(f"gap bound needs n > 4, got {n}")
    flags: list[str] = []
    values = snap_kernel(eigenvalues)
    if values.size < n + 1:
        raise GateError(f"need {n + 1} eigenvalues, have {values.size}")
    if u1 is None:
        u1 = U1Data()
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
    rhs = math.sqrt(max(p, 0.0)) * math.sqrt(max(q, 0.0))
    return _report(bound_id, lhs, rhs, geo, len(values), flags, tol_eq=tol_eq)


def verify_thm_1_2(eigenvalues, geo: GeometrySummary, u1: U1Data | None = None,
                   tol_eq: float | None = None) -> BoundReport:
    """Gap bound: sum of root gaps (lambda_{j+1} - lambda_1), j = 1..n,
    weighted by the ground eigenfunction.  No positivity assumption."""
    return _gap_bound("thm_1_2", eigenvalues, geo, u1, tol_eq)


def verify_cor_3_1(eigenvalues, geo: GeometrySummary, u1: U1Data | None = None,
                   tol_eq: float | None = None) -> BoundReport:
    """Gap bound for submanifolds of the unit sphere: |H|^2 -> |H|^2 + 1,
    which the euclidean mean_sq already is, so the body is thm_1_2's."""
    _require_unit_sphere(geo)
    return _gap_bound("cor_3_1", eigenvalues, geo, u1, tol_eq)


def verify_thm_1_3(eigenvalues, geo: GeometrySummary, tol_eq: float | None = None) -> BoundReport:
    """Strict bound on the first n root eigenvalues for unit-sphere
    submanifolds, n != 4; requires a positive bottom eigenvalue."""
    n = geo.n
    if n == 4:
        raise InvalidDimensionError("bound excludes n = 4 (conformally covariant case)")
    _require_unit_sphere(geo)
    flags: list[str] = []
    values = snap_kernel(eigenvalues)
    if values.size < n:
        raise GateError(f"need {n} eigenvalues, have {values.size}")
    lam1 = float(values[0])
    if lam1 <= 0.0:
        raise PositivityError(
            f"operator is not positive on {geo.label}: lambda_1 = {lam1:.6g} <= 0"
        )
    lhs = float(np.sum(_sqrt_clamped(values[:n], flags)))
    coeffs = paneitz_coefficients(n)
    trace = float(coeffs.trace_coefficient)
    qfac = float(coeffs.q_factor)
    p = geo.integrate(n * n * geo.mean_sq + trace * geo.scalar + qfac * geo.q)
    h = geo.integrate(geo.mean_sq)
    rhs = n * math.sqrt(max(p * h, 0.0)) / geo.volume
    return _report("thm_1_3", lhs, rhs, geo, len(values), flags, strict=True, tol_eq=tol_eq)


def verify_intro_bounds(eigenvalues, geo: GeometrySummary,
                        tol_eq: float | None = None) -> list[BoundReport]:
    """The two earlier first/second-eigenvalue bounds quoted in the
    introduction: lambda_1 for n = 4 and lambda_2 for n >= 7."""
    reports: list[BoundReport] = []
    if geo.n == 4:
        flags: list[str] = []
        lam = _positive_index(eigenvalues, 1, flags)
        lhs = float(lam[0])
        rhs = (geo.integrate(16.0 * geo.mean_sq + (2.0 / 3.0) * geo.scalar)
               * geo.integrate(geo.mean_sq)) / geo.volume**2
        rep = _report("chenli_l1", lhs, rhs, geo, len(np.asarray(eigenvalues)), flags, tol_eq=tol_eq)
        reports.append(_flag_off_case_equality(rep, geo))
    if geo.n >= 7:
        flags = []
        values = snap_kernel(eigenvalues)
        if values.size < 2:
            raise GateError(f"need 2 eigenvalues, have {values.size}")
        lhs = float(values[1])
        n = geo.n
        qfac = float(paneitz_coefficients(n).q_factor)
        rhs = (0.5 * n * (n * n - 4.0) * geo.integrate(geo.mean_sq**2)
               + qfac * geo.integrate(geo.q)) / geo.volume
        reports.append(_report("chenli_l2", lhs, rhs, geo, len(values), flags, tol_eq=tol_eq))
    if not reports:
        raise InvalidDimensionError(f"no introductory bound applies to n = {geo.n}")
    return reports


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
    """One bound, its hypotheses, and check(values, geo, u1, tol_eq), which
    runs the bound's verifier (the verifier keeps its own gates)."""

    bound_id: str
    dims: str                     # a key of DIMENSION_RULES
    check: Callable
    unit_sphere: bool = False     # needs the unit-sphere ambient
    needs_u1: bool = False        # reads the ground eigenfunction
    refusable: bool = False       # a PositivityError is a refusal while others apply
    replayable: bool = False      # replay.py re-runs its proof chain

    def applies(self, n: int, unit_sphere: bool = True) -> bool:
        """Hypotheses hold in dimension n (and, if given, in that ambient)."""
        return DIMENSION_RULES[self.dims](n) and (unit_sphere or not self.unit_sphere)

    @property
    def lowest_dim(self) -> int:
        """The smallest n >= 3 (where the operator exists) the bound covers."""
        return next(n for n in itertools.count(3) if self.applies(n))


def _intro_check(bound_id: str) -> Callable:
    def check(values, geo, u1, tol_eq):
        for rep in verify_intro_bounds(values, geo, tol_eq):
            if rep.bound_id == bound_id:
                return rep
        raise InvalidDimensionError(f"{bound_id} does not apply to n = {geo.n}")
    return check


# checkers look the verifiers up by name at call time, so a verifier
# replaced in this module (a tracer, a test) is the one the table calls
#: every bound, in report order
BOUNDS = {rule.bound_id: rule for rule in (
    BoundRule("thm_1_1", "4-manifolds", replayable=True,
              check=lambda values, geo, u1, tol_eq: verify_thm_1_1(values, geo, tol_eq)),
    BoundRule("chenli_l1", "4-manifolds", check=_intro_check("chenli_l1")),
    BoundRule("cor_1_1", "4-manifolds", unit_sphere=True,
              check=lambda values, geo, u1, tol_eq: verify_cor_1_1(values, geo, tol_eq)),
    BoundRule("thm_1_2", "n > 4", needs_u1=True, replayable=True,
              check=lambda values, geo, u1, tol_eq: verify_thm_1_2(values, geo, u1, tol_eq)),
    BoundRule("cor_3_1", "n > 4", unit_sphere=True, needs_u1=True,
              check=lambda values, geo, u1, tol_eq: verify_cor_3_1(values, geo, u1, tol_eq)),
    BoundRule("chenli_l2", "n >= 7", check=_intro_check("chenli_l2")),
    BoundRule("thm_1_3", "n != 4", unit_sphere=True, refusable=True,
              check=lambda values, geo, u1, tol_eq: verify_thm_1_3(values, geo, tol_eq)),
)}


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
