"""Eigenvalue bounds on catalog models and discrete bundles."""

import math

import numpy as np
import pytest

from paneitzlab.bounds import (
    GeometrySummary,
    U1Data,
    diagnose_equality,
    optimal_delta,
    snap_kernel,
    summarize_bundle,
    summarize_model,
    u1_from_result,
    verify_cor_1_1,
    verify_cor_3_1,
    verify_intro_bounds,
    verify_thm_1_1,
    verify_thm_1_2,
    verify_thm_1_3,
)
from paneitzlab.catalog import (
    expand_lines,
    flat_torus,
    paneitz_spectrum,
    round_sphere,
    sphere_product,
)
from paneitzlab.coefficients import paneitz_coefficients
from paneitzlab.discrete import build_bundle
from paneitzlab.eigensolve import spectrum
from paneitzlab.errors import (
    GateError,
    InvalidDimensionError,
    PositivityError,
)
from paneitzlab.fourier import FourierTerm, TorusGrid, clifford_torus


def closed_form_values(m, count):
    return expand_lines(paneitz_spectrum(m, count + 4).lines, count)


def minimal_clifford_s2xs2():
    half = math.sqrt(0.5)
    return sphere_product([(2, half), (2, half)], ambient="unit_sphere")


# --------------------------------------------------------------------------
# the four-dimensional sum bound
# --------------------------------------------------------------------------

def test_round_sphere_attains_the_four_dim_bound():
    m = round_sphere(4, 1.0)
    rep = verify_thm_1_1(closed_form_values(m, 9), summarize_model(m))
    assert rep.lhs == pytest.approx(8.0 * math.sqrt(6.0), rel=1e-10)
    assert rep.rhs == pytest.approx(8.0 * math.sqrt(6.0), rel=1e-10)
    assert rep.equality and rep.ok and rep.flags == ()
    assert diagnose_equality(summarize_model(m)).matched_case == "round_sphere"


def test_minimal_clifford_attains_the_four_dim_bound():
    m = minimal_clifford_s2xs2()
    geo = summarize_model(m)
    values = closed_form_values(m, 9)
    target = 32.0 / math.sqrt(3.0)
    for verify in (verify_thm_1_1, verify_cor_1_1):
        rep = verify(values, geo)
        assert rep.lhs == pytest.approx(target, rel=1e-10)
        assert rep.rhs == pytest.approx(target, rel=1e-10)
        assert rep.equality and rep.ok and rep.flags == ()
    assert diagnose_equality(geo).matched_case == "minimal_const_R_in_sphere"


def test_flat_four_torus_equality_is_flagged():
    # the flat T^4 sits outside the classified equality cases yet attains
    # both intro-level bounds; the reports must say so out loud
    m = flat_torus((1.0, 1.0, 1.0, 1.0))
    geo = summarize_model(m)
    values = closed_form_values(m, 9)
    rep = verify_thm_1_1(values, geo)
    assert rep.lhs == rep.rhs == pytest.approx(4.0, rel=1e-12)
    assert rep.equality and "equality_outside_classification" in rep.flags
    (l1,) = verify_intro_bounds(values, geo)
    assert l1.bound_id == "chenli_l1"
    assert l1.lhs == l1.rhs == pytest.approx(1.0, rel=1e-12)
    assert "equality_outside_classification" in l1.flags
    assert diagnose_equality(geo).matched_case == "none"


def test_first_eigenvalue_bound_on_round_sphere():
    m = round_sphere(4, 1.0)
    (rep,) = verify_intro_bounds(closed_form_values(m, 9), summarize_model(m))
    assert rep.bound_id == "chenli_l1"
    assert rep.lhs == pytest.approx(24.0, rel=1e-12)
    assert rep.rhs == pytest.approx(24.0, rel=1e-10)
    assert rep.equality


def test_first_eigenvalue_bound_on_minimal_clifford():
    m = minimal_clifford_s2xs2()
    (rep,) = verify_intro_bounds(closed_form_values(m, 9), summarize_model(m))
    assert rep.lhs == pytest.approx(64.0 / 3.0, rel=1e-10)
    assert rep.rhs == pytest.approx(64.0 / 3.0, rel=1e-10)
    assert rep.equality


def test_four_dim_bound_refuses_other_dimensions():
    m = round_sphere(5, 1.0)
    with pytest.raises(InvalidDimensionError, match="is stated for 4-manifolds"):
        verify_thm_1_1(closed_form_values(m, 9), summarize_model(m))


def test_sphere_ambient_variant_needs_sphere_ambient():
    m = round_sphere(4, 1.0)
    with pytest.raises(GateError, match="unit sphere"):
        verify_cor_1_1(closed_form_values(m, 9), summarize_model(m))


def test_missing_kernel_is_flagged():
    geo = summarize_model(round_sphere(4, 1.0))
    rep = verify_thm_1_1([24.0] * 5, geo)
    assert "kernel_not_found_n4" in rep.flags


def test_negative_eigenvalues_are_clamped_and_flagged():
    geo = summarize_model(round_sphere(4, 1.0))
    rep = verify_thm_1_1([0.0, -1.0, 24.0, 24.0, 24.0], geo)
    assert any("clamped" in f for f in rep.flags)
    assert rep.lhs == pytest.approx(3.0 * math.sqrt(24.0), rel=1e-12)


# --------------------------------------------------------------------------
# the gap bound (n > 4)
# --------------------------------------------------------------------------

def test_gap_bound_equality_on_round_five_sphere():
    m = round_sphere(5, 1.0)
    rep = verify_thm_1_2(closed_form_values(m, 9), summarize_model(m))
    assert rep.lhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    assert rep.rhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    assert rep.equality and rep.ok


def test_gap_bound_strict_on_flat_five_torus():
    m = flat_torus((1.0,) * 5)
    rep = verify_thm_1_2(closed_form_values(m, 12), summarize_model(m))
    assert rep.lhs == pytest.approx(5.0, rel=1e-10)
    assert rep.rhs == pytest.approx(math.sqrt(52.5), rel=1e-10)
    assert rep.ok and not rep.equality


def test_gap_bound_accepts_explicit_ground_state_data():
    m = round_sphere(5, 1.0)
    geo = summarize_model(m)
    values = closed_form_values(m, 9)
    plain = verify_thm_1_2(values, geo)
    with_u1 = verify_thm_1_2(values, geo, u1=U1Data(w=np.full(1, geo.volume ** -0.5),
                                                    grad_energy=0.0))
    assert with_u1.rhs == pytest.approx(plain.rhs, rel=1e-14)


def test_gap_bound_needs_five_gaps():
    m = round_sphere(5, 1.0)
    with pytest.raises(GateError, match="need 6 eigenvalues"):
        verify_thm_1_2(closed_form_values(m, 9)[:4], summarize_model(m))
    with pytest.raises(InvalidDimensionError):
        verify_thm_1_2(closed_form_values(m, 9), summarize_model(round_sphere(4, 1.0)))


def test_sphere_ambient_gap_bound():
    m = round_sphere(5, 1.0, ambient="unit_sphere")
    rep = verify_cor_3_1(closed_form_values(m, 9), summarize_model(m))
    assert rep.equality
    assert rep.rhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    with pytest.raises(GateError, match="unit sphere"):
        verify_cor_3_1(closed_form_values(m, 9),
                       summarize_model(round_sphere(5, 1.0)))


def test_minimal_flat_torus_in_sphere_is_strict():
    m = flat_torus((5.0**-0.5,) * 5, ambient="unit_sphere")
    rep = verify_cor_3_1(closed_form_values(m, 12), summarize_model(m))
    assert rep.lhs == pytest.approx(25.0, rel=1e-10)
    assert rep.rhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    assert rep.ok and not rep.equality


# --------------------------------------------------------------------------
# the strict unit-sphere bound (n != 4)
# --------------------------------------------------------------------------

def test_strict_bound_on_equatorial_five_sphere():
    m = round_sphere(5, 1.0, ambient="unit_sphere")
    rep = verify_thm_1_3(closed_form_values(m, 9), summarize_model(m))
    assert rep.lhs == pytest.approx((math.sqrt(105.0) + 4.0 * math.sqrt(945.0)) / 4.0,
                                    rel=1e-10)
    assert rep.rhs == pytest.approx(5.0 * math.sqrt(945.0) / 4.0, rel=1e-10)
    assert rep.ok and not rep.equality and rep.strictness_expected


def test_strict_bound_refuses_indefinite_operator():
    # on S^3 the zero-order term makes the operator indefinite; the bound's
    # hypotheses fail and the verifier must refuse, not fabricate a slack
    m = round_sphere(3, 1.0, ambient="unit_sphere")
    with pytest.raises(PositivityError, match=r"lambda_1 = -0\.9375"):
        verify_thm_1_3(closed_form_values(m, 9), summarize_model(m))


def test_strict_bound_refuses_flat_kernel():
    m = flat_torus((5.0**-0.5,) * 5, ambient="unit_sphere")
    with pytest.raises(PositivityError):
        verify_thm_1_3(closed_form_values(m, 12), summarize_model(m))


def test_strict_bound_excludes_dimension_four():
    m = round_sphere(4, 1.0, ambient="unit_sphere")
    with pytest.raises(InvalidDimensionError, match="n = 4"):
        verify_thm_1_3(closed_form_values(m, 9), summarize_model(m))


# --------------------------------------------------------------------------
# second-eigenvalue bound (n >= 7)
# --------------------------------------------------------------------------

def test_second_eigenvalue_bound_on_seven_sphere():
    m = round_sphere(7, 1.0)
    (rep,) = verify_intro_bounds(closed_form_values(m, 12), summarize_model(m))
    assert rep.bound_id == "chenli_l2"
    assert rep.lhs == pytest.approx(3465.0 / 16.0, rel=1e-10)
    assert rep.rhs == pytest.approx(3465.0 / 16.0, rel=1e-10)
    assert rep.equality


def test_intro_bounds_refuse_uncovered_dimensions():
    m = round_sphere(5, 1.0)
    with pytest.raises(InvalidDimensionError, match="no introductory bound"):
        verify_intro_bounds(closed_form_values(m, 9), summarize_model(m))


# --------------------------------------------------------------------------
# scale covariance
# --------------------------------------------------------------------------

def relative_slack(verify, m, count=12):
    return verify(closed_form_values(m, count), summarize_model(m)).relative_slack


@pytest.mark.parametrize("verify,make", [
    (verify_thm_1_1, lambda r: round_sphere(4, r)),
    (verify_thm_1_1, lambda r: sphere_product([(2, 0.9 * r), (2, 1.4 * r)])),
    (verify_thm_1_2, lambda r: round_sphere(5, r)),
    (verify_thm_1_2, lambda r: flat_torus((r, 0.5 * r, r, r, 2.0 * r))),
    (lambda v, g: verify_intro_bounds(v, g)[0], lambda r: round_sphere(4, r)),
    (lambda v, g: verify_intro_bounds(v, g)[0], lambda r: round_sphere(7, r)),
])
def test_relative_slack_is_scale_invariant(verify, make):
    base = relative_slack(verify, make(1.0))
    doubled = relative_slack(verify, make(2.0))
    assert abs(base - doubled) <= 1e-10


# --------------------------------------------------------------------------
# numerical-route summaries
# --------------------------------------------------------------------------

def test_discrete_flat_torus_reproduces_catalog_bound():
    imm = clifford_torus((1.0,) * 4)
    grid = TorusGrid((8,) * 4)
    bundle = build_bundle(imm, grid)
    result = spectrum(imm, grid, paneitz_coefficients(4), 9, bundle=bundle,
                      solver="lanczos", seed=3)
    geo = summarize_bundle(bundle)
    assert geo.numerical and not geo.ambient_unit_sphere
    rep = verify_thm_1_1(result.eigenvalues, geo)
    exact = verify_thm_1_1(closed_form_values(flat_torus((1.0,) * 4), 9),
                           summarize_model(flat_torus((1.0,) * 4)))
    assert rep.lhs == pytest.approx(exact.lhs, abs=1e-9)
    assert rep.rhs == pytest.approx(exact.rhs, rel=1e-9)
    assert rep.equality and rep.ok
    u1 = u1_from_result(bundle, result)
    assert not u1.multiple
    assert u1.grad_energy == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(u1.u1_sq, 1.0 / bundle.volume, atol=1e-10)


def test_bundle_summary_detects_unit_sphere_ambient():
    r = math.sqrt(1.0 / 3.0)
    bundle = build_bundle(clifford_torus((r, r, r)), TorusGrid((8, 8, 8)))
    geo = summarize_bundle(bundle)
    assert geo.ambient_unit_sphere
    assert np.allclose(geo.mean_sq, 1.0, atol=1e-12)
    assert diagnose_equality(geo).matched_case == "minimal_const_R_in_sphere"


def test_equality_diagnosis_is_scale_covariant():
    # a T^2 bent by amplitude 1e-4: |H|^2 and R vary by ~1e-4 of their size
    # at radius 1 and at radius 100 alike; a fixed floor of 1 would read the
    # x100 copy as constant in both
    def diagnosis(c):
        term = FourierTerm(k=(1, 1), cos=(1e-4 * c, 0.0, 0.0, 0.0), sin=(0.0,) * 4)
        imm = clifford_torus((c, c)).perturbed([term])
        return diagnose_equality(summarize_bundle(build_bundle(imm, TorusGrid((8, 8)))))

    unit, scaled = diagnosis(1.0), diagnosis(100.0)
    assert not unit.constant_mean_curvature and not unit.constant_scalar_curvature
    assert scaled == unit


# --------------------------------------------------------------------------
# small pieces
# --------------------------------------------------------------------------

def test_kernel_snapping():
    vals = snap_kernel([1e-12, 2e-10, 1.0, -3e-10, -0.5])
    assert list(vals[:2]) == [0.0, 0.0]
    assert vals[2] == 1.0 and vals[3] == 0.0 and vals[4] == -0.5


def test_pivot_minimizer():
    choice = optimal_delta(6.0, 24.0)
    assert choice.delta == pytest.approx(2.0)
    assert choice.value == pytest.approx(12.0)
    assert not choice.degenerate
    # the pivot value really is the minimum of the two-term average
    deltas = np.linspace(0.5, 8.0, 200)
    assert np.all(0.5 * (deltas * 6.0 + 24.0 / deltas) >= choice.value - 1e-12)


def test_pivot_degenerate_edges():
    p0 = optimal_delta(0.0, 3.0)
    assert p0.degenerate and p0.value == 0.0 and math.isinf(p0.delta)
    q0 = optimal_delta(3.0, 0.0)
    assert q0.degenerate and q0.delta == 0.0 and q0.value == 0.0
    with pytest.raises(ValueError):
        optimal_delta(-1.0, 1.0)
