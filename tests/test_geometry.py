"""Curvature-from-jet algebra against sympy chart oracles and closed forms."""

import numpy as np
import pytest

from paneitzlab.catalog import model_constants, round_sphere, sphere_product
from paneitzlab.coefficients import paneitz_coefficients, q_curvature
from paneitzlab.errors import DegenerateImmersionError
from paneitzlab.fourier import FourierTerm, clifford_torus
from paneitzlab.geometry import (
    ImmersionJet,
    curvature_point,
    gauss_identity_residual,
    induced_metric,
)

from helpers import chart_jet, hypersphere_chart, interior_points, product_chart

RNG = np.random.default_rng(20240817)


def fields(jet):
    metric = induced_metric(jet)
    return metric, curvature_point(jet, metric)


@pytest.mark.parametrize("n,r", [(2, 1.0), (3, 1.0), (4, 1.0), (4, 2.0), (5, 0.5)])
def test_round_sphere_curvature_from_chart(n, r):
    comps, phis = hypersphere_chart(n, r)
    jet = chart_jet(comps, phis, interior_points(n, 12, RNG))
    metric, curv = fields(jet)

    assert curv.scalar == pytest.approx(n * (n - 1) / r**2, rel=1e-9)
    assert curv.mean_sq == pytest.approx(np.full(12, 1 / r**2), rel=1e-9)
    assert curv.s_norm == pytest.approx(np.full(12, n / r**2), rel=1e-9)
    assert curv.ric_norm_sq == pytest.approx(np.full(12, n * (n - 1) ** 2 / r**4), rel=1e-9)
    # Einstein: Ric = ((n-1)/r^2) g
    assert np.allclose(curv.ric, (n - 1) / r**2 * metric.g, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n,r", [(3, 1.0), (4, 1.0), (5, 2.0)])
def test_sphere_q_curvature_matches_catalog(n, r):
    comps, phis = hypersphere_chart(n, r)
    jet = chart_jet(comps, phis, interior_points(n, 6, RNG))
    _, curv = fields(jet)
    coeffs = paneitz_coefficients(n)
    q = q_curvature(coeffs, float(curv.ric_norm_sq[0]), float(curv.scalar[0]))
    expected = model_constants(round_sphere(n, r)).q
    assert q == pytest.approx(expected, rel=1e-9)
    assert q == pytest.approx(n * (n**2 - 4) / (8 * r**4), rel=1e-9)


def test_product_immersion_matches_catalog_constants():
    r1, r2 = 0.9, 1.4
    charts = [hypersphere_chart(2, r1, prefix="a"), hypersphere_chart(2, r2, prefix="b")]
    comps, variables = product_chart(charts)
    jet = chart_jet(comps, variables, interior_points(4, 10, RNG))
    _, curv = fields(jet)

    const = model_constants(sphere_product(((2, r1), (2, r2))))
    assert curv.scalar == pytest.approx(np.full(10, const.scalar), rel=1e-9)
    assert curv.mean_sq == pytest.approx(np.full(10, const.mean_sq_euclidean), rel=1e-9)
    assert curv.s_norm == pytest.approx(np.full(10, const.s_norm_euclidean), rel=1e-9)
    assert curv.ric_norm_sq == pytest.approx(np.full(10, const.ric_norm_sq), rel=1e-9)


def test_clifford_torus_is_flat_with_known_extrinsics():
    n = 3
    imm = clifford_torus((1.0, 1.0, 1.0))
    pts = RNG.uniform(0, 2 * np.pi, size=(15, n))
    jet = imm.jet(pts)
    metric, curv = fields(jet)
    assert np.allclose(metric.g, np.eye(n), atol=1e-12)
    assert np.allclose(curv.scalar, 0.0, atol=1e-10)
    assert curv.mean_sq == pytest.approx(np.full(15, 1 / n**2 * n), rel=1e-10)  # |H|^2 = 1/n
    assert curv.s_norm == pytest.approx(np.full(15, float(n)), rel=1e-10)       # S = n


def lemma_residuals(jet, u_grad):
    """The five position-vector identities, as max residuals.

    u_grad: tangent gradient components (..., n) of an arbitrary test function
    in the chart, used for the projection identity.
    """
    metric, curv = fields(jet)
    n = jet.dim
    g_inv = metric.g_inv
    # nabla y_a as chart components: g^{ij} d y_a / dx^j
    grad_y = np.einsum("...ij,...aj->...ai", g_inv, jet.dy)
    lap_y = n * curv.mean  # trace of the Hessian of the coordinates

    r1 = np.max(np.abs(np.einsum("...ai,...aj->...ij", jet.dy, jet.dy) - metric.g))
    gu_sq = np.einsum("...ij,...i,...j->...", g_inv, u_grad, u_grad)
    pair = np.einsum("...ai,...i->...a", grad_y, u_grad)
    r2 = np.max(np.abs(np.einsum("...a,...a->...", pair, pair) - gu_sq))
    r3 = np.max(np.abs(np.einsum("...ai,...aj,...ij->...", grad_y, grad_y, metric.g) - n))
    r4 = np.max(np.abs(np.einsum("...a,...a->...", lap_y, lap_y) - n**2 * curv.mean_sq))
    r5 = np.max(np.abs(np.einsum("...a,...ai->...i", lap_y, grad_y)))
    return r1, r2, r3, r4, r5


@pytest.mark.parametrize("case", ["sphere3", "sphere4", "product", "torus", "perturbed"])
def test_lemma_identities(case):
    if case == "sphere3":
        comps, phis = hypersphere_chart(3, 1.0)
        jet = chart_jet(comps, phis, interior_points(3, 8, RNG))
    elif case == "sphere4":
        comps, phis = hypersphere_chart(4, 1.3)
        jet = chart_jet(comps, phis, interior_points(4, 8, RNG))
    elif case == "product":
        comps, variables = product_chart([hypersphere_chart(2, 0.8, prefix="a"),
                                          hypersphere_chart(3, 1.1, prefix="b")])
        jet = chart_jet(comps, variables, interior_points(5, 8, RNG))
    elif case == "torus":
        jet = clifford_torus((1.0, 0.7, 1.3)).jet(RNG.uniform(0, 2 * np.pi, (8, 3)))
    else:
        base = clifford_torus((1.0, 1.0, 1.0))
        bump = FourierTerm(k=(1, 2, 0), cos=(0.08, 0, 0, 0.03, 0, 0),
                           sin=(0, 0.05, 0, 0, 0, 0))
        jet = base.perturbed([bump]).jet(RNG.uniform(0, 2 * np.pi, (8, 3)))
    u_grad = RNG.standard_normal(jet.dy.shape[:-2] + (jet.dim,))
    residuals = lemma_residuals(jet, u_grad)
    scale = 1.0 + float(np.max(np.abs(u_grad))) ** 2
    assert max(residuals) <= 1e-10 * scale


@pytest.mark.parametrize("case", ["sphere", "torus", "perturbed"])
def test_gauss_identity_and_pinching(case):
    if case == "sphere":
        comps, phis = hypersphere_chart(4, 1.0)
        jet = chart_jet(comps, phis, interior_points(4, 10, RNG))
    elif case == "torus":
        jet = clifford_torus((1.0, 1.2, 0.8, 1.1)).jet(RNG.uniform(0, 2 * np.pi, (10, 4)))
    else:
        base = clifford_torus((1.0, 1.0, 1.0, 1.0))
        bump = FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)
        jet = base.perturbed([bump]).jet(RNG.uniform(0, 2 * np.pi, (10, 4)))
    _, curv = fields(jet)
    assert gauss_identity_residual(curv, jet.dim) <= 1e-9
    # Cauchy-Schwarz on the trace: S >= n |H|^2, everywhere
    assert np.all(curv.s_norm >= jet.dim * curv.mean_sq - 1e-12)


def test_degenerate_immersion_refused():
    # a "surface" collapsing to a curve: second column of dy vanishes
    y = np.zeros((4, 3))
    dy = np.zeros((4, 3, 2))
    dy[:, 0, 0] = 1.0
    jet = ImmersionJet(y=y, dy=dy, d2y=np.zeros((4, 3, 2, 2)))
    with pytest.raises(DegenerateImmersionError) as err:
        induced_metric(jet)
    assert err.value.where is not None


def test_asymmetric_second_derivatives_rejected():
    y = np.zeros((1, 2))
    dy = np.zeros((1, 2, 2))
    dy[:, 0, 0] = dy[:, 1, 1] = 1.0
    d2y = np.zeros((1, 2, 2, 2))
    d2y[0, 0, 0, 1] = 1.0  # no matching [0,0,1,0] entry
    with pytest.raises(ValueError):
        ImmersionJet(y=y, dy=dy, d2y=d2y)


def test_optimized_contractions_match_the_plain_einsum():
    # curvature_point contracts s_norm and |Ric|^2 along an optimized path;
    # the one-loop einsum is the reference, equal up to summation order
    base = clifford_torus((1.0, 1.0, 1.0, 1.0))
    bump = FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)
    jet = base.perturbed([bump]).jet(RNG.uniform(0, 2 * np.pi, (6, 5, 4)))
    metric, curv = fields(jet)
    g_inv = metric.g_inv
    s_norm = np.einsum("...ik,...jl,...aij,...akl->...", g_inv, g_inv, curv.h, curv.h)
    ric_sq = np.einsum("...ik,...jl,...ij,...kl->...", g_inv, g_inv, curv.ric, curv.ric)
    assert np.allclose(curv.s_norm, s_norm, rtol=1e-13, atol=0)
    assert np.allclose(curv.ric_norm_sq, ric_sq, rtol=1e-13, atol=0)
