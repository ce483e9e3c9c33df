"""Discretization layer: bundles, matrix-free operators, dense assembly."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from paneitzlab import (
    FourierTerm,
    InvalidDimensionError,
    PaneitzOperator,
    TorusGrid,
    apply_laplacian,
    apply_paneitz,
    assemble_dense,
    build_bundle,
    clifford_torus,
    donut_torus,
    paneitz_coefficients,
)
from paneitzlab.discrete import integrate
from paneitzlab.eigensolve import dense_spectrum, spectrum
from paneitzlab.geometry import CurvatureFields, curvature_point, induced_metric
from paneitzlab import discrete, eigensolve
from paneitzlab.coefficients import q_curvature
from paneitzlab.errors import DegenerateImmersionError
from paneitzlab.fourier import FourierImmersion

from helpers import band_project, derivative

TAU = 2.0 * math.pi


def perturbed_torus(amp=0.05):
    base = clifford_torus((1.0, 1.0, 1.0))
    term = FourierTerm(k=(1, 1, 0), cos=(amp, 0, 0, 0, 0, 0), sin=(0,) * 6)
    return base.perturbed([term])


def random_band_fields(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield band_project(rng.standard_normal(grid.shape), grid)


# --------------------------------------------------------------------------
# bundle construction
# --------------------------------------------------------------------------

def test_flat_bundle_reduces_to_symbol():
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(clifford_torus((1.0, 0.5, 1.0)), grid)
    assert bundle.constant_coefficient
    assert bundle.laplace_flux is None and bundle.coeff_flux is None
    assert bundle.q_field is not None and np.allclose(bundle.q_field, 0.0)
    op = PaneitzOperator(bundle, bundle.coeffs, penalty=37.0)
    f = np.random.default_rng(2).standard_normal(grid.shape)
    kernel = bundle.kernel
    assert np.array_equal(op.apply(f), kernel.synthesize(kernel.coefficients(f) * op._symbol))


def test_force_general_keeps_flux_fields():
    bundle = build_bundle(clifford_torus((1.0, 0.5, 1.0)), TorusGrid((8, 8, 8)),
                          force_general=True)
    assert not bundle.constant_coefficient
    assert bundle.laplace_flux is not None and bundle.coeff_flux is not None


def test_perturbed_bundle_is_variable_coefficient():
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(perturbed_torus(), grid)
    assert not bundle.constant_coefficient
    assert bundle.laplace_flux is not None
    # the grid-mean symbol is only the operator's constant-coefficient part
    op = PaneitzOperator(bundle, bundle.coeffs)
    f = np.random.default_rng(2).standard_normal(grid.shape)
    want = op.apply(f)
    kernel = bundle.kernel
    flat = kernel.synthesize(kernel.coefficients(f) * op._symbol)
    assert np.abs(flat - want).max() > 1e-3 * np.abs(want).max()


def test_dimension_mismatch_refused():
    with pytest.raises(InvalidDimensionError):
        build_bundle(clifford_torus((1.0, 1.0)), TorusGrid((8, 8, 8)))


@pytest.mark.parametrize("radii", [(1.0, 1.0, 1.0), (1.0, 0.5, 2.0)])
def test_flat_volume(radii):
    bundle = build_bundle(clifford_torus(radii), TorusGrid((8, 8, 8)))
    assert bundle.volume == pytest.approx(TAU**3 * math.prod(radii), rel=1e-12)


def test_donut_volume():
    # integral of r (R + r cos v) du dv = 4 pi^2 R r; degree-1 integrand, so
    # the trapezoid weights are exact
    bundle = build_bundle(donut_torus(2.0, 1.0), TorusGrid((24, 24)))
    assert bundle.volume == pytest.approx(4.0 * math.pi**2 * 2.0, rel=1e-12)


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def test_plane_wave_is_laplace_eigenfunction():
    radii = (1.0, 0.5, 1.0)
    grid = TorusGrid((8, 8, 8))
    theta = grid.points()
    u = np.cos(theta[..., 0] + 2.0 * theta[..., 1] + theta[..., 2])
    mu = 1.0 / radii[0] ** 2 + 4.0 / radii[1] ** 2 + 1.0 / radii[2] ** 2
    for force in (False, True):
        bundle = build_bundle(clifford_torus(radii), grid, force_general=force)
        assert np.allclose(apply_laplacian(bundle, u), -mu * u, atol=1e-10 * mu)
        coeffs = paneitz_coefficients(3)
        assert np.allclose(apply_paneitz(bundle, coeffs, u), mu**2 * u,
                           atol=1e-9 * mu**2)


def test_takahashi_identity_on_donut():
    # Lap y = n H for any isometric immersion; the donut exercises the full
    # variable-coefficient flux path against the closed-form 2-jet.
    grid = TorusGrid((24, 24))
    imm = donut_torus(2.0, 1.0)
    bundle = build_bundle(imm, grid)
    jet = imm.jet(grid.points())
    lap = np.stack([apply_laplacian(bundle, jet.y[..., a]) for a in range(jet.ambient_dim)],
                   axis=-1)
    assert np.abs(lap - 2.0 * curvature_point(jet, induced_metric(jet)).mean).max() < 1e-10


@pytest.mark.parametrize("factory,shape", [
    (lambda: donut_torus(2.0, 1.0), (24, 24)),
    (lambda: perturbed_torus(), (8, 8, 8)),
])
def test_laplacian_conserves_mass(factory, shape):
    grid = TorusGrid(shape)
    bundle = build_bundle(factory(), grid)
    for f in random_band_fields(grid, 5, seed=11):
        assert abs(integrate(bundle, apply_laplacian(bundle, f))) < 1e-10


@pytest.mark.parametrize("factory,shape", [
    (lambda: clifford_torus((1.0, 0.5, 1.0)), (8, 8, 8)),
    (lambda: perturbed_torus(), (8, 8, 8)),
])
def test_paneitz_self_adjoint(factory, shape):
    grid = TorusGrid(shape)
    bundle = build_bundle(factory(), grid)
    coeffs = paneitz_coefficients(3)
    fields = list(random_band_fields(grid, 40, seed=7))
    for f, h in zip(fields[:20], fields[20:]):
        lhs = integrate(bundle, apply_paneitz(bundle, coeffs, f) * h)
        rhs = integrate(bundle, f * apply_paneitz(bundle, coeffs, h))
        scale = math.sqrt(integrate(bundle, f * f) * integrate(bundle, h * h))
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_bilaplacian_is_square_of_laplacian():
    grid = TorusGrid((16, 16))
    bundle = build_bundle(donut_torus(2.0, 1.0), grid)
    for f in random_band_fields(grid, 5, seed=3):
        lap = apply_laplacian(bundle, f)
        lap2 = apply_laplacian(bundle, lap)
        quad = integrate(bundle, lap * lap)
        assert quad >= 0.0
        assert integrate(bundle, lap2 * f) == pytest.approx(quad, abs=1e-8 * (1 + quad))


def test_paneitz_refused_below_dimension_three():
    bundle = build_bundle(donut_torus(2.0, 1.0), TorusGrid((8, 8)))
    assert bundle.coeffs is None
    with pytest.raises(InvalidDimensionError):
        apply_paneitz(bundle, paneitz_coefficients(3), np.ones((8, 8)))


def test_coefficient_dimension_must_match_bundle():
    bundle = build_bundle(clifford_torus((1.0, 1.0, 1.0)), TorusGrid((8, 8, 8)))
    with pytest.raises(InvalidDimensionError):
        apply_paneitz(bundle, paneitz_coefficients(4), np.ones((8, 8, 8)))


# --------------------------------------------------------------------------
# coordinate-field identities at the discrete level
# --------------------------------------------------------------------------

def bundle_identity_residuals(imm, grid):
    """Sup residuals of the five coordinate-field identities on a bundle.

    Gradients of the (band-limited) coordinates are exact; the Laplacian
    carries the flux path's truncation error, so (4) and (5) measure how well
    the grid resolves the metric.  The metric is the inverse of the stored
    g^{-1}, so the pullback residual checks that field.
    """
    bundle = build_bundle(imm, grid)
    jet = imm.jet(grid.points())
    n = grid.n
    g_inv = bundle.g_inv
    g = np.linalg.inv(g_inv)
    grad = np.einsum("...ij,...aj->...ai", g_inv, jet.dy)
    lap = np.stack([apply_laplacian(bundle, jet.y[..., a]) for a in range(jet.y.shape[-1])],
                   axis=-1)
    rng = np.random.default_rng(19)
    u = band_project(rng.standard_normal(grid.shape), grid)
    du = np.stack([derivative(u, i, grid) for i in range(n)], axis=-1)
    gu = np.einsum("...ij,...j->...i", g_inv, du)
    pair = np.einsum("...ai,...ij,...j->...a", grad, g, gu)
    u_sq = np.einsum("...i,...ij,...j->...", gu, g, gu)
    return {
        "pullback_metric": np.abs(np.einsum("...ai,...aj->...ij", jet.dy, jet.dy) - g).max(),
        "gradient_resolution": np.abs((pair**2).sum(-1) - u_sq).max(),
        "gradient_energy": np.abs(
            np.einsum("...ai,...ij,...aj->...a", grad, g, grad).sum(-1) - n
        ).max(),
        "laplacian_square": np.abs((lap**2).sum(-1) - n * n * bundle.curv.mean_sq).max(),
        "laplacian_orthogonality": np.abs(
            np.einsum("...a,...ai->...i", lap, grad)
        ).max(),
    }


@pytest.mark.parametrize("factory,shape", [
    (lambda: clifford_torus((1.0, 1.0, 1.0)), (8, 8, 8)),
    (lambda: clifford_torus((1.0, 0.5, 2.0)), (8, 8, 8)),
    (lambda: donut_torus(2.0, 1.0), (24, 24)),
])
def test_coordinate_identities_on_resolved_bundles(factory, shape):
    residuals = bundle_identity_residuals(factory(), TorusGrid(shape))
    for name, value in residuals.items():
        assert value < 1e-8, f"{name} residual {value:.3e}"


def test_coordinate_identities_converge_spectrally():
    # a perturbed metric has Fourier tails the 8-grid band cannot hold; the
    # Laplacian identities then converge at spectral rate under refinement
    coarse = bundle_identity_residuals(perturbed_torus(), TorusGrid((8, 8, 8)))
    fine = bundle_identity_residuals(perturbed_torus(), TorusGrid((16, 16, 16)))
    for name in ("laplacian_square", "laplacian_orthogonality"):
        assert fine[name] < coarse[name] / 100.0
    for name in ("pullback_metric", "gradient_resolution", "gradient_energy"):
        assert coarse[name] < 1e-8 and fine[name] < 1e-8


def test_collocated_eigenvalues_converge_on_the_benchmark_torus():
    # the curved benchmark's planar torus: aliasing of the collocated
    # products decays with the band, so 10^3 already sits within 1e-7 of 12^3
    term = FourierTerm(k=(1, 1, 0), cos=(0.08, 0, 0, 0, 0, 0), sin=(0,) * 6)
    imm = clifford_torus((1.0, 1.0, 1.0)).perturbed([term])
    values = [spectrum(imm, TorusGrid((m,) * 3), paneitz_coefficients(3), 7,
                       solver="lanczos", seed=3).eigenvalues for m in (10, 12)]
    assert np.abs(values[0] - values[1]).max() <= 1e-7


def test_scalar_curvature_laplacian_has_zero_mean():
    # Lap R as Q reads it: the bundle's Laplacian of the sampled R
    bundle = build_bundle(perturbed_torus(), TorusGrid((8, 8, 8)))
    laplace_r = apply_laplacian(bundle, bundle.curv.scalar)
    scale = np.abs(laplace_r).max()
    assert scale > 1e-6  # genuinely curved
    assert abs(integrate(bundle, laplace_r)) < 1e-10 * scale * bundle.volume


# --------------------------------------------------------------------------
# penalty and dense assembly
# --------------------------------------------------------------------------

def test_penalty_vanishes_on_band_and_is_symmetric():
    # the penalty is what sigma = 7 adds to the plain operator
    grid = TorusGrid((8, 8))
    bundle = build_bundle(donut_torus(2.0, 1.0), grid)
    penalized, plain = PaneitzOperator(bundle, None, 7.0), PaneitzOperator(bundle, None)

    def penalty(f):
        return penalized.apply(f) - plain.apply(f)

    fields = list(random_band_fields(grid, 4, seed=5))
    for f in fields:
        assert np.abs(penalty(f)).max() < 1e-12
    rng = np.random.default_rng(6)
    f, h = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    want = 7.0 * bundle.inv_sqrt_det * (f - band_project(f, grid))
    assert np.abs(penalty(f) - want).max() <= 1e-12 * np.abs(want).max()
    lhs = integrate(bundle, penalty(f) * h)
    rhs = integrate(bundle, f * penalty(h))
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))
    assert integrate(bundle, penalty(f) * f) >= 0.0


@pytest.mark.parametrize("factory", [
    lambda: clifford_torus((1.0, 1.0, 1.0)),
    lambda: perturbed_torus(),
])
def test_dense_assembly_defect_gate(factory):
    bundle = build_bundle(factory(), TorusGrid((8, 8, 8)))
    coeffs = paneitz_coefficients(3)
    sigma = discrete.default_penalty(PaneitzOperator(bundle, coeffs))
    assembly = assemble_dense(PaneitzOperator(bundle, coeffs, sigma))
    assert assembly.defect <= 1e-8
    assert np.array_equal(assembly.matrix, assembly.matrix.T)
    assert assembly.op.penalty > 0.0


def test_dense_matrix_matches_matrix_free_apply():
    # A (sqrt(w) f) = sqrt(w) Op f: the matrix is Op in the variables sqrt(w) u
    grid = TorusGrid((8, 8, 8))
    f = np.random.default_rng(9).standard_normal(grid.shape)
    for imm in (clifford_torus((1.0, 1.0, 1.0)), perturbed_torus()):
        bundle = build_bundle(imm, grid)
        op = PaneitzOperator(bundle, paneitz_coefficients(3), penalty=50.0)
        root_w = np.sqrt(bundle.weights.reshape(-1))
        via_matrix = assemble_dense(op).matrix @ (root_w * f.reshape(-1))
        direct = root_w * op.apply(f).reshape(-1)
        assert np.allclose(via_matrix, direct, atol=1e-9 * np.abs(direct).max())


def test_dense_cap_refuses_large_grids():
    bundle = build_bundle(clifford_torus((1.0,) * 4), TorusGrid((8, 8, 8, 16)))
    with pytest.raises(ValueError, match="dense cap"):
        assemble_dense(PaneitzOperator(bundle, paneitz_coefficients(4)))


def test_top_estimate_brackets_symbol_maximum():
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(clifford_torus((1.0, 1.0, 1.0)), grid)
    op = PaneitzOperator(bundle, paneitz_coefficients(3), 0.0)
    top = float(op._symbol[bundle.kernel.band].max())
    assert 0.5 * top <= op.estimate_top() <= top * (1.0 + 1e-9)


def power_top(op, steps=25):
    """The largest |<v, op v>_w| along a power iteration from a fixed random
    start: the penalty's former top estimate, kept as a reference."""
    v = np.random.default_rng(0x5EED).standard_normal(op.shape)
    est = 0.0
    for _ in range(steps):
        v = v / math.sqrt(integrate(op.bundle, v * v))
        w = op.apply(v)
        est = max(est, abs(integrate(op.bundle, v * w)))
        v = w
    return est


def test_default_penalty_applies_no_operator(monkeypatch):
    bundle = build_bundle(perturbed_torus(), TorusGrid((8, 8, 8)))
    calls = []
    apply = PaneitzOperator.apply
    monkeypatch.setattr(PaneitzOperator, "apply",
                        lambda op, f: calls.append(f.shape) or apply(op, f))
    assert discrete.default_penalty(PaneitzOperator(bundle, paneitz_coefficients(3))) > 0.0
    assert calls == []


@pytest.mark.parametrize("imm", [perturbed_torus(0.3), clifford_torus((1.0, 0.5, 2.0))])
@pytest.mark.parametrize("coeffs", [paneitz_coefficients(3), None])
def test_symbol_top_covers_power_iteration(imm, coeffs):
    op = PaneitzOperator(build_bundle(imm, TorusGrid((8, 8, 8))), coeffs)
    assert op.estimate_top() >= power_top(op)


def test_metric_penalty_moves_curved_eigenvalues_toward_the_band_limit():
    # P + sigma Pen grows with sigma, so its eigenvalues rise toward the
    # sigma -> infinity (band Galerkin) limit; the metric's sigma is larger
    # than the power iteration's, so it lands closer to that limit
    bundle = build_bundle(perturbed_torus(0.3), TorusGrid((8, 8, 8)))
    coeffs = paneitz_coefficients(3)
    op = PaneitzOperator(bundle, coeffs)
    density = discrete._power_of_two(bundle.volume / TAU**3)
    sigma_power = 10.0 * (op.unit + power_top(op)) * density
    sigma = discrete.default_penalty(op)
    assert sigma > sigma_power

    def values(penalty):
        return dense_spectrum(assemble_dense(PaneitzOperator(bundle, coeffs, penalty)),
                              7).eigenvalues

    before, after, limit = values(sigma_power), values(sigma), values(1000.0 * sigma_power)
    assert np.all(after >= before)
    # the limit's own roundoff: eigh at a top eigenvalue near 1000 sigma
    noise = np.finfo(float).eps * 1000.0 * sigma_power
    assert np.all(np.abs(after - limit) <= np.abs(before - limit) + noise)
    assert np.abs(after - limit).max() <= 0.5 * np.abs(before - limit).max()


# --------------------------------------------------------------------------
# the coefficient-space kernel against the real-space composition
# --------------------------------------------------------------------------

def reference_fluxes(imm, bundle):
    """Flux matrices (..., n, n) sampled afresh from the immersion at the grid points."""
    jet = imm.jet(bundle.grid.points())
    metric = induced_metric(jet)
    laplace_flux = metric.sqrt_det[..., None, None] * metric.g_inv
    if bundle.coeffs is None:
        return laplace_flux, None
    curv = curvature_point(jet, metric)
    a, b = float(bundle.coeffs.a), float(bundle.coeffs.b)
    a_mat = a * curv.scalar[..., None, None] * metric.g + b * curv.ric
    coeff_flux = metric.sqrt_det[..., None, None] * (metric.g_inv @ a_mat @ metric.g_inv)
    return laplace_flux, coeff_flux


def reference_laplace(bundle, flux, f):
    """(1/sqrt(g)) T[d_i(flux^{ij} d_j T f)], one real-space derivative per axis."""
    grid = bundle.grid
    tf = band_project(f, grid)
    grad = np.stack([derivative(tf, i, grid) for i in range(grid.n)], axis=-1)
    flow = np.einsum("...ij,...j->...i", flux, grad)
    div = sum(derivative(flow[..., i], i, grid) for i in range(grid.n))
    return bundle.inv_sqrt_det * band_project(div, grid)


def reference_q(imm, bundle, laplace_flux):
    """Q from a fresh jet at the grid points, with Lap R by reference_laplace."""
    jet = imm.jet(bundle.grid.points())
    curv = curvature_point(jet, induced_metric(jet))
    laplace_r = reference_laplace(bundle, laplace_flux, curv.scalar)
    return q_curvature(bundle.coeffs, curv.ric_norm_sq, curv.scalar, laplace_r)


def reference_paneitz(bundle, fluxes, f):
    laplace_flux, coeff_flux = fluxes
    lap2 = reference_laplace(bundle, laplace_flux, reference_laplace(bundle, laplace_flux, f))
    diva = reference_laplace(bundle, coeff_flux, f)
    return lap2 - diva + float(bundle.coeffs.q_factor) * bundle.q_field * f


def assert_matches(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("factory,shape,columns", [
    (lambda: perturbed_torus(0.1), (8, 8, 8), 3),
    (lambda: perturbed_torus(0.1), (9, 9, 9), 2),      # odd: no sawtooth mode
    (lambda: clifford_torus((1.0,) * 4).perturbed(
        [FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)]),
     (8, 8, 8, 8), None),                               # one unbatched column
    (lambda: donut_torus(2.0, 1.0), (16, 16), 3),
])
def test_fused_kernel_matches_real_space_composition(factory, shape, columns):
    imm, grid = factory(), TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    assert not bundle.constant_coefficient
    fluxes = reference_fluxes(imm, bundle)
    rng = np.random.default_rng(23)
    f = rng.standard_normal(shape if columns is None else (columns,) + shape)
    assert_matches(apply_laplacian(bundle, f), reference_laplace(bundle, fluxes[0], f), 1e-13)
    if bundle.coeffs is None:
        return
    assert_matches(bundle.q_field, reference_q(imm, bundle, fluxes[0]), 1e-13)
    assert_matches(apply_paneitz(bundle, bundle.coeffs, f),
                   reference_paneitz(bundle, fluxes, f), 1e-13)


@pytest.mark.parametrize("factory,coeffs", [
    (lambda: perturbed_torus(0.1), paneitz_coefficients(3)),
    (lambda: perturbed_torus(0.1), None),
    (lambda: clifford_torus((1.0, 0.5, 1.0)), paneitz_coefficients(3)),
])
def test_batched_apply_equals_column_by_column(factory, coeffs):
    grid = TorusGrid((8, 8, 8))
    op = PaneitzOperator(build_bundle(factory(), grid), coeffs, penalty=37.0)
    block = np.random.default_rng(29).standard_normal((5,) + grid.shape)
    batched = op.apply(block)
    single = np.stack([op.apply(column) for column in block])
    assert_matches(batched, single, 1e-15)


def test_column_batches_equal_the_unbatched_apply(monkeypatch):
    # a one-byte budget applies every column in a batch of its own
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(perturbed_torus(0.1), grid)
    coeffs = bundle.coeffs
    op = PaneitzOperator(bundle, coeffs, penalty=37.0)
    block = np.random.default_rng(41).standard_normal((2, 3) + grid.shape)
    applies = (op.apply, lambda f: apply_paneitz(bundle, coeffs, f),
               lambda f: apply_laplacian(bundle, f))
    whole = [apply(block) for apply in applies]
    monkeypatch.setattr(discrete, "_APPLY_BYTES", 1)
    for apply, want in zip(applies, whole):
        assert np.array_equal(apply(block), want)


@pytest.mark.parametrize("radii,shape", [
    ((1.0, 0.5, 2.0), (8, 8, 8)),
    ((1.0, 0.5, 2.0), (9, 9, 9)),
    ((1.0,) * 4, (8, 8, 8, 8)),
])
@pytest.mark.parametrize("fourth_order", [True, False])
@pytest.mark.parametrize("penalty", [0.0, 37.0])
def test_forced_general_apply_matches_flat_multiplier(radii, shape, fourth_order, penalty):
    grid = TorusGrid(shape)
    f = np.random.default_rng(43).standard_normal((2,) + shape)
    applied = []
    for force in (False, True):
        bundle = build_bundle(clifford_torus(radii), grid, force_general=force)
        assert bundle.constant_coefficient is not force
        coeffs = bundle.coeffs if fourth_order else None
        applied.append(PaneitzOperator(bundle, coeffs, penalty).apply(f))
    assert_matches(applied[1], applied[0], 1e-13)


@pytest.mark.parametrize("coeffs", [paneitz_coefficients(3), None])
def test_flat_apply_is_symbol_plus_penalty(coeffs):
    # the penalty as the flux path adds it: the difference of two operators
    # on a forced-general copy of the bundle
    grid = TorusGrid((8, 8, 8))
    imm = clifford_torus((1.0, 0.5, 2.0))
    bundle = build_bundle(imm, grid)
    general = build_bundle(imm, grid, force_general=True)
    assert bundle.constant_coefficient
    op = PaneitzOperator(bundle, coeffs, penalty=37.0)
    f = np.random.default_rng(31).standard_normal((3,) + grid.shape)
    plain = (-apply_laplacian(bundle, f) if coeffs is None
             else apply_paneitz(bundle, coeffs, f))
    penalty = (PaneitzOperator(general, coeffs, penalty=37.0).apply(f)
               - PaneitzOperator(general, coeffs).apply(f))
    assert_matches(op.apply(f), plain + penalty, 1e-13)


@pytest.mark.parametrize("radii", [(1.5, 1.5, 1.5), (1.0, 0.5, 3.0)])
@pytest.mark.parametrize("fourth_order", [True, False])
def test_preconditioner_inverts_the_flat_operator(radii, fourth_order):
    # one symbol serves the flat apply and the solver's preconditioner, off
    # the band too; w is constant, so its weighting cancels
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(clifford_torus(radii), grid)
    assert bundle.constant_coefficient
    op = PaneitzOperator(bundle, bundle.coeffs if fourth_order else None, penalty=37.0)
    f = np.random.default_rng(47).standard_normal((2,) + grid.shape)
    shifted = (op.apply(f) + op.unit * f).reshape(2, -1)
    assert_matches(eigensolve._preconditioner(op)(shifted).reshape(f.shape), f, 1e-12)


# --------------------------------------------------------------------------
# block-by-block sampling against whole-grid sampling
# --------------------------------------------------------------------------

def pack(field):
    """Upper triangle of a symmetric matrix field, component axis first."""
    n = field.shape[-1]
    return np.stack([field[..., i, j] for i in range(n) for j in range(i, n)])


@pytest.mark.parametrize("factory,shape", [
    (lambda: perturbed_torus(0.1), (8, 8, 8)),
    (lambda: perturbed_torus(0.1), (9, 9, 9)),
    (lambda: clifford_torus((1.0,) * 4).perturbed(
        [FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)]),
     (8, 8, 8, 8)),
])
def test_flux_fields_are_sampled_at_the_grid_points(factory, shape):
    # sqrt(g) g^{-1} and sqrt(g) times the raised curvature matrix, from a
    # fresh jet at the grid points, packed as upper triangles
    imm, grid = factory(), TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    pairs = grid.n * (grid.n + 1) // 2
    assert bundle.laplace_flux.shape == bundle.coeff_flux.shape == (pairs,) + shape
    jet = imm.jet(grid.points())
    metric = induced_metric(jet)
    root = metric.sqrt_det[..., None, None]
    raised = discrete.raised_curvature_matrix(bundle.coeffs, metric, curvature_point(jet, metric))
    assert_matches(bundle.laplace_flux, pack(root * metric.g_inv), 1e-13)
    assert_matches(bundle.coeff_flux, pack(root * raised), 1e-13)


def test_bundle_evaluates_the_jet_once_per_block(monkeypatch):
    monkeypatch.setattr(discrete, "_SAMPLE_BLOCK", 100)
    calls = []
    jet = FourierImmersion.jet

    def counted(self, points):
        calls.append(len(points))
        return jet(self, points)

    monkeypatch.setattr(FourierImmersion, "jet", counted)
    bundle = build_bundle(perturbed_torus(0.1), TorusGrid((8, 8, 8)))
    assert not bundle.constant_coefficient
    assert calls == [100] * 5 + [12]


@pytest.mark.parametrize("factory,shape", [
    (lambda: perturbed_torus(0.1), (8, 8, 8)),
    (lambda: perturbed_torus(0.1), (9, 9, 9)),         # odd: no sawtooth mode
    (lambda: clifford_torus((1.0,) * 4).perturbed(
        [FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)]),
     (8, 8, 8, 8)),
    (lambda: clifford_torus((1.0,) * 5), (8, 8, 8, 8, 8)),
])
def test_blocked_sampling_matches_whole_grid(monkeypatch, factory, shape):
    # 100 divides none of the grids, so every grid ends on a partial block
    monkeypatch.setattr(discrete, "_SAMPLE_BLOCK", 100)
    imm, grid = factory(), TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    jet = imm.jet(grid.points())
    metric = induced_metric(jet)
    curv = curvature_point(jet, metric)
    assert np.array_equal(bundle.y, jet.y)
    assert np.array_equal(bundle.g_inv, metric.g_inv)
    for field in dataclasses.fields(CurvatureFields):
        assert np.array_equal(getattr(bundle.curv, field.name),
                              getattr(curv, field.name)), field.name
    for name in ("h", "gamma", "mean", "ric", "ric_norm_sq"):
        assert not hasattr(bundle.curv, name), name
    if bundle.constant_coefficient:
        assert bundle.laplace_flux is None
        laplace_r = np.zeros(shape)
    else:
        fluxes = reference_fluxes(imm, bundle)
        assert_matches(bundle.laplace_flux, pack(fluxes[0]), 1e-13)
        assert_matches(bundle.coeff_flux, pack(fluxes[1]), 1e-13)
        laplace_r = reference_laplace(bundle, fluxes[0], curv.scalar)
    q_field = q_curvature(bundle.coeffs, curv.ric_norm_sq, curv.scalar, laplace_r)
    assert_matches(bundle.q_field, q_field, 1e-13)


def scaled(imm, c):
    """The immersion c y: metric c^2 g, Paneitz eigenvalues c^-4 lambda."""
    return FourierImmersion(imm.n, [
        FourierTerm(k=t.k, cos=tuple(c * x for x in t.cos), sin=tuple(c * x for x in t.sin))
        for t in imm.terms])


@pytest.mark.parametrize("c", [0.005, 200.0])
def test_spectrum_scales_as_inverse_fourth_power(c):
    # at c = 0.005, det g ~ c^6 = 1.6e-14: far below any fixed threshold on
    # det g, yet the immersion is exactly as regular as at c = 1; the penalty
    # must scale with the operator at both ends, or its roundoff swamps the
    # bottom of the spectrum
    grid = TorusGrid((8, 8, 8))
    imm = perturbed_torus(0.1)
    coeffs = paneitz_coefficients(3)
    base = spectrum(imm, grid, coeffs, 7, solver="dense").eigenvalues
    small = spectrum(scaled(imm, c), grid, coeffs, 7, solver="dense").eigenvalues
    assert_matches(small * c**4, base, 1e-9)


@pytest.mark.parametrize("factory,flat", [
    (lambda: clifford_torus((1.0, 0.5, 2.0)), True),
    (lambda: scaled(clifford_torus((1.0, 1.0, 1.0)), 0.03), True),
    (lambda: perturbed_torus(0.0), True),
    (lambda: perturbed_torus(0.05), False),
    (lambda: scaled(perturbed_torus(0.05), 0.03), False),
    (lambda: donut_torus(2.0, 1.0), False),
])
def test_flatness_gate_reads_the_metric(factory, flat):
    imm = factory()
    bundle = build_bundle(imm, TorusGrid((8,) * imm.n))
    assert bundle.constant_coefficient is flat


def test_degenerate_point_keeps_its_grid_index(monkeypatch):
    # a circle times a curve whose speed cos(u) vanishes at u = pi/2: the first
    # degenerate grid point is (2, 0), flat index 16, in the fourth block of 5
    imm = FourierImmersion(2, [
        FourierTerm(k=(0, 1), cos=(1.0, 0.0, 0.0), sin=(0.0, 1.0, 0.0)),
        FourierTerm(k=(1, 0), cos=(0.0, 0.0, 0.0), sin=(0.0, 0.0, 1.0)),
    ])
    grid = TorusGrid((8, 8))
    with pytest.raises(DegenerateImmersionError) as whole:
        induced_metric(imm.jet(grid.points()))
    monkeypatch.setattr(discrete, "_SAMPLE_BLOCK", 5)
    with pytest.raises(DegenerateImmersionError) as blocked:
        build_bundle(imm, grid)
    assert whole.value.where == (2, 0)
    assert blocked.value.where == whole.value.where
    assert str(blocked.value) == str(whole.value)


def stored_bytes(record):
    """Bytes of the arrays a dataclass record holds, nested records included."""
    total = 0
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif dataclasses.is_dataclass(value):
            total += stored_bytes(value)
    return total


def test_flat_five_torus_bundle_stores_only_what_is_read():
    # y, g^{-1}, |H|^2, S, R, the weights, 1/sqrt(g) and Q, 41 fields per
    # point: 10.25 MiB on 8^5, g^{-1} 6.25 of it.  Keeping H and Ric as well
    # made 19.0 MiB, and g, sqrt(g), |Ric|^2 and Lap R besides 26.0 MiB
    bundle = build_bundle(clifford_torus((1.0,) * 5), TorusGrid((8,) * 5))
    assert stored_bytes(bundle) <= 10.5 * 2**20, f"{stored_bytes(bundle) / 2**20:.2f} MiB"


def test_curved_four_torus_bundle_stores_only_what_is_read():
    # a curved bundle adds the two packed flux fields: 50 fields per point,
    # 1.5625 MiB on 8^4 (74 fields, 2.31 MiB, with H and Ric kept)
    imm = clifford_torus((1.0,) * 4).perturbed(
        [FourierTerm(k=(1, 1, 0, 0), cos=(0.1,) + (0.0,) * 7, sin=(0.0,) * 8)])
    bundle = build_bundle(imm, TorusGrid((8,) * 4))
    assert not bundle.constant_coefficient
    assert stored_bytes(bundle) <= 1.6 * 2**20, f"{stored_bytes(bundle) / 2**20:.2f} MiB"


def test_flat_five_torus_bundle_memory_is_bounded():
    # whole-grid sampling peaked at 412 MB here, and 2048-point blocks at
    # 57.0 MB; 512-point blocks keep the peak to the sampled coarse fields
    # plus one block's temporaries: 35.3 MB with g kept through the build,
    # and 32.6 MB with its range and the coefficient flux taken block by
    # block; without H and Ric kept (10.25 MiB of fields) it measured 23.5 MB:
    # the bound is that plus 20 %
    grid = TorusGrid((8,) * 5)
    imm = clifford_torus((1.0,) * 5)
    tracemalloc.start()
    try:
        bundle = build_bundle(imm, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.constant_coefficient
    assert peak < 28.2e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
