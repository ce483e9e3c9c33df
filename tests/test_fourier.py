"""Grids, the spectral kernel and trigonometric immersions."""

import math

import numpy as np
import pytest

from paneitzlab.fourier import (
    FourierImmersion,
    FourierTerm,
    SpectralKernel,
    TorusGrid,
    clifford_torus,
    donut_torus,
)
from paneitzlab.geometry import curvature_point, induced_metric

from helpers import band_project, derivative

RNG = np.random.default_rng(99)


# ------------------------------------------------------------------- grids

def test_grid_shapes_and_points():
    grid = TorusGrid((8, 12))
    assert grid.shape == (8, 12)
    assert grid.size == 96
    pts = grid.points()
    assert pts.shape == (8, 12, 2)
    assert pts[1, 0, 0] == pytest.approx(2 * math.pi / 8)
    assert pts[0, 3, 1] == pytest.approx(3 * 2 * math.pi / 12)


@pytest.mark.parametrize("shape", [(8, 12), (9, 8, 10)])
def test_point_blocks_are_slices_of_the_grid(shape):
    grid = TorusGrid(shape)
    flat = grid.points().reshape(-1, grid.n)
    for start, stop in [(0, 7), (5, 61), (grid.size - 3, grid.size)]:
        assert np.array_equal(grid.point_block(start, stop), flat[start:stop])


@pytest.mark.parametrize("bad", [(4,), (8, 6), (0, 8)])
def test_small_grids_refused(bad):
    with pytest.raises(ValueError):
        TorusGrid(bad)


# ------------------------------------------------------- the spectral kernel

def kernel_for(shape):
    return SpectralKernel(TorusGrid(shape))


def kernel_project(kernel, u):
    return kernel.synthesize(kernel.coefficients(u) * kernel.band)


@pytest.mark.parametrize("shape", [(8, 8), (9, 8, 10)])
def test_band_projection_is_self_adjoint(shape):
    # <T u, v> = <u, T v> in the plain grid sum: what the symmetry of every
    # collocated operator rests on
    kernel = kernel_for(shape)
    u, v = RNG.standard_normal((2,) + shape)
    lhs = np.sum(kernel_project(kernel, u) * v)
    assert lhs == pytest.approx(np.sum(u * kernel_project(kernel, v)), rel=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (9, 8, 10)])
def test_divergence_is_minus_the_adjoint_of_the_gradient(shape):
    # sum u T[div flow] = - sum grad(T u) . flow for any grid vector field:
    # summation by parts holds exactly on the collocation grid
    kernel = kernel_for(shape)
    u = RNG.standard_normal(shape)
    flow = RNG.standard_normal((len(shape),) + shape)
    lhs = np.sum(u * kernel.synthesize(kernel.divergence(flow)))
    rhs = -np.sum(kernel.gradient(kernel.coefficients(u)) * flow)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_band_project_idempotent_and_kills_nyquist():
    kernel = kernel_for((8, 8))
    u = RNG.standard_normal(kernel.grid.shape)
    bu = kernel_project(kernel, u)
    assert np.allclose(kernel_project(kernel, bu), bu, atol=1e-13)
    theta = kernel.grid.points()
    sawtooth = np.cos(4 * theta[..., 0])  # Nyquist mode of an 8-grid
    assert np.max(np.abs(kernel_project(kernel, sawtooth))) <= 1e-12


def test_spectral_derivative_exact_on_band():
    kernel = kernel_for((16, 16))
    theta = kernel.grid.points()
    u = np.sin(3 * theta[..., 0]) * np.cos(2 * theta[..., 1])
    du0, du1 = kernel.partials(u)
    assert np.allclose(du0, 3 * np.cos(3 * theta[..., 0]) * np.cos(2 * theta[..., 1]), atol=1e-12)
    assert np.allclose(du1, -2 * np.sin(3 * theta[..., 0]) * np.sin(2 * theta[..., 1]), atol=1e-12)


def test_spectral_derivative_batched_axes():
    kernel = kernel_for((8, 8))
    theta = kernel.grid.points()
    stack = np.stack([np.sin(theta[..., 0]), np.cos(2 * theta[..., 1])])
    d = kernel.partials(stack)
    assert d.shape == (2,) + stack.shape
    assert np.allclose(d[0, 0], np.cos(theta[..., 0]), atol=1e-12)
    assert np.allclose(d[0, 1], 0.0, atol=1e-12)
    assert np.allclose(d[1, 1], -2 * np.sin(2 * theta[..., 1]), atol=1e-12)


def test_nyquist_mode_derivative_annihilated():
    kernel = kernel_for((8,))
    theta = kernel.grid.points()[..., 0]
    saw = np.cos(4 * theta)
    assert np.max(np.abs(kernel.partials(saw))) <= 1e-12


@pytest.mark.parametrize("shape,count", [((8, 8), 7 * 4), ((8, 9), 7 * 5), ((9, 8, 10), 9 * 7 * 5)])
def test_band_follows_the_rule_on_even_and_odd_axes(shape, count):
    # |k| < m/2 per axis on the real-FFT layout: an even axis loses its
    # Nyquist line, an odd one keeps every mode; the last axis holds k >= 0
    kernel = kernel_for(shape)
    assert kernel.band.shape == shape[:-1] + (shape[-1] // 2 + 1,)
    assert int(kernel.band.sum()) == count


@pytest.mark.parametrize("shape", [(8, 8), (9, 8, 10)])
def test_coefficients_have_one_layout_and_derivatives_stay_on_the_band(shape):
    # coefficients and divergences share the band mask's real-FFT layout;
    # synthesize inverts coefficients, and ik drops every off-band mode
    kernel = kernel_for(shape)
    u = RNG.standard_normal((2,) + shape)
    c = kernel.coefficients(u)
    assert c.shape == (2,) + kernel.band.shape
    assert np.allclose(kernel.synthesize(c), u, atol=1e-13)
    div = kernel.divergence(RNG.standard_normal((len(shape),) + shape))
    assert div.shape == kernel.band.shape and np.all(div[~kernel.band] == 0.0)
    assert all(np.all(ik[~kernel.band] == 0.0) for ik in kernel.ik)


@pytest.mark.parametrize("shape", [(8, 8), (9, 8, 10)])
def test_kernel_matches_the_numpy_reference(shape):
    # band projection and partials against full complex FFTs
    kernel = kernel_for(shape)
    grid = kernel.grid
    u = RNG.standard_normal((3,) + grid.shape)
    bu = band_project(u, grid)
    assert np.allclose(kernel_project(kernel, u), bu, atol=1e-13)
    partials = kernel.partials(bu)
    for axis in range(grid.n):
        assert np.allclose(partials[axis], derivative(bu, axis, grid), atol=1e-12)


def test_symbol_and_multiply_give_the_constant_metric_laplacian():
    # -Lap of cos(2x) sin(3y) under g = diag(1/4, 1/9) (g^{-1} = diag(4, 9))
    # is (4 * 2^2 + 9 * 3^2) cos(2x) sin(3y); the Nyquist line goes to zero
    kernel = kernel_for((8, 12))
    theta = kernel.grid.points()
    g_inv = np.diag([4.0, 9.0])
    mu = kernel.symbol(g_inv)
    assert mu.shape == kernel.band.shape
    assert np.all(mu[~kernel.band] == 0.0)
    assert mu[2, 3] == 4 * 4 + 9 * 9 and mu[-2, 3] == mu[2, 3]

    def multiply(f):
        return kernel.synthesize(kernel.coefficients(f) * mu)

    u = np.cos(2 * theta[..., 0]) * np.sin(3 * theta[..., 1])
    assert np.allclose(multiply(u), 97.0 * u, atol=1e-11)
    saw = np.cos(4 * theta[..., 0])
    assert np.max(np.abs(multiply(saw))) <= 1e-12
    batch = np.stack([u, 2 * u])
    assert np.allclose(multiply(batch), 97.0 * batch, atol=1e-11)



# -------------------------------------------------------------- immersions

def test_clifford_jet_matches_closed_form():
    radii = (1.0, 0.5, 2.0)
    imm = clifford_torus(radii)
    pts = RNG.uniform(0, 2 * math.pi, size=(6, 3))
    jet = imm.jet(pts)
    assert jet.ambient_dim == 6
    for i, r in enumerate(radii):
        assert np.allclose(jet.y[:, 2 * i], r * np.cos(pts[:, i]), atol=1e-14)
        assert np.allclose(jet.y[:, 2 * i + 1], r * np.sin(pts[:, i]), atol=1e-14)
    metric = induced_metric(jet)
    assert np.allclose(metric.g, np.diag(np.array(radii) ** 2), atol=1e-13)


def test_jet_derivatives_match_finite_differences():
    base = clifford_torus((1.0, 1.0))
    bumped = base.perturbed([FourierTerm(k=(2, 1), cos=(0.1, 0.0, 0.05, 0.0),
                                         sin=(0.0, 0.07, 0.0, 0.0))])
    p0 = np.array([[0.7, 1.9]])
    h = 1e-4  # balances truncation (h^2) against cancellation in the 2nd difference
    jet = bumped.jet(p0)
    for axis in range(2):
        dp = np.zeros((1, 2))
        dp[0, axis] = h
        fd = (bumped.jet(p0 + dp).y - bumped.jet(p0 - dp).y) / (2 * h)
        assert np.allclose(jet.dy[0, :, axis], fd[0], atol=1e-6)
        fd2 = (bumped.jet(p0 + dp).y - 2 * jet.y + bumped.jet(p0 - dp).y) / h**2
        assert np.allclose(jet.d2y[0, :, axis, axis], fd2[0], atol=1e-6)


def test_sphere_deviation_zero_only_on_unit_products():
    grid = TorusGrid((16, 16))
    on_sphere = clifford_torus((math.sqrt(0.5), math.sqrt(0.5)))
    off_sphere = clifford_torus((1.0, 1.0))
    assert on_sphere.sphere_deviation(grid) <= 1e-12
    assert off_sphere.sphere_deviation(grid) == pytest.approx(1.0, rel=1e-12)


def test_values_are_the_jet_without_derivatives():
    imm = clifford_torus((1.0, 0.5, 2.0)).perturbed(
        [FourierTerm(k=(1, 2, 0), cos=(0.1,) + (0.0,) * 5, sin=(0.0, 0.2) + (0.0,) * 4)])
    points = TorusGrid((8, 9, 8)).points()
    assert np.array_equal(imm.values(points), imm.jet(points).y)


def test_perturbed_leaves_base_untouched():
    base = clifford_torus((1.0, 1.0))
    term = FourierTerm(k=(1, 1), cos=(0.2, 0, 0, 0), sin=(0, 0, 0, 0))
    bumped = base.perturbed([term])
    assert len(bumped.terms) == len(base.terms) + 1
    assert len(base.terms) == 2  # one cos/sin pair per circle factor


def test_donut_curvature_against_surface_formula():
    R, r = 2.0, 0.5
    imm = donut_torus(R, r)
    pts = RNG.uniform(0, 2 * math.pi, size=(40, 2))
    jet = imm.jet(pts)
    metric = induced_metric(jet)
    curv = curvature_point(jet, metric)
    # scalar curvature of a torus of revolution: 2 cos(v) / (r (R + r cos v))
    v = pts[:, 1]
    expected = 2 * np.cos(v) / (r * (R + r * np.cos(v)))
    assert np.allclose(curv.scalar, expected, rtol=1e-9, atol=1e-11)


def test_fourier_term_validation():
    with pytest.raises(ValueError):
        FourierTerm(k=(1, 0), cos=(1.0,), sin=(0.0, 0.0))     # ragged coefficients
    with pytest.raises(ValueError):
        FourierTerm(k=(1.5, 0), cos=(1.0,), sin=(0.0,))       # fractional wavenumber
    with pytest.raises(ValueError):
        FourierImmersion(2, [FourierTerm(k=(1,), cos=(0.1, 0.0), sin=(0.0, 0.0))])
    with pytest.raises(ValueError):
        FourierImmersion(2, [])
