"""Eigenvalue routes: dense assembly vs Lanczos, clustering, failure modes."""

import tracemalloc

import numpy as np
import pytest

from paneitzlab import (
    FourierImmersion,
    FourierTerm,
    SolverFailureError,
    TorusGrid,
    clifford_torus,
    donut_torus,
    paneitz_coefficients,
    paneitz_spectrum,
    expand_lines,
    flat_torus,
)
from paneitzlab import discrete, eigensolve
from paneitzlab.discrete import build_bundle, integrate
from paneitzlab.eigensolve import cluster_eigenvalues, dense_spectrum, spectrum
from paneitzlab.discrete import PaneitzOperator, assemble_dense


def perturbed_torus(amp=0.05):
    base = clifford_torus((1.0, 1.0, 1.0))
    term = FourierTerm(k=(1, 1, 0), cos=(amp, 0, 0, 0, 0, 0), sin=(0,) * 6)
    return base.perturbed([term])


# --------------------------------------------------------------------------
# flat tori against the closed-form lattice
# --------------------------------------------------------------------------

@pytest.mark.parametrize("radii", [(1.0, 1.0, 1.0), (1.0, 0.5, 1.0)])
def test_flat_torus_matches_lattice(radii):
    k = 10
    result = spectrum(clifford_torus(radii), TorusGrid((8, 8, 8)),
                      paneitz_coefficients(3), k, solver="dense")
    exact = expand_lines(paneitz_spectrum(flat_torus(radii), count=k + 4).lines, k)
    assert result.method == "dense"
    assert np.abs(result.eigenvalues - np.asarray(exact)).max() < 1e-9
    assert result.defect is not None and result.defect <= 1e-8


def test_refinement_leaves_resolved_eigenvalues_fixed():
    # band-limited eigenfunctions are represented exactly, so refining the
    # grid must not move their eigenvalues
    runs = [
        spectrum(clifford_torus((1.0, 1.0, 1.0)), TorusGrid((m,) * 3),
                 paneitz_coefficients(3), 7, solver="lanczos")
        for m in (8, 16)
    ]
    assert abs(runs[0].eigenvalues[1] - runs[1].eigenvalues[1]) <= 1e-9


# --------------------------------------------------------------------------
# an intrinsically flat curved torus: the ellipse times two circles
# --------------------------------------------------------------------------

ELLIPSE_EPS = 0.1


def ellipse_torus(eps):
    """The unit Clifford T^3 with coordinate 0 made (1 + eps) cos x_1."""
    return clifford_torus((1.0, 1.0, 1.0)).perturbed(
        [FourierTerm(k=(1, 0, 0), cos=(eps,) + (0.0,) * 5, sin=(0.0,) * 6)])


def ellipse_lattice(eps, k):
    """The k smallest values of the ellipse torus: the flat lattice
    ((2 pi / L)^2 k_1^2 + k_2^2 + k_3^2)^2, L the ellipse's length."""
    x = 2 * np.pi * np.arange(256) / 256
    length = 2 * np.pi * np.mean(np.hypot((1 + eps) * np.sin(x), np.cos(x)))
    lattice = range(-4, 5)
    return np.array(sorted(((2 * np.pi / length) ** 2 * a * a + b * b + c * c) ** 2
                           for a in lattice for b in lattice for c in lattice)[:k])


@pytest.fixture(scope="module")
def ellipse_runs():
    """(bundle, result) of the 12 lowest values on 8^3, 12^3 and 16^3, and the
    exact values.  Coordinate 0 of the unit Clifford torus becomes
    (1 + eps) cos x_1: the metric varies along x_1, so the bundle takes the
    flux path, but the first circle is only reparametrized.  The torus is
    flat, P = Lap^2, and its spectrum is ((2 pi / L)^2 k_1^2 + k_2^2 + k_3^2)^2
    with L the ellipse's length, which the periodic trapezoid rule on |y'|
    gives to roundoff."""
    k = 12
    imm = ellipse_torus(ELLIPSE_EPS)
    runs = []
    for m in (8, 12, 16):
        grid = TorusGrid((m,) * 3)
        bundle = build_bundle(imm, grid)
        runs.append((bundle, spectrum(imm, grid, paneitz_coefficients(3), k, bundle=bundle,
                                      seed=1)))
    return runs, ellipse_lattice(ELLIPSE_EPS, k)


def test_ellipse_torus_converges_spectrally_to_its_flat_lattice(ellipse_runs):
    runs, exact = ellipse_runs
    errors = [np.abs(result.eigenvalues - exact).max() for _, result in runs]
    # measured 2.2e-6, 3.3e-9, 2.2e-11: 675x, then 150x
    assert errors[0] >= 50 * errors[1] and errors[1] >= 50 * errors[2]
    assert errors[2] < 1e-9


def test_ellipse_torus_is_curved_outside_but_flat_inside(ellipse_runs):
    runs, _ = ellipse_runs
    for bundle, _ in runs:
        assert not bundle.constant_coefficient
        assert np.abs(bundle.coeff_flux).max() <= 1e-14
        assert np.abs(bundle.curv.scalar).max() <= 1e-14
        assert np.abs(bundle.q_field).max() <= 1e-14
        assert bundle.curv.mean_sq.min() > 0.25     # |H|^2 spans 0.298 .. 0.357


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strongly_curved_ellipse_torus_converges(seed):
    # eps = 0.5: sqrt(g) varies by a factor 1.5, and a preconditioner that
    # is not symmetric in the solver's variables stalled here (exit 3) at
    # every seed; 4.0e-6 is the discretization error, the dense route's too
    imm, grid = ellipse_torus(0.5), TorusGrid((12, 12, 12))
    result = spectrum(imm, grid, paneitz_coefficients(3), 7, seed=seed)
    assert result.iterations <= 25
    assert np.abs(result.eigenvalues - ellipse_lattice(0.5, 7)).max() <= 1e-5


# --------------------------------------------------------------------------
# the preconditioner, symmetric in the solver's variables
# --------------------------------------------------------------------------

def donut_times_circle(outer=2.0, inner=1.0, rho=0.7):
    """The torus of revolution (outer, inner) times a circle of radius rho, in
    R^5: R, Ric and Q vary with the donut's angle and do not vanish."""
    def vec(**entries):
        out = [0.0] * 5
        for name, value in entries.items():
            out[int(name[1:])] = value
        return tuple(out)

    return FourierImmersion(3, [
        FourierTerm(k=(1, 0, 0), cos=vec(y0=outer), sin=vec(y1=outer)),
        FourierTerm(k=(1, 1, 0), cos=vec(y0=inner / 2), sin=vec(y1=inner / 2)),
        FourierTerm(k=(1, -1, 0), cos=vec(y0=inner / 2), sin=vec(y1=inner / 2)),
        FourierTerm(k=(0, 1, 0), cos=vec(), sin=vec(y2=inner)),
        FourierTerm(k=(0, 0, 1), cos=vec(y3=rho), sin=vec(y4=rho)),
    ])


def test_donut_times_circle_converges_to_the_dense_spectrum():
    # stalled (exit 3) with the unsymmetric preconditioner; 21 iterations now
    gap, _, lanc = lanczos_vs_dense(donut_times_circle(), (8, 8, 8),
                                    paneitz_coefficients(3), 12, seed=1)
    assert lanc.iterations <= 25
    assert gap <= 1e-8


@pytest.mark.parametrize("imm", [ellipse_torus(0.5), perturbed_torus(0.1),
                                 clifford_torus((1.0, 0.5, 2.0))])
def test_preconditioner_is_symmetric_in_the_solver_variables(imm):
    # W^{1/2} T W^{-1/2} read 1.6e-1 (ellipse) off symmetric; W^{1/2} T W^{1/2}
    # / mean(w) is symmetric to roundoff and positive definite, flat bundles
    # included
    bundle = build_bundle(imm, TorusGrid((8, 8, 8)))
    op = PaneitzOperator(bundle, paneitz_coefficients(3))
    op.penalty = discrete.default_penalty(op)
    matrix = eigensolve._preconditioner(op)(np.eye(op.size))
    assert np.linalg.norm(matrix - matrix.T) <= 1e-13 * np.linalg.norm(matrix)
    assert np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0] > 0


# --------------------------------------------------------------------------
# route agreement
# --------------------------------------------------------------------------

def lanczos_vs_dense(imm, shape, coeffs, k, seed=eigensolve.DEFAULT_SEED):
    grid = TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    dense = spectrum(imm, grid, coeffs, k, bundle=bundle, solver="dense")
    lanc = spectrum(imm, grid, coeffs, k, bundle=bundle, solver="lanczos", seed=seed)
    assert lanc.iterations is not None and lanc.method == "lanczos"
    return float(np.abs(dense.eigenvalues - lanc.eigenvalues).max()), dense, lanc


def test_routes_agree_on_flat_torus():
    gap, _, _ = lanczos_vs_dense(clifford_torus((1.0, 0.5, 1.0)), (8, 8, 8),
                                 paneitz_coefficients(3), 7)
    assert gap <= 1e-8


def test_routes_agree_on_curved_torus():
    # variable-coefficient case: both routes must discretize the *same*
    # penalized operator, or the eigenvalues drift apart at O(coupling^2/gap)
    gap, dense, lanc = lanczos_vs_dense(perturbed_torus(), (8, 8, 8),
                                        paneitz_coefficients(3), 7)
    assert gap <= 1e-8
    assert lanc.penalty == pytest.approx(dense.penalty)


def test_routes_agree_on_donut_laplacian():
    gap, dense, _ = lanczos_vs_dense(donut_torus(2.0, 1.0), (16, 16), None, 6)
    assert gap <= 1e-8
    assert dense.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(dense.eigenvalues >= -1e-10)


# --------------------------------------------------------------------------
# eigenpair quality
# --------------------------------------------------------------------------

def test_eigenfunctions_orthonormal_with_positive_mean():
    imm = clifford_torus((1.0, 1.0, 1.0))
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(imm, grid)
    result = spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle)
    gram = np.array([[integrate(bundle, fi * fj) for fj in result.eigenfunctions]
                     for fi in result.eigenfunctions])
    assert np.abs(gram - np.eye(5)).max() < 1e-8
    # kernel of the flat operator is the constants; sign fix makes it positive
    u0 = result.eigenfunctions[0]
    assert u0.min() > 0.0
    assert u0.max() == pytest.approx(bundle.volume**-0.5, rel=1e-8)
    assert np.all(result.residuals <= 1e-6)


def test_lanczos_is_deterministic_per_seed():
    imm = perturbed_torus()
    grid = TorusGrid((8, 8, 8))
    bundle = build_bundle(imm, grid)
    runs = [spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle,
                     solver="lanczos", seed=seed) for seed in (1, 1, 2)]
    assert np.array_equal(runs[0].eigenvalues, runs[1].eigenvalues)
    assert np.abs(runs[0].eigenvalues - runs[2].eigenvalues).max() <= 1e-8


def test_curved_refinement_converges_in_grid_independent_iterations():
    # refining 8^3 -> 16^3 stretches the penalized spectrum ~16x; the
    # preconditioned solve must still converge, in about as many iterations
    imm = perturbed_torus(amp=0.1)
    runs = {m: spectrum(imm, TorusGrid((m,) * 3), paneitz_coefficients(3), 7,
                        solver="lanczos") for m in (8, 16)}
    fine = runs[16]
    assert np.all(fine.residuals <= 10 * 1e-8 * np.maximum(1.0, np.abs(fine.eigenvalues)))
    assert fine.iterations <= 2 * runs[8].iterations
    assert np.abs(fine.eigenvalues - runs[8].eigenvalues).max() <= 1e-4


def test_curved_solve_converges_without_restarts():
    # the wanted pairs of this case pass the residual test by about
    # iteration 13; a solver that restarts or waits on the spare vectors
    # takes 40
    result = spectrum(perturbed_torus(amp=0.1), TorusGrid((8, 8, 8)),
                      paneitz_coefficients(3), 7, solver="lanczos")
    assert result.iterations <= 20
    assert np.all(result.residuals <= 10 * 1e-8 * np.maximum(1.0, np.abs(result.eigenvalues)))


@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 8, 8, 16)])
def test_auto_solver_is_iterative_at_every_size(shape):
    n = len(shape)
    result = spectrum(clifford_torus((1.0,) * n), TorusGrid(shape),
                      paneitz_coefficients(n), 3)
    assert result.method == "lanczos" and result.defect is None
    assert result.eigenvalues[1] == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------------------------
# the start block read from the predicted spectrum
# --------------------------------------------------------------------------

@pytest.mark.parametrize("radii,shape,k,block", [
    ((1.0, 0.5, 2.0), (8, 8, 8), 10, 15),
    ((1.0,) * 4, (8,) * 4, 9, 13),
    ((1.0,) * 5, (8,) * 5, 11, 15),
    ((1.0,) * 3, (9,) * 3, 7, 11),
])
def test_flat_solves_end_at_iteration_zero(radii, shape, k, block):
    # on a flat bundle the grid-mean symbol is the operator, so the start
    # block's Fourier modes are eigenvectors: one apply of it, no iteration
    imm, grid = clifford_torus(radii), TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    exact = np.asarray(expand_lines(paneitz_spectrum(flat_torus(radii), count=k + 4).lines, k))
    for seed in (1, 2):
        result = spectrum(imm, grid, paneitz_coefficients(len(shape)), k, bundle=bundle,
                          seed=seed)
        assert result.iterations == 0
        assert result.block == result.applied_columns == block
        assert np.abs(result.eigenvalues - exact).max() <= 1e-13


def test_flat_five_torus_solve_memory_is_bounded():
    # flat T^5 on 8^5, k = 7: a start block of 15 columns, applied in two
    # batches.  With the coefficients scaled by a temporary, the start modes
    # kept to the end and the rescaling into a new array, the peak above the
    # bundle was 23.1 MB; in place and without the modes, measured 17.6 MB:
    # the bound is that plus 20 %.  The first solve imports scipy.fft
    imm, grid = clifford_torus((1.0,) * 5), TorusGrid((8,) * 5)
    bundle = build_bundle(imm, grid)
    spectrum(imm, grid, paneitz_coefficients(5), 7, bundle=bundle, solver="lanczos")
    tracemalloc.start()
    try:
        result = spectrum(imm, grid, paneitz_coefficients(5), 7, bundle=bundle,
                          solver="lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 0
    assert peak < 21.2e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.fixture(scope="module")
def curved_case():
    imm, grid = perturbed_torus(amp=0.1), TorusGrid((8, 8, 8))
    bundle = build_bundle(imm, grid)
    dense = spectrum(imm, grid, paneitz_coefficients(3), 20, bundle=bundle, solver="dense")
    return imm, grid, bundle, dense


@pytest.mark.parametrize("k,block", [(5, 9), (8, 15), (10, 15), (13, 19), (20, 31)])
def test_cut_predicted_clusters_hide_no_eigenvalue(curved_case, k, block):
    # the mean-metric prediction splits the 12 modes of |k|^2 = 2 into three
    # clusters of 4, while the true values near 3.96..4.07 interleave them:
    # k = 8 and 10 cut the true cluster, and the guards must still find it
    imm, grid, bundle, dense = curved_case
    result = spectrum(imm, grid, paneitz_coefficients(3), k, bundle=bundle, seed=3)
    assert result.block == block and result.applied_columns > block
    assert np.abs(result.eigenvalues - dense.eigenvalues[:k]).max() <= 1e-8


def test_start_near_a_cut_cluster_converges_in_fewer_iterations(curved_case):
    # k = 8 sits on the lowest value of the |k|^2 = 2 cluster; a random
    # start block took 98 iterations
    imm, grid, bundle, _ = curved_case
    result = spectrum(imm, grid, paneitz_coefficients(3), 8, bundle=bundle, seed=3)
    assert result.iterations <= 40


def test_start_block_is_capped_at_the_grid_size():
    # k = size: the start block is the whole real Fourier basis, no guards
    imm, grid = donut_torus(2.0, 1.0), TorusGrid((8, 8))
    bundle = build_bundle(imm, grid)
    dense = spectrum(imm, grid, None, grid.size, bundle=bundle, solver="dense")
    lanc = spectrum(imm, grid, None, grid.size, bundle=bundle, solver="lanczos")
    assert lanc.block == grid.size
    assert np.abs(lanc.eigenvalues - dense.eigenvalues).max() <= 1e-8


def test_uncleared_cluster_grows_the_block(monkeypatch):
    # one guard: at k = 5 the block holds 6 columns, the converged top Ritz
    # value fails to clear the 5th value's cluster once, and the block grows
    # by guards before the solve ends (at 18 iterations)
    monkeypatch.setattr(eigensolve, "GUARDS", 1)
    widths = []
    rayleigh_ritz = eigensolve._rayleigh_ritz

    def recorded(x, ax, search, m):
        widths.append(m)
        return rayleigh_ritz(x, ax, search, m)

    monkeypatch.setattr(eigensolve, "_rayleigh_ritz", recorded)
    imm, grid = perturbed_torus(amp=0.1), TorusGrid((8, 8, 8))
    bundle = build_bundle(imm, grid)
    lanc = spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle, seed=3)
    dense = spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle, solver="dense")
    assert lanc.block == widths[0] == 6
    assert max(widths) > lanc.block
    assert np.abs(lanc.eigenvalues - dense.eigenvalues).max() <= 1e-8


def test_cluster_eigenvalues_groups_by_relative_gap():
    vals = [0.0, 1e-12, 1.0, 1.0 + 5e-7, 2.5]
    assert cluster_eigenvalues(vals) == (
        (pytest.approx(5e-13, abs=1e-12), 2),
        (pytest.approx(1.0 + 2.5e-7), 2),
        (2.5, 1),
    )


# --------------------------------------------------------------------------
# failure modes
# --------------------------------------------------------------------------

def test_k_out_of_range_is_refused():
    imm = clifford_torus((1.0, 1.0))
    grid = TorusGrid((8, 8))
    bundle = build_bundle(imm, grid)
    assembly = assemble_dense(PaneitzOperator(bundle, None))
    with pytest.raises(ValueError, match="out of range"):
        dense_spectrum(assembly, 0)
    with pytest.raises(ValueError, match="out of range"):
        dense_spectrum(assembly, 65)
    with pytest.raises(ValueError, match="exceeds"):
        spectrum(imm, grid, None, 65, bundle=bundle, solver="lanczos")


@pytest.mark.parametrize("solver", ["dense", "lanczos"])
def test_spectrum_builds_one_operator_for_either_route(solver, monkeypatch):
    built, solved = [], []

    class Recorded(eigensolve.PaneitzOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    lanczos, assemble = eigensolve.lanczos_smallest, eigensolve.assemble_dense
    # both modules: a penalty-free operator built inside discrete counts too
    monkeypatch.setattr(eigensolve, "PaneitzOperator", Recorded)
    monkeypatch.setattr(discrete, "PaneitzOperator", Recorded)
    monkeypatch.setattr(eigensolve, "lanczos_smallest",
                        lambda op, k, **kw: solved.append(op) or lanczos(op, k, **kw))
    monkeypatch.setattr(eigensolve, "assemble_dense",
                        lambda op: solved.append(op) or assemble(op))
    result = spectrum(clifford_torus((1.0, 1.0)), TorusGrid((8, 8)), None, 3, solver=solver)
    assert len(built) == 1 and solved == built
    assert result.penalty == built[0].penalty > 0.0


def test_unknown_solver_is_refused():
    with pytest.raises(ValueError, match="unknown solver"):
        spectrum(clifford_torus((1.0, 1.0)), TorusGrid((8, 8)), None, 2,
                 solver="qr")


def test_failed_gram_factorization_drops_the_step_directions(monkeypatch):
    # k = 5 keeps a block of 9 (5 predicted modes, 4 guards): every Gram of
    # the block, the residual directions and the previous steps (more than
    # 18 rows) fails to factor, so each iteration is retried without the
    # steps and still converges
    cholesky = np.linalg.cholesky
    retried = []

    def fails_with_steps(a):
        if len(a) > 18:
            retried.append(len(a))
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    imm, grid = perturbed_torus(), TorusGrid((8, 8, 8))
    bundle = build_bundle(imm, grid)
    dense = spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle, solver="dense")
    monkeypatch.setattr(np.linalg, "cholesky", fails_with_steps)
    lanc = spectrum(imm, grid, paneitz_coefficients(3), 5, bundle=bundle, solver="lanczos")
    assert retried
    assert np.abs(lanc.eigenvalues - dense.eigenvalues).max() <= 1e-8


def test_starved_iteration_budget_raises(monkeypatch):
    monkeypatch.setattr(eigensolve, "MAX_ITER", 5)
    with pytest.raises(SolverFailureError, match="did not converge"):
        spectrum(perturbed_torus(), TorusGrid((8, 8, 8)), paneitz_coefficients(3),
                 5, solver="lanczos")
