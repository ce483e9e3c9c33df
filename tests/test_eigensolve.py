"""Eigenvalue routes: dense assembly vs Lanczos, clustering, failure modes."""

import numpy as np
import pytest

from paneitzlab import (
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
from paneitzlab.discrete import build_bundle, inner
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
# route agreement
# --------------------------------------------------------------------------

def lanczos_vs_dense(imm, shape, coeffs, k):
    grid = TorusGrid(shape)
    bundle = build_bundle(imm, grid)
    dense = spectrum(imm, grid, coeffs, k, bundle=bundle, solver="dense")
    lanc = spectrum(imm, grid, coeffs, k, bundle=bundle, solver="lanczos")
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
    gram = np.array([[inner(bundle, fi, fj) for fj in result.eigenfunctions]
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


def test_cluster_eigenvalues_groups_by_relative_gap():
    vals = [0.0, 1e-12, 1.0, 1.0 + 5e-7, 2.5]
    assert cluster_eigenvalues(vals) == (
        (pytest.approx(5e-13, abs=1e-12), 2),
        (pytest.approx(1.0 + 2.5e-7), 2),
        (2.5, 1),
    )
    # tighter tolerance splits the near-degenerate pair
    sizes = [m for _, m in cluster_eigenvalues(vals, rtol=1e-9)]
    assert sizes == [2, 1, 1, 1]


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
    # k = 5 keeps a block of 9: every Gram of the block, the residual
    # directions and the previous steps (more than 18 rows) fails to factor,
    # so each iteration is retried without the steps and still converges
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
