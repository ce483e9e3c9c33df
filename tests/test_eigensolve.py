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
from paneitzlab.discrete import build_bundle, inner
from paneitzlab.eigensolve import cluster_eigenvalues, dense_spectrum, spectrum
from paneitzlab.discrete import assemble_dense


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
                      paneitz_coefficients(3), k)
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


def test_auto_solver_switches_on_size():
    small = spectrum(clifford_torus((1.0, 1.0, 1.0)), TorusGrid((8, 8, 8)),
                     paneitz_coefficients(3), 3)
    assert small.method == "dense"
    big = spectrum(clifford_torus((1.0,) * 4), TorusGrid((8, 8, 8, 16)),
                   paneitz_coefficients(4), 3)
    assert big.method == "lanczos"
    assert big.eigenvalues[1] == pytest.approx(1.0, abs=1e-8)


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
    assembly = assemble_dense(bundle, None)
    with pytest.raises(ValueError, match="out of range"):
        dense_spectrum(assembly, 0)
    with pytest.raises(ValueError, match="out of range"):
        dense_spectrum(assembly, 65)
    with pytest.raises(ValueError, match="exceeds"):
        spectrum(imm, grid, None, 65, bundle=bundle, solver="lanczos")


def test_unknown_solver_is_refused():
    with pytest.raises(ValueError, match="unknown solver"):
        spectrum(clifford_torus((1.0, 1.0)), TorusGrid((8, 8)), None, 2,
                 solver="qr")


def test_non_power_of_two_grid_warns():
    with pytest.warns(RuntimeWarning, match="powers of two"):
        spectrum(donut_torus(2.0, 1.0), TorusGrid((12, 12)), None, 2)


def test_starved_iteration_budget_raises():
    with pytest.raises(SolverFailureError, match="did not converge"):
        spectrum(perturbed_torus(), TorusGrid((8, 8, 8)), paneitz_coefficients(3),
                 5, solver="lanczos", max_iter=5)
