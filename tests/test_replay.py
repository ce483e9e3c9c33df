"""Step-by-step replays of the trial-function proofs."""

import math
from dataclasses import replace

import pytest

from paneitzlab import (
    FourierImmersion,
    GateError,
    InvalidDimensionError,
    TorusGrid,
    clifford_torus,
    paneitz_coefficients,
    replay_proof,
    replay_proof_analytic,
    round_sphere,
    sphere_product,
    summarize_bundle,
)
from paneitzlab.discrete import build_bundle
from paneitzlab.eigensolve import spectrum
from paneitzlab.replay import replay_theorem

ANALYTIC_STEPS = (
    "trial_orthogonality",
    "quadratic_form_identity",
    "rayleigh_ritz",
    "laplacian_coordinate_identity",
    "gradient_resolution_identity",
    "coordinate_energy_identity",
    "summed_trace_bound",
    "gradient_identity",
    "am_gm_pivot",
    "summed_gradient_bound",
    "gradient_pointwise_bound",
    "sorting_bound",
    "sorted_tail_comparison",
    "final_bound",
    "delta_perturbation_up",
    "delta_perturbation_down",
)


@pytest.fixture(scope="module")
def torus_run():
    imm = clifford_torus((1.0,) * 4)
    grid = TorusGrid((8,) * 4)
    bundle = build_bundle(imm, grid)

    def solve(k, seed=3):
        return spectrum(imm, grid, paneitz_coefficients(4), k, bundle=bundle,
                        solver="lanczos", seed=seed)

    return bundle, solve


# --------------------------------------------------------------------------
# closed-form route
# --------------------------------------------------------------------------

def test_four_sphere_chain_is_tight():
    rep = replay_proof_analytic("thm_1_1", round_sphere(4, 1.0))
    assert rep.route == "analytic" and rep.ok and rep.flags == ()
    assert rep.worst_slack >= -1e-12
    assert rep.final_lhs == pytest.approx(8.0 * math.sqrt(6.0), rel=1e-10)
    assert rep.final_rhs == pytest.approx(8.0 * math.sqrt(6.0), rel=1e-10)
    assert rep.delta == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-10)
    names = tuple(s.name for s in rep.steps)
    assert names == ANALYTIC_STEPS
    # the pivot delta is a strict local minimum; nudging it must cost slack
    assert rep.step("delta_perturbation_up").slack > 1e-3
    assert rep.step("delta_perturbation_down").slack > 1e-3


def test_five_sphere_gap_chain_is_tight():
    rep = replay_proof_analytic("thm_1_2", round_sphere(5, 1.0))
    assert rep.ok and rep.worst_slack >= -1e-12
    assert rep.final_lhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    assert rep.final_rhs == pytest.approx(5.0 * math.sqrt(52.5), rel=1e-10)
    # the scalar-curvature estimate only enters the chain above n = 4
    assert rep.step("gauss_scalar_estimate").slack >= -1e-12
    with pytest.raises(KeyError):
        replay_proof_analytic("thm_1_1", round_sphere(4, 1.0)).step("gauss_scalar_estimate")


def test_chain_stays_tight_under_rescaling():
    rep = replay_proof_analytic("thm_1_1", round_sphere(4, 2.0))
    assert rep.ok
    assert rep.final_lhs == pytest.approx(rep.final_rhs, rel=1e-10)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("r", [0.7, 1.0, 2.3])
def test_sphere_chain_is_tight_in_every_dimension(n, r):
    rep = replay_proof_analytic(replay_theorem(n), round_sphere(n, r))
    assert rep.ok and rep.flags == ()
    assert rep.worst_slack >= -1e-12
    assert rep.final_lhs == pytest.approx(rep.final_rhs, rel=1e-12)


def test_closed_form_route_rejects_products():
    half = math.sqrt(0.5)
    m = sphere_product([(2, half), (2, half)], ambient="unit_sphere")
    with pytest.raises(GateError, match="single round spheres"):
        replay_proof_analytic("thm_1_1", m)


def test_theorem_gates():
    with pytest.raises(InvalidDimensionError, match="4-manifold"):
        replay_proof_analytic("thm_1_1", round_sphere(5, 1.0))
    with pytest.raises(InvalidDimensionError, match="n > 4"):
        replay_proof_analytic("thm_1_2", round_sphere(4, 1.0))
    with pytest.raises(ValueError, match="replayable"):
        replay_proof_analytic("thm_1_3", round_sphere(5, 1.0))


# --------------------------------------------------------------------------
# sampled route
# --------------------------------------------------------------------------

def test_flat_torus_chain_full(torus_run):
    bundle, solve = torus_run
    result = solve(9)
    rep = replay_proof("thm_1_1", result, bundle)
    assert rep.route == "numerical"
    assert rep.label == "thm_1_1 replay on grid 8x8x8x8"
    assert rep.ok and rep.flags == ()
    assert rep.worst_slack >= -1e-9
    assert rep.gram_schmidt_residual < 1e-10
    # flat torus attains the bound with a balanced pivot
    assert rep.delta == pytest.approx(1.0, abs=1e-9)
    assert rep.final_lhs == pytest.approx(4.0, abs=1e-6)
    assert rep.final_rhs == pytest.approx(4.0, abs=1e-6)
    names = [s.name for s in rep.steps]
    assert "gradient_resolution_identity" in names
    assert "sorted_tail_comparison" in names


def test_both_routes_emit_the_same_chain(torus_run):
    bundle, solve = torus_run
    grid = replay_proof("thm_1_1", solve(9), bundle)
    closed = replay_proof_analytic("thm_1_1", round_sphere(4, 1.0))
    assert [s.name for s in closed.steps] == [s.name for s in grid.steps]


def test_replay_fails_on_eigenvalues_off_by_a_part_in_a_thousand(torus_run):
    # the kernel eigenvalue stays 0; every gap grows by 1e-3 of itself, which
    # breaks exactly the steps that set the gaps against the curvature
    bundle, solve = torus_run
    result = solve(9)
    scaled = replace(result, eigenvalues=result.eigenvalues * (1.0 + 1e-3))
    rep = replay_proof("thm_1_1", scaled, bundle)
    assert not rep.ok
    failing = {s.name for s in rep.steps if s.slack < -1e-6}
    assert failing == {"rayleigh_ritz", "summed_trace_bound",
                       "summed_gradient_bound", "final_bound"}


def test_short_run_leaves_partial_chain(torus_run):
    bundle, solve = torus_run
    rep = replay_proof("thm_1_1", solve(6), bundle)
    assert "partial_chain" in rep.flags
    assert rep.ok  # the inequalities that did run still hold
    assert "sorted_tail_comparison" not in [s.name for s in rep.steps]


def test_replay_needs_enough_eigenpairs(torus_run):
    bundle, solve = torus_run
    with pytest.raises(GateError, match="n \\+ 2"):
        replay_proof("thm_1_1", solve(5), bundle)


def test_replay_needs_eigenfunctions(torus_run):
    bundle, solve = torus_run
    result = replace(solve(9), eigenfunctions=None)
    with pytest.raises(GateError, match="eigenfunctions"):
        replay_proof("thm_1_1", result, bundle)


def test_replay_needs_resolved_kernel(torus_run):
    bundle, solve = torus_run
    result = solve(9)
    shifted = replace(result, eigenvalues=result.eigenvalues + 1.0)
    with pytest.raises(GateError, match="kernel"):
        replay_proof("thm_1_1", shifted, bundle)


def test_grid_replay_reuses_the_bundle_jet(torus_run, monkeypatch):
    # build_bundle evaluates the coarse jet; the ambient test and the
    # replayed coordinates read it back from the bundle
    bundle, solve = torus_run
    result = solve(9)
    calls = []
    jet = FourierImmersion.jet

    def counted(self, points):
        calls.append(points.shape)
        return jet(self, points)

    monkeypatch.setattr(FourierImmersion, "jet", counted)
    assert summarize_bundle(bundle).ambient_unit_sphere is False
    assert replay_proof("thm_1_1", result, bundle).ok
    assert calls == []
