"""Step-by-step replays of the trial-function proofs."""

import json
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
from paneitzlab import cli
from paneitzlab.bounds import evaluate, summarize_model, u1_from_result
from paneitzlab.catalog import expand_lines, paneitz_spectrum
from paneitzlab.discrete import build_bundle
from paneitzlab.eigensolve import spectrum
from paneitzlab.fourier import FourierTerm
from paneitzlab.replay import REPLAY_TOL_NUMERICAL, replay_theorem
from paneitzlab.report import constants_block

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


# --------------------------------------------------------------------------
# the shared pivot: a bound and its replay read p and q from one function
# --------------------------------------------------------------------------

def _grid_run(radii, amp, k):
    """A torus immersion on 8^n, with amp cos(x_1 + x_2) added to its first
    coordinate, solved for k pairs."""
    n = len(radii)
    imm = clifford_torus(radii)
    if amp:
        cos = (amp,) + (0.0,) * (2 * n - 1)
        imm = imm.perturbed([FourierTerm(k=(1, 1) + (0,) * (n - 2), cos=cos,
                                          sin=(0.0,) * (2 * n))])
    grid = TorusGrid((8,) * n)
    bundle = build_bundle(imm, grid)
    return bundle, spectrum(imm, grid, paneitz_coefficients(n), k, bundle=bundle,
                            solver="lanczos", seed=3)


@pytest.fixture(scope="module")
def flat_t5_run():
    return _grid_run((1.0,) * 5, 0.0, 7)


def test_curved_torus_chain_fails_only_the_laplacian_coordinate_step():
    # curved T^4 on 8^4 (amplitude 0.1): every step but one clears the
    # numerical floor.  laplacian_coordinate_identity compares the band-cut
    # grid Laplacian of y with the uncut n H and reads about -2.8e-2 here
    # (ROADMAP item 2); fixing that step must update this assertion.
    bundle, result = _grid_run((1.0,) * 4, 0.1, 9)
    rep = replay_proof("thm_1_1", result, bundle)
    failing = {s.name for s in rep.steps if s.slack < -REPLAY_TOL_NUMERICAL}
    assert failing == {"laplacian_coordinate_identity"}
    assert not rep.ok


@pytest.mark.parametrize("theorem, n, r", [
    ("thm_1_1", 4, 1.0), ("thm_1_1", 4, 0.7), ("thm_1_2", 5, 1.0), ("thm_1_2", 6, 2.3)])
def test_closed_form_bound_rhs_is_the_replayed_rhs(theorem, n, r):
    m = round_sphere(n, r)
    values = expand_lines(paneitz_spectrum(m, n + 4).lines, n + 3)
    rep = evaluate(theorem, values, summarize_model(m))
    assert rep.rhs == replay_proof_analytic(theorem, m).final_rhs


def _bound_meets_replay(theorem, bundle, result, u1=None):
    rep = evaluate(theorem, result.eigenvalues, summarize_bundle(bundle), u1)
    return rep.rhs == replay_proof(theorem, result, bundle).final_rhs


def test_grid_bound_rhs_is_the_replayed_rhs(torus_run, flat_t5_run):
    bundle, solve = torus_run
    assert _bound_meets_replay("thm_1_1", bundle, solve(9))
    assert _bound_meets_replay("thm_1_1", *_grid_run((1.0,) * 4, 0.05, 9))
    bundle, result = flat_t5_run
    assert _bound_meets_replay("thm_1_2", bundle, result, u1_from_result(bundle, result))


def test_multiple_ground_state_flag_is_one_name(flat_t5_run, tmp_path, monkeypatch):
    bundle, result = flat_t5_run
    (value, count), *rest = result.clusters
    doubled = replace(result, clusters=((value, count + 1), *rest))
    rep = evaluate("thm_1_2", doubled.eigenvalues, summarize_bundle(bundle),
                   u1_from_result(bundle, doubled))
    chain = replay_proof("thm_1_2", doubled, bundle)
    assert "first_eigenvalue_multiple" in rep.flags
    assert "first_eigenvalue_multiple" in chain.flags

    # the closed form: the catalog never doubles the bottom line, so pretend it does
    real = cli.first_eigenfunction_info
    monkeypatch.setattr(cli, "first_eigenfunction_info",
                        lambda m: replace(real(m), multiplicity=2))
    spec, out = tmp_path / "s5.yaml", tmp_path / "v.json"
    spec.write_text("kind: sphere\ndim: 5\nparams:\n  r: 1.0\n")
    assert cli.main(["verify", "--spec", str(spec), "--bound", "thm_1_2", "--quiet",
                     "--out", str(out)]) == 0
    (closed,) = json.loads(out.read_text())["bounds"]
    assert closed["flags"] == ["first_eigenvalue_multiple"]


@pytest.mark.parametrize("model, text", [
    (round_sphere(4, 1.0),
     '{"label": "S4(r=1) in R^5", "n": 4, "volume": 26.31894506957162, '
     '"ambient_unit_sphere": false, "numerical": false, "mean_curvature_sq": '
     '{"integral": 26.31894506957162, "min": 1.0, "max": 1.0}, "second_form_sq": '
     '{"integral": 105.27578027828648, "min": 4.0, "max": 4.0}, "scalar_curvature": '
     '{"integral": 315.82734083485946, "min": 12.0, "max": 12.0}, "q_curvature": '
     '{"integral": 157.91367041742973, "min": 6.0, "max": 6.0}}'),
    (sphere_product([(3, 1.0), (4, 2.0)]),
     '{"label": "S3(r=1) x S4(r=2) in R^9", "n": 7, "volume": 8312.24243490154, '
     '"ambient_unit_sphere": false, "numerical": false, "mean_curvature_sq": '
     '{"integral": 2205.288809259592, "min": 0.2653061224489796, "max": 0.2653061224489796}, '
     '"second_form_sq": {"integral": 33248.96973960616, "min": 4.0, "max": 4.0}, '
     '"scalar_curvature": {"integral": 74810.18191411385, "min": 9.0, "max": 9.0}, '
     '"q_curvature": {"integral": 13247.63638062433, "min": 1.59375, "max": 1.59375}}'),
])
def test_one_point_summary_keeps_the_constants_block(model, text):
    assert json.dumps(constants_block(summarize_model(model))) == text
