"""Step-by-step replays of the trial-function proofs."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from paneitzlab import (
    FourierImmersion,
    GateError,
    InvalidDimensionError,
    TorusGrid,
    clifford_torus,
    flat_torus,
    paneitz_coefficients,
    replay_proof,
    replay_proof_analytic,
    round_sphere,
    sphere_product,
    summarize_bundle,
)
from paneitzlab import cli
from paneitzlab.bounds import (U1Data, constant_ground_state, evaluate, summarize_model,
                               u1_from_result)
from paneitzlab.catalog import expand_lines, paneitz_spectrum
from paneitzlab.discrete import apply_laplacian, build_bundle, integrate
from paneitzlab.eigensolve import spectrum
from paneitzlab.fourier import FourierTerm
from paneitzlab.replay import REPLAY_TOL_NUMERICAL, grid_chain_inputs, replay_theorem
from paneitzlab.report import constants_block

from helpers import reference_grid_inputs

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


def test_closed_form_route_replays_products():
    # the minimal Clifford S^2 x S^2 in S^5 is a thm_1_1 equality; the minimal
    # S^1 x S^3 in S^5 is strict, with verify's slack
    half = math.sqrt(0.5)
    rep = replay_proof_analytic("thm_1_1", sphere_product([(2, half), (2, half)],
                                                          ambient="unit_sphere"))
    assert rep.route == "analytic" and rep.ok and rep.flags == ()
    assert abs(rep.final_rhs - rep.final_lhs) <= 1e-12 * rep.final_rhs
    m = sphere_product([(1, math.sqrt(0.25)), (3, math.sqrt(0.75))], ambient="unit_sphere")
    rep = replay_proof_analytic("thm_1_1", m)
    values = expand_lines(paneitz_spectrum(m, 6).lines, 6)
    bound = evaluate("thm_1_1", values, summarize_model(m))
    assert rep.ok and rep.final_rhs == bound.rhs
    assert rep.final_rhs - rep.final_lhs == pytest.approx(bound.slack, rel=1e-12)
    assert rep.final_rhs - rep.final_lhs == pytest.approx(2.475, abs=1e-3)


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
    # on a flat torus the closed form and the grid chain on 8^n agree on
    # every quantity that does not depend on the basis inside a cluster
    bundle, solve = torus_run
    runs = [((1.0,) * 4, bundle, solve(9))] + [
        (radii, *_grid_run(radii, 0.0, 2 * len(radii) + 1)[:2])
        for radii in ((0.5,) * 4, (1.0,) * 5)]
    for radii, bundle, result in runs:
        theorem = replay_theorem(len(radii))
        grid = replay_proof(theorem, result, bundle)
        closed = replay_proof_analytic(theorem, flat_torus(radii))
        assert [s.name for s in closed.steps] == [s.name for s in grid.steps]
        assert closed.ok and grid.ok
        pairs = [(closed.final_lhs, grid.final_lhs), (closed.final_rhs, grid.final_rhs),
                 (closed.delta, grid.delta)]
        for name in ("summed_trace_bound", "summed_gradient_bound"):
            pairs += [(closed.step(name).lhs, grid.step(name).lhs),
                      (closed.step(name).rhs, grid.step(name).rhs)]
        for got, want in pairs:
            assert got == pytest.approx(want, abs=1e-9)


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
    coordinate, solved for k pairs: its bundle, its spectrum and the
    immersion."""
    n = len(radii)
    imm = clifford_torus(radii)
    if amp:
        cos = (amp,) + (0.0,) * (2 * n - 1)
        imm = imm.perturbed([FourierTerm(k=(1, 1) + (0,) * (n - 2), cos=cos,
                                          sin=(0.0,) * (2 * n))])
    grid = TorusGrid((8,) * n)
    bundle = build_bundle(imm, grid)
    return bundle, spectrum(imm, grid, paneitz_coefficients(n), k, bundle=bundle,
                            solver="lanczos", seed=3), imm


@pytest.fixture(scope="module")
def flat_t5_run():
    return _grid_run((1.0,) * 5, 0.0, 7)


@pytest.fixture(scope="module")
def curved_t4_run():
    return _grid_run((1.0,) * 4, 0.1, 9)


def test_curved_torus_chain_fails_only_the_laplacian_coordinate_step(curved_t4_run):
    # curved T^4 on 8^4 (amplitude 0.1): every step but one clears the
    # numerical floor.  laplacian_coordinate_identity compares the band-cut
    # grid Laplacian of y with the uncut n H and reads about -2.8e-2 here
    # (ROADMAP item 4); fixing that step must update this assertion.
    bundle, result, _ = curved_t4_run
    rep = replay_proof("thm_1_1", result, bundle)
    failing = {s.name for s in rep.steps if s.slack < -REPLAY_TOL_NUMERICAL}
    assert failing == {"laplacian_coordinate_identity"}
    assert not rep.ok


@pytest.mark.parametrize("run", ["curved_t4_run", "flat_t5_run"])
def test_streamed_inputs_match_the_batched_formulas(run, request):
    # the grid route forms one rotated coordinate at a time; its integrals,
    # pointwise maxima and Gram-Schmidt residual are those of the batched
    # formulas, for the replay's weight and for an excited eigenfunction,
    # whose gradient enters the flux 2 g(grad z, grad w).  The reference
    # samples the geometry from the immersion and restates the curvature form
    # a R g + b Ric, so rayleigh_ibp checks the bundle's coefficient flux
    bundle, result, imm = request.getfixturevalue(run)
    geo = summarize_bundle(bundle)
    excited = result.eigenfunctions[2]
    lap = apply_laplacian(bundle, excited)
    weights = (constant_ground_state(geo) if bundle.n == 4 else u1_from_result(bundle, result),
               U1Data(w=excited, grad_energy=-integrate(bundle, excited * lap), lap=lap))
    for u1 in weights:
        inputs, gs_resid, _ = grid_chain_inputs(bundle, geo, result, u1)
        for name, want in reference_grid_inputs(imm, bundle, result, u1).items():
            got = gs_resid if name == "gram_schmidt_residual" else getattr(inputs, name)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, name


def test_flat_five_torus_replay_memory_is_bounded(flat_t5_run):
    # gradients taken for all 10 rotated coordinates at once peaked at 53.5
    # MB here, and whole-grid fields of every coordinate (z, the trial
    # functions, their operator images, fluxes) with one gradient at a time
    # at 33.8 MB; one coordinate's fields at a time, with three running
    # pointwise sums, measured 11.6 MB: the bound is that plus 20 %
    bundle, result, _ = flat_t5_run
    tracemalloc.start()
    try:
        rep = replay_proof("thm_1_2", result, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 14e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


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
    assert _bound_meets_replay("thm_1_1", *_grid_run((1.0,) * 4, 0.05, 9)[:2])
    bundle, result, _ = flat_t5_run
    assert _bound_meets_replay("thm_1_2", bundle, result, u1_from_result(bundle, result))


def test_second_value_below_the_first_is_a_clamped_gap(flat_t5_run):
    # lambda_2 moved 1e-2 below lambda_1, past the numerical tol_eq of 1e-4:
    # the gap bound and its replay both clamp the negative gap and say so
    bundle, result, _ = flat_t5_run
    values = result.eigenvalues.copy()
    values[1] = values[0] - 1e-2
    low = replace(result, eigenvalues=values)
    rep = evaluate("thm_1_2", low.eigenvalues, summarize_bundle(bundle),
                   u1_from_result(bundle, low))
    chain = replay_proof("thm_1_2", low, bundle)
    assert "negative_gap_clamped" in rep.flags
    assert "negative_gap_clamped" in chain.flags
    assert "negative_gap_clamped" not in replay_proof("thm_1_2", result, bundle).flags


def test_multiple_ground_state_flag_is_one_name(flat_t5_run, tmp_path, monkeypatch):
    bundle, result, _ = flat_t5_run
    (value, count), *rest = result.clusters
    doubled = replace(result, clusters=((value, count + 1), *rest))
    rep = evaluate("thm_1_2", doubled.eigenvalues, summarize_bundle(bundle),
                   u1_from_result(bundle, doubled))
    chain = replay_proof("thm_1_2", doubled, bundle)
    assert "first_eigenvalue_multiple" in rep.flags
    assert "first_eigenvalue_multiple" in chain.flags

    # the closed form: the catalog never doubles the bottom line, so pretend it does
    real = cli.u1_from_lines
    monkeypatch.setattr(cli, "u1_from_lines",
                        lambda geo, lines: replace(real(geo, lines), multiple=True))
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
