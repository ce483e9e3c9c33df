"""End-to-end command-line behavior, run in-process."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from paneitzlab import catalog, cli, discrete
from paneitzlab.cli import _eigen_row, _sweep_row, main
from paneitzlab.errors import PaneitzLabError, SolverFailureError
from paneitzlab.report import sweep_csv
from paneitzlab.specfile import parse_manifold_spec

S4 = "kind: sphere\ndim: 4\nparams:\n  r: 1.0\n"
S5 = "kind: sphere\ndim: 5\nparams:\n  r: 1.0\n"
S3_EQ = "kind: sphere\ndim: 3\nambient: unit_sphere\nparams:\n  r: 1.0\n"
S5_EQ = "kind: sphere\ndim: 5\nambient: unit_sphere\nparams:\n  r: 1.0\n"
CLIFFORD = (
    "kind: sphere_product\n"
    "dim: 4\n"
    "ambient: unit_sphere\n"
    "params:\n"
    "  factors:\n"
    "    - {p: 2, r: 0.7071067811865476}\n"
    "    - {p: 2, r: 0.7071067811865476}\n"
)
T5_FLAT = "kind: flat_torus\ndim: 5\nparams:\n  radii: [1.0, 1.0, 1.0, 1.0, 1.0]\n"
T5_MINIMAL = (
    "kind: flat_torus\n"
    "dim: 5\n"
    "ambient: unit_sphere\n"
    "params:\n"
    "  radii: [0.4472135954999579, 0.4472135954999579, 0.4472135954999579, "
    "0.4472135954999579, 0.4472135954999579]\n"
)
T4_GRID = (
    "kind: flat_torus\n"
    "dim: 4\n"
    "params:\n"
    "  radii: [1.0, 1.0, 1.0, 1.0]\n"
    "grid: 8\n"
    "solver: lanczos\n"
    "k: 9\n"
    "seed: 3\n"
)
BUMP_DENSE = (
    "kind: fourier_immersion\n"
    "dim: 3\n"
    "params:\n"
    "  radii: [1.0, 1.0, 1.0]\n"
    "fourier:\n"
    "  - {k: [1, 1, 0], amp: [0.05, 0, 0, 0, 0, 0]}\n"
    "grid: 8\n"
    "solver: dense\n"
    "k: 7\n"
)
BUMP_LANCZOS = BUMP_DENSE.replace("solver: dense", "solver: lanczos")

T4_ZERO_MODE = (
    "kind: fourier_immersion\n"
    "dim: 4\n"
    "params:\n"
    "  radii: [1.0, 1.0, 1.0, 1.0]\n"
    "fourier:\n"
    "  - {k: [1, 1, 0, 0], amp: [0, 0, 0, 0, 0, 0, 0, 0]}\n"
    "grid: 8\n"
    "k: 9\n"
)
T5_ZERO_MODE = (
    "kind: fourier_immersion\n"
    "dim: 5\n"
    "params:\n"
    "  radii: [1.0, 1.0, 1.0, 1.0, 1.0]\n"
    "fourier:\n"
    "  - {k: [1, 1, 0, 0, 0], amp: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n"
    "grid: 8\n"
    "k: 7\n"
)


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="m.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def test_spectrum_four_sphere(spec_file, capsys):
    assert main(["spectrum", "--spec", spec_file(S4), "--count", "9"]) == 0
    out = capsys.readouterr().out
    assert "spectrum of S4(r=1) in R^5 (closed_form)" in out
    assert "lambda = 0  (x1)" in out
    assert "lambda = 24  (x5)" in out
    assert "lambda = 120  (x3)" in out  # truncated to the requested count


def test_spectrum_quiet_writes_report_only(spec_file, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["spectrum", "--spec", spec_file(S4), "--count", "6",
                 "--quiet", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    doc = json.loads(out_path.read_text())
    assert doc["tool"] == "paneitz-lab" and doc["command"] == "spectrum"
    assert len(doc["input"]["sha256"]) == 64
    assert doc["spectrum"]["values"] == [0.0] + [24.0] * 5
    assert doc["spectrum"]["method"] == "closed_form"
    assert doc["constants"]["n"] == 4


def test_spectrum_perturbed_torus_is_deterministic(spec_file, tmp_path, capsys):
    spec = spec_file(BUMP_DENSE)
    docs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["spectrum", "--spec", spec, "--quiet",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]  # dense route, bit-for-bit
    assert docs[0]["spectrum"]["method"] == "dense"
    values = docs[0]["spectrum"]["values"]
    assert len(values) == 7 and values == sorted(values)


@pytest.mark.parametrize("text,k,block,flat", [
    (T5_ZERO_MODE.replace("k: 7", "k: 11"), 11, 15, True),
    (BUMP_LANCZOS, 7, 11, False),
], ids=["flat-T5", "curved-T3"])
def test_iterative_report_counts_its_work_and_is_reproducible(spec_file, tmp_path, capsys,
                                                              text, k, block, flat):
    docs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["spectrum", "--spec", spec_file(text), "--quiet", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]
    got = docs[0]["spectrum"]
    assert got["method"] == "lanczos" and len(got["values"]) == k and got["block"] == block
    if flat:  # the start block holds the eigenvectors: one apply of it, no iteration
        assert got["iterations"] == 0 and got["applied_columns"] == block
    else:
        assert got["iterations"] > 0 and got["applied_columns"] > block


@pytest.mark.parametrize("command,outer", [("spectrum", "solve"), ("verify", "spectrum")])
def test_grid_reports_time_the_bundle(spec_file, tmp_path, capsys, command, outer):
    # a grid spectrum's timing includes its bundle, which is also reported on
    # its own; a closed-form spec samples no bundle
    for text, grid in ((T4_ZERO_MODE, True), (S4, False)):
        path = tmp_path / f"{command}-{grid}.json"
        assert main([command, "--spec", spec_file(text), "--quiet",
                     "--out", str(path)]) in (0, 1)
        timings = json.loads(path.read_text())["timings"]
        assert ("bundle" in timings) is grid
        if grid:
            assert 0 < timings["bundle"] <= timings[outer] <= timings["total"]


def test_spectrum_bad_spec_is_exit_2(spec_file, capsys):
    bad = spec_file("kind: sphere\ndim: 4\nparams:\n  radius: 2.0\n")
    assert main(["spectrum", "--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error:" in err
    assert "(line 4, column 3)" in err


def test_spectrum_unacceptable_character_is_exit_2(spec_file, capsys):
    bad = spec_file("kind: sphere\ndim: 4\nparams:\n  r: 1.0\x07\n")
    assert main(["spectrum", "--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error: not valid YAML" in err
    assert "(line 4, column 9)" in err
    assert "Traceback" not in err


def test_spectrum_spec_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "m.yaml"
    bad.write_bytes(b"\xff\xfekind: sphere\n")
    assert main(["spectrum", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error: not UTF-8" in err
    assert "(line 1, column 1)" in err


def test_deeply_nested_spec_is_exit_2(spec_file):
    # libyaml composes recursively in C: nesting this deep overflows its
    # stack unless it is refused first, so the run gets its own process
    bad = spec_file("kind: " + "[" * 30000 + "]" * 30000)
    script = ("from paneitzlab.cli import main\n"
              f"raise SystemExit(main(['spectrum', '--spec', {bad!r}]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "nest deeper than 256 levels (line 1, column 262)" in done.stderr
    assert "Traceback" not in done.stderr


def test_spectrum_unwritable_out_is_exit_2(spec_file, tmp_path, capsys):
    out_path = tmp_path / "no" / "such" / "x.json"
    assert main(["spectrum", "--spec", spec_file(S4), "--quiet",
                 "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"paneitz-lab: cannot write {out_path}: ")
    assert "Traceback" not in err


def test_spectrum_count_beyond_grid_is_exit_2(spec_file, capsys):
    assert main(["spectrum", "--spec", spec_file(BUMP_DENSE),
                 "--count", "600"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_negative_seed_option_is_refused_before_sampling(spec_file, capsys, monkeypatch):
    def sampled(*a, **k):
        raise AssertionError("the bundle was sampled")

    monkeypatch.setattr(cli, "build_bundle", sampled)
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--spec", spec_file(BUMP_DENSE), "--seed", "-5"])
    assert info.value.code == 2
    assert "argument --seed: seed must be an integer >= 0, got '-5'" in capsys.readouterr().err


def test_spectrum_refuses_tol(spec_file, capsys):
    # spectrum reads no tolerance; verify, replay and sweep do
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--spec", spec_file(S4), "--tol", "1e-3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "replay", "sweep"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_option_is_refused_before_any_spec_is_read(spec_file, capsys, monkeypatch,
                                                           command, tol):
    # on S^4(1), the sharp equality case, nan and -1 would report every bound
    # violated and inf would pass every bound and replay step
    def read(*a, **k):
        raise AssertionError("a spec was read")

    monkeypatch.setattr(cli, "load_manifold_spec", read)
    monkeypatch.setattr(cli, "_sweep_row", read)
    if command == "sweep":
        argv = ["sweep", "--family", "sphere_radius", "--range", "0.5:1.5:3",
                "--bound", "thm_1_1", "--csv", "unused.csv"]
    else:
        argv = [command, "--spec", spec_file(S4)]
    with pytest.raises(SystemExit) as info:
        main(argv + [f"--tol={tol}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: tol must be a finite number >= 0, got '{tol}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text,stage", [(S4, "paneitz_spectrum"), (BUMP_DENSE, "build_bundle")])
@pytest.mark.parametrize("count", ["0", "-3", "two"])
def test_nonpositive_count_option_is_refused_before_solving(spec_file, capsys, monkeypatch,
                                                            text, stage, count):
    def solved(*a, **k):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(cli, stage, solved)
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--spec", spec_file(text), "--count", count])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --count: count must be an integer >= 1, got '{count}'" in err
    assert "Traceback" not in err


def test_closed_form_spectrum_cuts_the_last_line(spec_file, tmp_path, capsys):
    out_path = tmp_path / "s4.json"
    assert main(["spectrum", "--spec", spec_file(S4), "--count", "3", "--quiet",
                 "--out", str(out_path)]) == 0
    block = json.loads(out_path.read_text())["spectrum"]
    assert block == {"values": [0.0, 24.0, 24.0],
                     "multiplicities": [{"value": 0.0, "count": 1}, {"value": 24.0, "count": 2}],
                     "residuals": [0.0, 0.0, 0.0], "method": "closed_form"}


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*a, **k):
        calls.append(name)
        return original(*a, **k)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("text,command,grid_solves,catalog_solves", [
    (T4_ZERO_MODE, ["verify", "--replay"], 1, 0),
    (T4_GRID, ["verify", "--replay"], 1, 1),   # bounds in closed form, replay on the grid
    (T4_GRID, ["replay"], 1, 0),
    (T4_GRID, ["spectrum"], 0, 1),
    (S4, ["verify", "--replay"], 0, 1),
    (S4, ["replay"], 0, 0),                    # the chain enumerates its lines in replay
])
def test_each_command_solves_once(spec_file, capsys, monkeypatch, text, command,
                                  grid_solves, catalog_solves):
    grid = _count_calls(monkeypatch, "solve_spectrum")
    catalog = _count_calls(monkeypatch, "paneitz_spectrum")
    assert main([command[0], "--spec", spec_file(text), "--quiet", *command[1:]]) == 0
    assert (len(grid), len(catalog)) == (grid_solves, catalog_solves)


def test_verify_replay_builds_the_ground_state_once(spec_file, monkeypatch):
    # the n > 4 replay reads the bounds' U1Data: one Laplacian apply of the
    # ground state per command, besides the replay's one per rotated
    # coordinate (10 on T^5)
    from paneitzlab.discrete import PaneitzOperator

    laplacians = []
    apply = PaneitzOperator.apply

    def counted(self, f):
        if self.coeffs is None:
            laplacians.append(np.shape(f))
        return apply(self, f)

    monkeypatch.setattr(PaneitzOperator, "apply", counted)
    assert main(["verify", "--replay", "--spec", spec_file(T5_ZERO_MODE), "--quiet"]) == 0
    assert laplacians == [(8,) * 5] * 11


def test_solver_failure_is_exit_3(spec_file, capsys, monkeypatch):
    def boom(*a, **k):
        raise SolverFailureError("synthetic breakdown", residuals=[1.0])

    monkeypatch.setattr("paneitzlab.cli.solve_spectrum", boom)
    assert main(["spectrum", "--spec", spec_file(BUMP_DENSE)]) == 3
    assert "solver failure: synthetic breakdown" in capsys.readouterr().err


def test_any_lab_error_is_exit_2(spec_file, capsys, monkeypatch):
    def refuse(path):
        raise PaneitzLabError("synthetic refusal")

    monkeypatch.setattr("paneitzlab.cli.load_manifold_spec", refuse)
    assert main(["verify", "--spec", spec_file(S4)]) == 2
    assert capsys.readouterr().err == "paneitz-lab: synthetic refusal\n"


def test_lobpcg_breakdown_is_exit_3(spec_file, capsys, monkeypatch):
    # the first Gram factorization (the start block's Rayleigh-Ritz) passes,
    # every later one fails: dropping the step directions cannot help
    factorizations = []
    cholesky = np.linalg.cholesky

    def singular_after_start(a):
        factorizations.append(a.shape)
        if len(factorizations) > 1:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    failures = []
    solve = cli.solve_spectrum

    def recording(*a, **k):
        try:
            return solve(*a, **k)
        except SolverFailureError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", singular_after_start)
    monkeypatch.setattr(cli, "solve_spectrum", recording)
    assert main(["spectrum", "--spec", spec_file(BUMP_LANCZOS)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: LOBPCG broke down" in err and "not positive definite" in err
    (failure,) = failures
    assert len(failure.residuals) == 7 and all(r > 0 for r in failure.residuals)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_four_sphere_equalities(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(S4)]) == 0
    out = capsys.readouterr().out
    assert "verify S4(r=1) in R^5  (bound: all)" in out
    assert "thm_1_1" in out and "chenli_l1" in out
    assert out.count("[equality] OK") == 2
    assert "equality case: round_sphere" in out


def test_verify_clifford_product(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(CLIFFORD)]) == 0
    out = capsys.readouterr().out
    for bound in ("thm_1_1", "chenli_l1", "cor_1_1"):
        assert bound in out
    assert out.count("[equality] OK") == 3
    assert "equality case: minimal_const_R_in_sphere" in out


def test_verify_equatorial_five_sphere(spec_file, tmp_path, capsys):
    out_path = tmp_path / "v.json"
    assert main(["verify", "--spec", spec_file(S5_EQ), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    ids = [b["bound_id"] for b in doc["bounds"]]
    assert ids == ["thm_1_2", "cor_3_1", "thm_1_3"]
    assert "refusals" not in doc
    by_id = {b["bound_id"]: b for b in doc["bounds"]}
    assert by_id["thm_1_2"]["equality"] and by_id["cor_3_1"]["equality"]
    assert not by_id["thm_1_3"]["equality"] and by_id["thm_1_3"]["ok"]
    assert by_id["thm_1_3"]["rhs"] == pytest.approx(5.0 * math.sqrt(945.0) / 4.0,
                                                    rel=1e-12)


def test_verify_records_positivity_refusal(spec_file, tmp_path, capsys):
    # the strict bound refuses the flat kernel, but the gap bounds still
    # apply, so the run reports the refusal instead of failing
    out_path = tmp_path / "v.json"
    assert main(["verify", "--spec", spec_file(T5_MINIMAL),
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "thm_1_3   refused: operator is not positive" in out
    doc = json.loads(out_path.read_text())
    assert [b["bound_id"] for b in doc["bounds"]] == ["thm_1_2", "cor_3_1"]
    assert doc["refusals"][0]["bound_id"] == "thm_1_3"


def test_verify_positivity_gate_when_nothing_else_applies(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(S3_EQ)]) == 2
    assert "not positive" in capsys.readouterr().err


def test_verify_explicit_bound_wrong_dimension(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(S5), "--bound", "thm_1_1"]) == 2
    assert "thm_1_1 is stated for 4-manifolds, got n = 5" in capsys.readouterr().err


def test_verify_unknown_bound_id(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(S4), "--bound", "thm_9_9"]) == 2
    assert "unknown bound id" in capsys.readouterr().err


def test_verify_flat_torus_strict(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(T5_FLAT), "--count", "12"]) == 0
    out = capsys.readouterr().out
    assert "thm_1_2" in out and "[slack] OK" in out
    assert "equality case: none" in out


def test_verify_with_numerical_replay(spec_file, capsys):
    assert main(["verify", "--spec", spec_file(T4_GRID), "--replay"]) == 0
    out = capsys.readouterr().out
    assert "replay thm_1_1 [numerical]:" in out and "(ok)" in out


def test_verify_replay_on_a_small_torus(spec_file, capsys):
    # radii 0.03 give det g = 0.03^8 = 6.6e-13 at every point, a regular
    # immersion that a threshold on det g alone would call degenerate
    small = T4_GRID.replace("[1.0, 1.0, 1.0, 1.0]", "[0.03, 0.03, 0.03, 0.03]")
    assert main(["verify", "--spec", spec_file(small), "--replay"]) == 0
    captured = capsys.readouterr()
    assert "replay thm_1_1 [numerical]:" in captured.out and "(ok)" in captured.out
    assert captured.err == ""


BOUND_KEYS = ["bound_id", "lhs", "rhs", "slack", "relative_slack", "equality",
              "strictness_expected", "ok", "tol_eq", "inputs", "flags"]
DIAGNOSIS_KEYS = ["umbilical", "constant_mean_curvature", "constant_scalar_curvature",
                  "minimal_in_sphere", "matched_case"]
REPLAY_KEYS = ["theorem_id", "route", "label", "gram_schmidt_residual", "delta",
               "final_lhs", "final_rhs", "tol", "ok", "flags", "steps"]
STEP_KEYS = ["name", "kind", "lhs", "rhs", "slack", "note"]


@pytest.mark.parametrize("text, route", [(S4, "analytic"), (T4_GRID, "numerical")],
                         ids=["round_sphere", "flat_grid"])
def test_verify_replay_report_schema(text, route, spec_file, tmp_path):
    # these sections are their records' fields in declaration order: renaming
    # or reordering a field must show up here, not silently in the JSON
    out_path = tmp_path / "verify.json"
    assert main(["verify", "--replay", "--spec", spec_file(text), "--quiet",
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["bounds"] and all(list(b) == BOUND_KEYS for b in doc["bounds"])
    assert list(doc["bounds"][0]["inputs"]) == ["manifold", "n", "k", "tol_eq"]
    assert list(doc["equality_diagnosis"]) == DIAGNOSIS_KEYS
    replay = doc["replay"]
    assert list(replay) == REPLAY_KEYS and replay["route"] == route
    assert replay["steps"] and all(list(s) == STEP_KEYS for s in replay["steps"])


def test_kernel_snap_and_clusters_are_scale_covariant(spec_file, tmp_path, capsys):
    # radii 300 scale the spectrum by 300^-4: the kernel must stay a cluster
    # of its own and the flat torus an equality case, as at radii 1
    docs = []
    for r in ("1.0", "300.0"):
        spec = spec_file(T4_ZERO_MODE.replace("1.0", r), name=f"t4-{r}.yaml")
        path = tmp_path / f"t4-{r}.json"
        assert main(["verify", "--spec", spec, "--bound", "thm_1_1", "--quiet",
                     "--out", str(path)]) == 0
        docs.append(json.loads(path.read_text()))
    for doc in docs:
        assert [c["count"] for c in doc["spectrum"]["multiplicities"]] == [1, 8]
        (rep,) = doc["bounds"]
        assert rep["equality"] and rep["ok"]


def test_out_of_memory_is_exit_2(spec_file, capsys, monkeypatch):
    # a grid too large for the machine fails in numpy's allocator; simulated
    # here, since a real allocation of that size could exhaust the host
    def exhausted(imm, grid):
        raise MemoryError("Unable to allocate 80.0 GiB for an array")

    monkeypatch.setattr(discrete, "_sample_coarse", exhausted)
    assert main(["spectrum", "--spec", spec_file(BUMP_DENSE)]) == 2
    assert capsys.readouterr().err == (
        "paneitz-lab: out of memory: Unable to allocate 80.0 GiB for an array\n")


def test_verify_off_sphere_immersion_declared_in_sphere_is_exit_2(spec_file, capsys):
    off_sphere = BUMP_DENSE.replace("dim: 3\n", "dim: 3\nambient: unit_sphere\n")
    assert main(["verify", "--spec", spec_file(off_sphere)]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error: ambient unit_sphere declared" in err
    assert "(line 3, column 10)" in err


def test_verify_replay_without_grid_is_closed_form(spec_file, tmp_path, capsys):
    no_grid = "kind: flat_torus\ndim: 4\nparams:\n  radii: [1.0, 1.0, 1.0, 1.0]\n"
    out = tmp_path / "v.json"
    assert main(["verify", "--spec", spec_file(no_grid), "--replay", "--out", str(out)]) == 0
    assert "replay thm_1_1 [analytic]:" in capsys.readouterr().out
    replay = json.loads(out.read_text())["replay"]
    assert (replay["final_lhs"], replay["final_rhs"]) == (4.0, 4.0)


def test_verify_impossible_tolerance_is_a_finding(spec_file, capsys):
    # identity steps carry roundoff-sized slack, so a 1e-30 budget must
    # surface as a violation (exit 1), not a crash
    assert main(["verify", "--spec", spec_file(T4_GRID), "--replay",
                 "--tol", "1e-30"]) == 1
    assert "(FAILED)" in capsys.readouterr().out


def test_commands_leave_scipy_linalg_and_sparse_unloaded(spec_file):
    # both eigensolver routes run on numpy alone; scipy.fft is the only
    # scipy module a grid run needs
    script = (
        "import sys\n"
        "from paneitzlab.cli import main\n"
        f"assert main(['verify', '--spec', {spec_file(S4, 's4.yaml')!r}, '--quiet']) == 0\n"
        f"assert main(['spectrum', '--spec', {spec_file(BUMP_LANCZOS, 'bump.yaml')!r},"
        " '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_scipy():
    # scipy.fft is imported on a grid's first transform; a module-level scipy
    # import anywhere in the program would add to every interpreter start
    script = ("import sys, paneitzlab.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

def test_replay_four_sphere(spec_file, capsys):
    assert main(["replay", "--spec", spec_file(S4)]) == 0
    out = capsys.readouterr().out
    assert "replay thm_1_1 [analytic]" in out
    assert "delta* = 0.816496580928" in out
    assert "final: 19.5959179423 <= 19.5959179423" in out
    for name in ("rayleigh_ritz", "am_gm_pivot", "final_bound"):
        assert name in out


def test_replay_minimal_clifford_in_closed_form(spec_file, tmp_path):
    out = tmp_path / "r.json"
    for command in (["replay"], ["verify", "--replay"]):
        assert main([*command, "--spec", spec_file(CLIFFORD), "--quiet", "--out", str(out)]) == 0
        replay = json.loads(out.read_text())["replay"]
        assert replay["route"] == "analytic" and replay["ok"]
        assert abs(replay["final_rhs"] - replay["final_lhs"]) <= 1e-12 * replay["final_rhs"]


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_sphere_radius_gap_bound(spec_file, tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    assert main(["sweep", "--family", "sphere_radius", "--bound", "thm_1_2",
                 "--range", "0.8:1.2:3", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "swept sphere_radius over 3 samples of thm_1_2" in out
    assert "3 equality rows" in out
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["param", "lhs", "rhs", "slack", "relative_slack",
                          "equality"]
    assert header[6:] == [f"lambda_{j}" for j in range(1, 7)]
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.8
    assert first[5] == "true"
    # lambda_1 of the rescaled sphere round-trips at full precision
    assert float(first[6]) == pytest.approx((105.0 / 16.0) / 0.8**4, rel=1e-15)


def test_closed_form_is_solved_once_per_command_and_sample(spec_file, tmp_path, monkeypatch):
    # the ground state of the gap bounds reads the lines the solve returned
    calls = []
    real = catalog.paneitz_spectrum

    def counted(m, count):
        calls.append(count)
        return real(m, count)

    monkeypatch.setattr(catalog, "paneitz_spectrum", counted)
    monkeypatch.setattr(cli, "paneitz_spectrum", counted)
    assert main(["verify", "--spec", spec_file(S5), "--quiet"]) == 0
    assert len(calls) == 1
    assert main(["sweep", "--family", "sphere_radius", "--bound", "thm_1_2", "--quiet",
                 "--range", "0.8:1.2:3", "--csv", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 1 + 3


def test_sweep_clifford_ratio_peaks_at_symmetry(spec_file, tmp_path, capsys):
    csv_path = tmp_path / "c.csv"
    assert main(["sweep", "--family", "clifford_ratio", "--bound", "cor_1_1",
                 "--range", "0.3:0.7:3", "--csv", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    slacks = [float(r[3]) for r in rows]
    equalities = [r[5] for r in rows]
    assert equalities == ["false", "true", "false"]
    assert slacks[0] > 0 and slacks[2] > 0
    assert abs(slacks[1]) < 1e-10
    # eigen columns: n = 4 rows start above the snapped kernel
    assert float(rows[1][6]) == pytest.approx(64.0 / 3.0, rel=1e-12)


def test_sweep_rejects_bad_requests(tmp_path, capsys):
    csv_path = str(tmp_path / "x.csv")
    base = ["sweep", "--csv", csv_path]
    assert main(base + ["--family", "nope", "--bound", "thm_1_1",
                        "--range", "0:1:3"]) == 2
    assert main(base + ["--family", "sphere_radius", "--bound", "cor_1_1",
                        "--range", "0.5:2:3"]) == 2
    assert main(base + ["--family", "sphere_radius", "--bound", "thm_1_1",
                        "--range", "2:1:3"]) == 2
    assert main(base + ["--family", "sphere_radius", "--bound", "thm_1_1",
                        "--range", "1:2:1"]) == 2
    assert main(base + ["--family", "clifford_ratio", "--bound", "thm_1_1",
                        "--range", "0.5:1.5:3"]) == 2
    err = capsys.readouterr().err
    assert "unknown family" in err and "stop > start" in err
    assert "at least 2 samples" in err and "needs (0,1)" in err


def test_sweep_unwritable_csv_is_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "no" / "such" / "x.csv"
    assert main(["sweep", "--family", "sphere_radius", "--bound", "thm_1_2",
                 "--range", "0.8:1.2:3", "--quiet", "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == (
        f"paneitz-lab: cannot write {csv_path}: No such file or directory\n")


def test_grid_sweep_writes_the_serial_rows_in_parameter_order(tmp_path):
    # the table is the one single _sweep_row calls give, row for row
    path, serial = tmp_path / "sweep.csv", tmp_path / "serial.csv"
    assert main(["sweep", "--family", "fourier_perturbation", "--bound", "thm_1_1",
                 "--range", "0.02:0.04:2", "--seed", "3", "--quiet", "--csv", str(path)]) == 0
    rows = [_sweep_row("thm_1_1", p, cli._fourier_spec(p, 4, 3), None) for p in (0.02, 0.04)]
    sweep_csv(rows, eigen_count=5, path=serial)
    assert path.read_text() == serial.read_text()


def test_sweep_takes_no_count_or_out(tmp_path, capsys):
    base = ["sweep", "--family", "sphere_radius", "--bound", "thm_1_2",
            "--range", "0.8:1.2:3", "--csv", str(tmp_path / "s.csv")]
    for extra in (["--count", "3"], ["--out", str(tmp_path / "s.json")]):
        with pytest.raises(SystemExit) as info:
            main(base + extra)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_clifford_row_matches_verify_on_its_spec(spec_file, tmp_path, capsys):
    # the family's spec at r1^2 = 1/2 is the minimal Clifford S^2 x S^2 file
    row = _sweep_row("cor_1_1", 0.5, cli._clifford_spec(0.5, 4, 0), None)
    out_path = tmp_path / "v.json"
    assert main(["verify", "--spec", spec_file(CLIFFORD), "--bound", "cor_1_1", "--quiet",
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    (rep,) = doc["bounds"]
    assert (row["lhs"], row["rhs"]) == (rep["lhs"], rep["rhs"])
    assert row["eigenvalues"] == doc["spectrum"]["values"][1:6]  # above the kernel


def test_fourier_family_flat_sample_matches_catalog():
    row = _sweep_row("thm_1_1", 0.0, cli._fourier_spec(0.0, 4, 3), None)
    assert row["n"] == 4 and row["equality"] and row["ok"]
    assert row["lhs"] == pytest.approx(4.0, abs=1e-9)
    assert row["eigenvalues"][0] == pytest.approx(1.0, abs=1e-9)  # the kernel is dropped


#: each sweep family's spec at (param, n, seed), written as a spec file
FAMILY_FILES = {
    "sphere_radius": lambda param, n, seed: (
        f"kind: sphere\ndim: {n}\nparams:\n  r: {param!r}\nseed: {seed}\n"),
    "clifford_ratio": lambda param, n, seed: (
        f"kind: sphere_product\ndim: {n}\nambient: unit_sphere\nparams:\n  factors:\n"
        f"    - {{p: 2, r: {math.sqrt(param)!r}}}\n"
        f"    - {{p: 2, r: {math.sqrt(1.0 - param)!r}}}\nseed: {seed}\n"),
    "fourier_perturbation": lambda param, n, seed: (
        f"kind: fourier_immersion\ndim: {n}\nparams:\n  radii: {[1.0] * n}\nfourier:\n"
        f"  - {{k: {[1, 1] + [0] * (n - 2)}, amp: {[param] + [0] * (2 * n - 1)}}}\n"
        f"grid: 8\nsolver: lanczos\nseed: {seed}\n"),
}


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_family_spec_equals_its_spec_file(family):
    # sweeps and spec files build their geometry through the same constructors
    dim, _, build = cli._FAMILIES[family]
    n, param, seed = dim or 5, 0.3, 7

    def built(spec):
        terms = None if spec.immersion is None else spec.immersion.terms
        return spec.dim, spec.model, terms, spec.grid, spec.solver, spec.k, spec.seed

    made = built(build(param, n, seed))
    assert made[1:3] != (None, None)
    assert made == built(parse_manifold_spec(FAMILY_FILES[family](param, n, seed)))


def test_eigen_row_indexing():
    assert _eigen_row([1e-13, 1.0, 1.0, 2.0, 2.0, 3.0], 4) == [1.0, 1.0, 2.0, 2.0, 3.0]
    row5 = _eigen_row([1e-13, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0], 5)
    assert row5 == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0]


@pytest.mark.parametrize("text", [
    "kind: sphere\ndim: 5\nparams:\n  r: 1e200\n",
    "kind: sphere\ndim: 5\nparams:\n  r: 1e-200\n",
    "kind: flat_torus\ndim: 4\nparams:\n  radii: [1e-170, 1, 1, 1]\n",
])
def test_radius_out_of_float_range_is_a_spec_error(spec_file, capsys, text):
    assert main(["verify", "--spec", spec_file(text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("paneitz-lab: spec error: factor radius ")
    assert "out of range" in err and "(line 1, column 1)" in err


@pytest.mark.parametrize("radius,volume", [("1e60", "inf"), ("1e-60", "0.0")])
def test_product_volume_out_of_float_range_is_a_spec_error(spec_file, capsys, radius, volume):
    # each factor's r^5 is a float, but the product's volume is not
    text = ("kind: sphere_product\ndim: 10\nparams:\n  factors:\n"
            f"    - {{p: 5, r: {radius}}}\n    - {{p: 5, r: {radius}}}\n")
    assert main(["verify", "--spec", spec_file(text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"paneitz-lab: spec error: volume {volume} of ")
    assert "(line 1, column 1)" in err and "Traceback" not in err


@pytest.mark.parametrize("p", [343, 400])
@pytest.mark.parametrize("text", [
    "kind: sphere\ndim: {p}\nparams:\n  r: 1.0\n",
    "kind: sphere_product\ndim: {n}\nparams:\n  factors:\n"
    "    - {{p: {p}, r: 1.0}}\n    - {{p: 1, r: 1.0}}\n",
], ids=["sphere", "factor"])
def test_factor_volume_out_of_float_range_is_a_spec_error(spec_file, capsys, text, p):
    # Gamma((p + 1) / 2) leaves the float range from p = 343 on, at any radius
    assert main(["spectrum", "--spec", spec_file(text.format(p=p, n=p + 1))]) == 2
    assert capsys.readouterr().err == (
        f"paneitz-lab: spec error: factor S{p}(r=1) is out of range: its volume must be a "
        f"finite nonzero float (line 1, column 1)\n")


def test_largest_sphere_with_a_float_volume_solves(spec_file):
    assert main(["spectrum", "--quiet",
                 "--spec", spec_file("kind: sphere\ndim: 342\nparams:\n  r: 1.0\n")]) == 0


@pytest.mark.parametrize("span",["1:1e200:3", "1e-200:1:3"])
def test_radius_sweep_out_of_float_range_is_exit_2(tmp_path, capsys, span):
    assert main(["sweep", "--family", "sphere_radius", "--bound", "thm_1_2", "--range", span,
                 "--csv", str(tmp_path / "x.csv")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_sweep_range_may_start_below_zero(tmp_path, capsys):
    assert main(["sweep", "--family", "clifford_ratio", "--bound", "cor_1_1",
                 "--range", "-0.5:0.5:3", "--csv", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "paneitz-lab: clifford_ratio parameter is r1^2, needs (0,1); got -0.5\n")


@pytest.mark.parametrize("span", ["1:inf:3", "-inf:1:3", "nan:1:3", "0:1e400:3"])
def test_sweep_range_must_be_finite(tmp_path, capsys, monkeypatch, span):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was solved")

    monkeypatch.setattr(cli, "_solve", unreachable)
    assert main(["sweep", "--family", "sphere_radius", "--bound", "thm_1_2", "--range", span,
                 "--csv", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        f"paneitz-lab: range needs a finite start and stop, got {span!r}\n")
