"""End-to-end command-line behavior, run in-process."""

import json
import math

import numpy as np
import pytest

from paneitzlab.cli import _eigen_row, _sweep_fourier_perturbation, main
from paneitzlab.errors import SolverFailureError

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


def test_spectrum_bad_spec_is_exit_2(spec_file, capsys):
    bad = spec_file("kind: sphere\ndim: 4\nparams:\n  radius: 2.0\n")
    assert main(["spectrum", "--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error:" in err
    assert "(line 4, column 3)" in err


def test_spectrum_count_beyond_grid_is_exit_2(spec_file, capsys):
    assert main(["spectrum", "--spec", spec_file(BUMP_DENSE),
                 "--count", "600"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_solver_failure_is_exit_3(spec_file, capsys, monkeypatch):
    def boom(*a, **k):
        raise SolverFailureError("synthetic breakdown", residuals=[1.0])

    monkeypatch.setattr("paneitzlab.cli.solve_spectrum", boom)
    assert main(["spectrum", "--spec", spec_file(BUMP_DENSE)]) == 3
    assert "solver failure: synthetic breakdown" in capsys.readouterr().err


def test_lobpcg_breakdown_is_exit_3(spec_file, capsys, monkeypatch):
    def singular(*a, **k):
        raise np.linalg.LinAlgError("the Gram block is not positive definite")

    monkeypatch.setattr("scipy.sparse.linalg.lobpcg", singular)
    spec = spec_file(BUMP_DENSE.replace("solver: dense", "solver: lanczos"))
    assert main(["spectrum", "--spec", spec]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "not positive definite" in err


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
    assert "four-dimensional bound" in capsys.readouterr().err


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


def test_verify_off_sphere_immersion_declared_in_sphere_is_exit_2(spec_file, capsys):
    off_sphere = BUMP_DENSE.replace("dim: 3\n", "dim: 3\nambient: unit_sphere\n")
    assert main(["verify", "--spec", spec_file(off_sphere)]) == 2
    err = capsys.readouterr().err
    assert "paneitz-lab: spec error: ambient unit_sphere declared" in err
    assert "(line 3, column 10)" in err


def test_verify_replay_needs_grid(spec_file, capsys):
    no_grid = "kind: flat_torus\ndim: 4\nparams:\n  radii: [1.0, 1.0, 1.0, 1.0]\n"
    assert main(["verify", "--spec", spec_file(no_grid), "--replay"]) == 2
    assert "needs a 'grid'" in capsys.readouterr().err


def test_verify_impossible_tolerance_is_a_finding(spec_file, capsys):
    # identity steps carry roundoff-sized slack, so a 1e-30 budget must
    # surface as a violation (exit 1), not a crash
    assert main(["verify", "--spec", spec_file(T4_GRID), "--replay",
                 "--tol", "1e-30"]) == 1
    assert "(FAILED)" in capsys.readouterr().out


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


def test_replay_product_is_exit_2(spec_file, capsys):
    assert main(["replay", "--spec", spec_file(CLIFFORD)]) == 2
    assert "needs a round sphere" in capsys.readouterr().err


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


def test_sweep_thread_cap(tmp_path, capsys, monkeypatch):
    texts = []
    for name, env in (("one.csv", "1"), ("four.csv", "4"), ("bad.csv", "soon")):
        monkeypatch.setenv("PANEITZ_LAB_THREADS", env)
        path = tmp_path / name
        assert main(["sweep", "--family", "sphere_radius", "--bound",
                     "chenli_l1", "--range", "0.5:1.5:5", "--quiet",
                     "--csv", str(path)]) == 0
        texts.append(path.read_text())
    assert texts[0] == texts[1] == texts[2]  # worker count never reorders rows
    assert "ignoring non-integer PANEITZ_LAB_THREADS" in capsys.readouterr().err


def test_fourier_family_flat_sample_matches_catalog():
    rep, values, n = _sweep_fourier_perturbation(0.0, "thm_1_1", None, seed=3)
    assert n == 4 and rep.equality and rep.ok
    assert rep.lhs == pytest.approx(4.0, abs=1e-9)
    assert values[1] == pytest.approx(1.0, abs=1e-9)


def test_eigen_row_indexing():
    assert _eigen_row([1e-13, 1.0, 1.0, 2.0, 2.0, 3.0], 4) == [1.0, 1.0, 2.0, 2.0, 3.0]
    row5 = _eigen_row([1e-13, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0], 5)
    assert row5 == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0]
