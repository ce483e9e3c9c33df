"""Which bounds `verify` reports, refuses or rejects, pinned per dimension.

Catalog spheres, sphere products and flat tori for n = 3..8, each in
euclidean space and in the unit sphere.  Every case runs `verify` once with
`--bound all` and once per bound id, and checks the reported ids and their
order, the recorded refusals, the exit code and the exact stderr text.
The registry in `bounds.BOUNDS` decides all of it; the later tests hold the
registry to its one gate, `bounds.evaluate`, the sweep families and the README.
"""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from paneitzlab.bounds import BOUNDS, GeometrySummary, evaluate
from paneitzlab.cli import _family_bounds, main
from paneitzlab.errors import (GateError, InvalidDimensionError, PaneitzLabError,
                               PositivityError)
from paneitzlab.replay import replay_theorem
from paneitzlab.specfile import parse_manifold_spec

COLUMNS = ("all", "thm_1_1", "chenli_l1", "cor_1_1", "thm_1_2", "cor_3_1",
           "chenli_l2", "thm_1_3")

# rejections (exit 2), by their stderr text
DIM = "{bound} is stated for {dims}, got n = {n}"
SPHERE = "{bound} needs a manifold in the unit sphere"
NONE = "no bound applies to n = {n} with this ambient"
POS_NEG = "operator is not positive on {label}: lambda_1 = -0.9375 <= 0"
POS_ZERO = "operator is not positive on {label}: lambda_1 = 0 <= 0"
REJECTIONS = (DIM, SPHERE, NONE, POS_NEG, POS_ZERO)


def _sphere(ambient):
    return lambda n: f"kind: sphere\ndim: {n}\nambient: {ambient}\nparams:\n  r: 1.0\n"


def _product(ambient):
    def text(n):
        if ambient == "unit_sphere":     # the minimal product, r_i^2 = p_i / n
            a, b = math.sqrt(2 / n), math.sqrt((n - 2) / n)
        else:
            a, b = 1.0, 0.8
        return (f"kind: sphere_product\ndim: {n}\nambient: {ambient}\nparams:\n"
                f"  factors:\n    - {{p: 2, r: {a!r}}}\n    - {{p: {n - 2}, r: {b!r}}}\n")
    return text


def _torus(ambient):
    def text(n):
        r = 1 / math.sqrt(n) if ambient == "unit_sphere" else 1.0
        return (f"kind: flat_torus\ndim: {n}\nambient: {ambient}\nparams:\n"
                f"  radii: [{', '.join([repr(r)] * n)}]\n")
    return text


SPECS = {
    "sphere": _sphere("euclidean"),
    "equator": _sphere("unit_sphere"),
    "product": _product("euclidean"),
    "clifford": _product("unit_sphere"),
    "torus": _torus("euclidean"),
    "torus_in_sphere": _torus("unit_sphere"),
}

# one cell per column of COLUMNS: the reported ids in order, "!" marking a
# refusal, or the stderr text of a rejection
EXPECTED = {
    ("sphere", 3): (NONE, DIM, DIM, DIM, DIM, DIM, DIM, SPHERE),
    ("sphere", 4): ("thm_1_1 chenli_l1", "thm_1_1", "chenli_l1", SPHERE, DIM, DIM, DIM, DIM),
    ("sphere", 5): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("sphere", 6): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("sphere", 7): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("sphere", 8): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("equator", 3): (POS_NEG, DIM, DIM, DIM, DIM, DIM, DIM, POS_NEG),
    ("equator", 4): ("thm_1_1 chenli_l1 cor_1_1", "thm_1_1", "chenli_l1", "cor_1_1", DIM, DIM, DIM,
                     DIM),
    ("equator", 5): ("thm_1_2 cor_3_1 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                     "thm_1_3"),
    ("equator", 6): ("thm_1_2 cor_3_1 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                     "thm_1_3"),
    ("equator", 7): ("thm_1_2 cor_3_1 chenli_l2 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1",
                     "chenli_l2", "thm_1_3"),
    ("equator", 8): ("thm_1_2 cor_3_1 chenli_l2 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1",
                     "chenli_l2", "thm_1_3"),
    ("product", 3): (NONE, DIM, DIM, DIM, DIM, DIM, DIM, SPHERE),
    ("product", 4): ("thm_1_1 chenli_l1", "thm_1_1", "chenli_l1", SPHERE, DIM, DIM, DIM, DIM),
    ("product", 5): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("product", 6): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("product", 7): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("product", 8): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("clifford", 3): ("thm_1_3", DIM, DIM, DIM, DIM, DIM, DIM, "thm_1_3"),
    ("clifford", 4): ("thm_1_1 chenli_l1 cor_1_1", "thm_1_1", "chenli_l1", "cor_1_1", DIM, DIM,
                      DIM, DIM),
    ("clifford", 5): ("thm_1_2 cor_3_1 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                      "thm_1_3"),
    ("clifford", 6): ("thm_1_2 cor_3_1 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                      "thm_1_3"),
    ("clifford", 7): ("thm_1_2 cor_3_1 chenli_l2 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1",
                      "chenli_l2", "thm_1_3"),
    ("clifford", 8): ("thm_1_2 cor_3_1 chenli_l2 thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1",
                      "chenli_l2", "thm_1_3"),
    ("torus", 3): (NONE, DIM, DIM, DIM, DIM, DIM, DIM, SPHERE),
    ("torus", 4): ("thm_1_1 chenli_l1", "thm_1_1", "chenli_l1", SPHERE, DIM, DIM, DIM, DIM),
    ("torus", 5): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("torus", 6): ("thm_1_2", DIM, DIM, DIM, "thm_1_2", SPHERE, DIM, SPHERE),
    ("torus", 7): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("torus", 8): ("thm_1_2 chenli_l2", DIM, DIM, DIM, "thm_1_2", SPHERE, "chenli_l2", SPHERE),
    ("torus_in_sphere", 3): (POS_ZERO, DIM, DIM, DIM, DIM, DIM, DIM, POS_ZERO),
    ("torus_in_sphere", 4): ("thm_1_1 chenli_l1 cor_1_1", "thm_1_1", "chenli_l1", "cor_1_1", DIM,
                             DIM, DIM, DIM),
    ("torus_in_sphere", 5): ("thm_1_2 cor_3_1 !thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                             POS_ZERO),
    ("torus_in_sphere", 6): ("thm_1_2 cor_3_1 !thm_1_3", DIM, DIM, DIM, "thm_1_2", "cor_3_1", DIM,
                             POS_ZERO),
    ("torus_in_sphere", 7): ("thm_1_2 cor_3_1 chenli_l2 !thm_1_3", DIM, DIM, DIM, "thm_1_2",
                             "cor_3_1", "chenli_l2", POS_ZERO),
    ("torus_in_sphere", 8): ("thm_1_2 cor_3_1 chenli_l2 !thm_1_3", DIM, DIM, DIM, "thm_1_2",
                             "cor_3_1", "chenli_l2", POS_ZERO),
}


@pytest.mark.parametrize("case,n", sorted(EXPECTED))
def test_verify_selection_is_pinned(case, n, tmp_path, capsys):
    text = SPECS[case](n)
    spec = tmp_path / "m.yaml"
    spec.write_text(text)
    label = parse_manifold_spec(text).model.describe()
    for bound, cell in zip(COLUMNS, EXPECTED[(case, n)]):
        out = tmp_path / f"{bound}.json"
        code = main(["verify", "--spec", str(spec), "--bound", bound, "--quiet",
                     "--out", str(out)])
        err = capsys.readouterr().err
        where = f"{case} n = {n} --bound {bound}"
        if cell in REJECTIONS:
            dims = BOUNDS[bound].dims if bound in BOUNDS else None
            message = cell.format(n=n, bound=bound, label=label, dims=dims)
            assert (code, err) == (2, f"paneitz-lab: {message}\n"), where
            assert not out.exists(), where
            continue
        assert (code, err) == (0, ""), where
        doc = json.loads(out.read_text())
        ids = [b["bound_id"] for b in doc["bounds"]]
        refused = [r["bound_id"] for r in doc.get("refusals", [])]
        assert " ".join(ids + ["!" + r for r in refused]) == cell, where
        for r in doc.get("refusals", []):
            assert r["refused"] == POS_ZERO.format(label=label), where


# --------------------------------------------------------------------------
# the registry against its gate, the sweeps, replay and the README
# --------------------------------------------------------------------------

def _synthetic_geometry(n: int) -> GeometrySummary:
    return GeometrySummary(n=n, volume=1.0, mean_sq=1.0, s_norm=float(n),
                           scalar=float(n * (n - 1)), q=1.0, ambient_unit_sphere=True,
                           numerical=False, label="synthetic", weights=np.ones(1))


@pytest.mark.parametrize("bound", list(BOUNDS))
def test_dimension_rule_matches_the_verifier_gate(bound):
    rule = BOUNDS[bound]
    values = np.arange(1.0, 20.0)      # positive, and enough for every bound
    for n in range(3, 10):
        geo = _synthetic_geometry(n)
        if rule.applies(n):
            assert evaluate(bound, values, geo).bound_id == bound, n
        else:
            with pytest.raises(InvalidDimensionError):
                evaluate(bound, values, geo)
    assert rule.applies(rule.lowest_dim)
    assert not any(rule.applies(n) for n in range(3, rule.lowest_dim))


#: eigenvalues each bound reads, the n = 4 kernel slot included
NEEDS = {"thm_1_1": lambda n: 5, "chenli_l1": lambda n: 2, "cor_1_1": lambda n: 5,
         "thm_1_2": lambda n: n + 1, "cor_3_1": lambda n: n + 1, "chenli_l2": lambda n: 2,
         "thm_1_3": lambda n: n}


@pytest.mark.parametrize("bound", list(BOUNDS))
def test_gate_reports_the_first_failing_hypothesis(bound):
    """Dimension, then ambient, then count, then positivity: whatever else
    fails, the first failing hypothesis is reported, in its single form."""
    rule = BOUNDS[bound]
    for n, in_sphere, short, negative in itertools.product(
            range(3, 9), (False, True), (False, True), (False, True)):
        geo = replace(_synthetic_geometry(n), ambient_unit_sphere=in_sphere)
        values = np.arange(1.0, 20.0) - (1.5 if negative else 0.0)
        need = NEEDS[bound](n)
        if short:
            values = values[:need - 1]
        if not rule.applies(n):
            kind, text = InvalidDimensionError, f"{bound} is stated for {rule.dims}, got n = {n}"
        elif rule.unit_sphere and not in_sphere:
            kind, text = GateError, f"{bound} needs a manifold in the unit sphere"
        elif short:
            kind, text = GateError, f"{bound}: need {need} eigenvalues, have {need - 1}"
        elif negative and rule.refusable:
            kind, text = (PositivityError,
                          "operator is not positive on synthetic: lambda_1 = -0.5 <= 0")
        else:
            assert evaluate(bound, values, geo).bound_id == bound
            continue
        where = (n, in_sphere, short, negative)
        with pytest.raises(PaneitzLabError) as exc:
            evaluate(bound, values, geo)
        assert (type(exc.value), str(exc.value)) == (kind, text), where


def test_sweep_families_keep_their_bounds():
    assert _family_bounds("sphere_radius") == ["thm_1_1", "chenli_l1", "thm_1_2", "chenli_l2"]
    assert _family_bounds("clifford_ratio") == ["thm_1_1", "chenli_l1", "cor_1_1"]
    assert _family_bounds("fourier_perturbation") == ["thm_1_1", "chenli_l1"]
    assert [BOUNDS[b].lowest_dim for b in _family_bounds("sphere_radius")] == [4, 4, 5, 7]


def test_replay_theorem_follows_the_registry():
    assert [replay_theorem(n) for n in (4, 5, 8)] == ["thm_1_1", "thm_1_2", "thm_1_2"]
    with pytest.raises(InvalidDimensionError, match="no replayable chain for n = 3"):
        replay_theorem(3)


def _readme_bounds_table() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_readme_bounds_table_mirrors_the_registry():
    table = _readme_bounds_table()
    assert [row[0] for row in table] == list(BOUNDS)
    yes_no = {True: "yes", False: "no"}
    for bound_id, dims, sphere, u1, refusal, replay, *_ in table:
        rule = BOUNDS[bound_id]
        assert (dims, sphere, u1, refusal, replay) == (
            rule.dims, yes_no[rule.unit_sphere], yes_no[rule.needs_u1],
            yes_no[rule.refusable], yes_no[rule.replayable]), bound_id
