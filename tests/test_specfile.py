"""Spec-file parsing: schema, defaults, and located errors."""

import inspect
import sys
import warnings

import pytest
import yaml

from paneitzlab import specfile
from paneitzlab.bounds import SPHERE_DEVIATION_TOL
from paneitzlab.catalog import flat_torus, round_sphere, sphere_product
from paneitzlab.cli import main
from paneitzlab.errors import SpecFileError
from paneitzlab.fourier import TorusGrid, clifford_torus
from paneitzlab.specfile import (
    DEFAULT_SEED,
    load_manifold_spec,
    parse_manifold_spec,
)


def parse_error(text):
    with pytest.raises(SpecFileError) as info:
        parse_manifold_spec(text)
    return info.value


# --------------------------------------------------------------------------
# well-formed specs
# --------------------------------------------------------------------------

def test_sphere_spec_defaults():
    spec = parse_manifold_spec("kind: sphere\ndim: 4\nparams:\n  r: 1.0\n")
    assert spec.model == round_sphere(4, 1.0, ambient="euclidean") and spec.dim == 4
    assert spec.immersion is None and spec.grid is None and spec.solver is None
    assert spec.k == 8 and spec.seed == DEFAULT_SEED


def test_sphere_product_spec():
    text = (
        "kind: sphere_product\n"
        "dim: 4\n"
        "ambient: unit_sphere\n"
        "params:\n"
        "  factors:\n"
        "    - {p: 2, r: 0.7071067811865476}\n"
        "    - {p: 2, r: 0.7071067811865476}\n"
    )
    spec = parse_manifold_spec(text)
    assert spec.model == sphere_product(((2, 0.7071067811865476),) * 2, ambient="unit_sphere")
    assert spec.immersion is None


def test_flat_torus_spec_broadcasts_grid():
    text = (
        "kind: flat_torus\n"
        "dim: 3\n"
        "params:\n"
        "  radii: [1.0, 0.5, 1.0]\n"
        "grid: 8\n"
        "solver: lanczos\n"
        "k: 7\n"
        "seed: 0x5EED\n"
    )
    spec = parse_manifold_spec(text)
    assert spec.grid == (8, 8, 8) and spec.solver == "lanczos"
    assert spec.k == 7 and spec.seed == 0x5EED
    assert spec.model == flat_torus((1.0, 0.5, 1.0))
    imm = spec.immersion
    assert imm.n == 3 and len(imm.terms) == 3  # pure block torus, no extras


def test_flat_torus_builds_its_immersion_only_with_a_grid():
    # the catalog route never reads the immersion; only a grid samples it
    text = "kind: flat_torus\ndim: 3\nparams:\n  radii: [1.0, 0.5, 1.0]\n"
    spec = parse_manifold_spec(text)
    assert spec.model == flat_torus((1.0, 0.5, 1.0))
    assert spec.immersion is None and spec.grid is None
    gridded = parse_manifold_spec(text + "grid: 8\n")
    assert gridded.model == spec.model and gridded.grid == (8, 8, 8)
    assert gridded.immersion.terms == clifford_torus((1.0, 0.5, 1.0)).terms


def test_perturbed_immersion_spec():
    text = (
        "kind: fourier_immersion\n"
        "dim: 3\n"
        "params:\n"
        "  radii: [1.0, 1.0, 1.0]\n"
        "fourier:\n"
        "  - {k: [1, 1, 0], amp: [0.05, 0, 0, 0, 0, 0]}\n"
        "  - {k: [0, 1, 1], amp: [0, 0.02, 0, 0, 0, 0], trig: sin}\n"
        "grid: [8, 8, 8]\n"
    )
    spec = parse_manifold_spec(text)
    assert spec.model is None and spec.dim == 3
    imm = spec.immersion
    assert len(imm.terms) == 5  # three base circles plus two extras
    zero = (0.0,) * 6
    assert imm.terms[3].cos == (0.05, 0, 0, 0, 0, 0) and imm.terms[3].sin == zero
    assert imm.terms[4].cos == zero and imm.terms[4].sin == (0, 0.02, 0, 0, 0, 0)


def test_load_from_file(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text("kind: sphere\ndim: 5\nparams:\n  r: 2.0\n")
    spec = load_manifold_spec(path)
    assert spec.dim == 5 and spec.source == str(path)
    assert spec.text.startswith("kind: sphere")


# --------------------------------------------------------------------------
# error matrix: every complaint carries its source location
# --------------------------------------------------------------------------

def test_unreadable_file_has_no_location(tmp_path):
    with pytest.raises(SpecFileError) as info:
        load_manifold_spec(tmp_path / "missing.yaml")
    assert "cannot read" in str(info.value)
    assert info.value.line is None
    assert "line" not in str(info.value)


def test_invalid_yaml():
    err = parse_error("kind: [sphere\ndim: 4\n")
    assert "not valid YAML" in str(err)
    assert (err.line, err.column) == (2, 4)


#: the pure-Python engine, and libyaml where PyYAML was built with it
ENGINES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def test_specs_compose_with_libyaml_where_it_is_installed():
    assert specfile._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
@pytest.mark.parametrize("text, where", [
    ("kind: sphere\ndim: 4\nparams:\n  r: 1.0\x07\n", (4, 9)),
    ("kind: sphere\ndim: 4\nparams:\n  r: 1.0\x00\n", (4, 9)),
    # non-ASCII before the character: libyaml's offset counts UTF-8 bytes
    ("kind: éé\x07\n", (1, 9)),
    ("kind: sphère\r\ndim: 4\r\nparams:\r\n  r: 1.0\x00\r\n", (4, 9)),
    # a lone surrogate, which libyaml cannot even encode
    ("kind: sphere\ndim: \ud800\n", (2, 6)),
], ids=["bel", "nul", "bel-after-non-ascii", "nul-after-non-ascii-crlf", "surrogate"])
def test_unacceptable_character_is_located(monkeypatch, engine, text, where):
    monkeypatch.setattr(specfile, "_LOADER", engine)
    err = parse_error(text)
    assert "is not allowed" in str(err)
    assert (err.line, err.column) == where


@pytest.mark.parametrize("data, where", [
    (b"\xff\xfekind: sphere\n", (1, 1)),
    (b"kind: sph\xc3re\n", (1, 10)),
    (b"kind: sph\xc3\xa8re\r\ndim: \xff\n", (2, 6)),
], ids=["utf16-bom", "truncated-sequence", "after-non-ascii-crlf"])
def test_bytes_that_are_not_utf8_are_located(tmp_path, data, where):
    path = tmp_path / "m.yaml"
    path.write_bytes(data)
    with pytest.raises(SpecFileError) as info:
        load_manifold_spec(path)
    assert "not UTF-8" in str(info.value)
    assert (info.value.line, info.value.column) == where


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
def test_deep_nesting_is_located(monkeypatch, engine):
    monkeypatch.setattr(specfile, "_LOADER", engine)
    err = parse_error("kind: " + "[" * 3000 + "]" * 3000)
    assert "nest deeper than 256 levels" in str(err)
    assert (err.line, err.column) == (1, 262)   # the root mapping is the first level


def test_recursion_while_composing_is_a_spec_error(monkeypatch):
    # nesting under the limit still overflows a composer called from deep enough
    monkeypatch.setattr(specfile, "_LOADER", yaml.SafeLoader)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        err = parse_error("kind: " + "[" * 200 + "]" * 200)
    finally:
        sys.setrecursionlimit(limit)
    assert "nest too deeply" in str(err)
    assert (err.line, err.column) == (1, 1)


def test_empty_spec():
    err = parse_error("")
    assert "empty spec file" in str(err)
    assert (err.line, err.column) == (1, 1)


def test_unknown_param_key_is_located():
    err = parse_error("kind: sphere\ndim: 4\nparams:\n  radius: 2.0\n")
    assert "unknown key 'radius'" in str(err)
    assert (err.line, err.column) == (4, 3)


def test_missing_required_key():
    err = parse_error("kind: sphere\ndim: 4\n")
    assert "missing required key 'params'" in str(err)


def test_duplicate_key():
    err = parse_error("kind: sphere\ndim: 4\ndim: 5\nparams:\n  r: 1.0\n")
    assert "duplicate key 'dim'" in str(err)
    assert err.line == 3


def test_bad_kind_and_bad_dim():
    assert "kind must be one of" in str(
        parse_error("kind: klein_bottle\ndim: 4\nparams:\n  r: 1.0\n"))
    assert "dim must be >= 2" in str(
        parse_error("kind: sphere\ndim: 1\nparams:\n  r: 1.0\n"))
    assert "must be an integer" in str(
        parse_error("kind: sphere\ndim: four\nparams:\n  r: 1.0\n"))


def test_negative_seed_is_located():
    err = parse_error("kind: sphere\ndim: 4\nparams:\n  r: 1.0\nseed: -1\n")
    assert "seed must be >= 0, got -1" in str(err)
    assert (err.line, err.column) == (5, 7)


def test_nonpositive_radius_is_located():
    err = parse_error("kind: sphere\ndim: 4\nparams:\n  r: -1.0\n")
    assert "radius must be positive" in str(err)
    assert (err.line, err.column) == (4, 6)


def test_factor_sum_must_match_dim():
    text = (
        "kind: sphere_product\n"
        "dim: 5\n"
        "params:\n"
        "  factors:\n"
        "    - {p: 2, r: 1.0}\n"
        "    - {p: 2, r: 1.0}\n"
    )
    err = parse_error(text)
    assert "factors sum to 4" in str(err)
    assert err.line == 2


def test_single_factor_product_is_rejected():
    text = (
        "kind: sphere_product\n"
        "dim: 2\n"
        "params:\n"
        "  factors:\n"
        "    - {p: 2, r: 1.0}\n"
    )
    assert "at least two factors" in str(parse_error(text))


def test_radii_validation():
    assert "3 radii given" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 1.0, 1.0]\n"))
    assert "must all be positive" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 0.0]\n"))


def test_fourier_restrictions():
    assert "only apply to kind fourier_immersion" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 1.0]\n"
        "fourier:\n  - {k: [1, 0], amp: [0.1, 0, 0, 0]}\n"))
    assert "needs a 'fourier' list" in str(parse_error(
        "kind: fourier_immersion\ndim: 2\nparams:\n  radii: [1.0, 1.0]\ngrid: 8\n"))
    assert "amp length 3" in str(parse_error(
        "kind: fourier_immersion\ndim: 2\nparams:\n  radii: [1.0, 1.0]\n"
        "fourier:\n  - {k: [1, 0], amp: [0.1, 0, 0]}\ngrid: 8\n"))
    assert "wavevector length 3" in str(parse_error(
        "kind: fourier_immersion\ndim: 2\nparams:\n  radii: [1.0, 1.0]\n"
        "fourier:\n  - {k: [1, 0, 0], amp: [0.1, 0, 0, 0]}\ngrid: 8\n"))


BUMP = (
    "kind: fourier_immersion\n"
    "dim: 3\n"
    "params:\n"
    "  radii: [1.0, 1.0, 1.0]\n"
    "fourier:\n"
    "  - {{k: {k}, amp: [{amp}, 0, 0, 0, 0, 0]}}\n"
    "grid: {grid}\n"
)


@pytest.mark.parametrize("raw", ["inf", "1e400", "nan"])
@pytest.mark.parametrize("text,where", [
    ("kind: sphere\ndim: 4\nparams:\n  r: {raw}\n", (4, 6)),
    ("kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, {raw}]\n", (4, 16)),
    (BUMP.format(k="[1, 0, 0]", amp="{raw}", grid=8), (6, 26)),
], ids=["r", "radii", "amp"])
def test_non_finite_numbers_are_located(text, where, raw, tmp_path, capsys):
    # 1e400 overflows to inf, and an infinite radius never ends the catalog's line search
    text = text.replace("{raw}", raw)
    err = parse_error(text)
    assert f"must be a finite number, got {raw!r}" in str(err)
    assert (err.line, err.column) == where
    spec = tmp_path / "m.yaml"
    spec.write_text(text)
    assert main(["verify", "--spec", str(spec), "--quiet"]) == 2
    assert capsys.readouterr().err == f"paneitz-lab: spec error: {err}\n"


def test_aliased_wavevectors_are_located():
    # |k_i| < m_i / 2: beyond it the grid samples the mode as another one
    # of the band; m_i / 2 is the sawtooth (Nyquist) mode
    for k in ("[9, 0, 0]", "[4, 0, 0]"):
        err = parse_error(BUMP.format(k=k, amp=0.1, grid=8))
        assert f"wavevector {k} aliases on grid (8, 8, 8)" in str(err)
        assert (err.line, err.column) == (6, 9)
    spec = parse_manifold_spec(BUMP.format(k="[3, 0, 0]", amp=0.1, grid=8))
    assert spec.immersion.terms[-1].k == (3, 0, 0)
    assert "aliases" in str(parse_error(BUMP.format(k="[0, 0, 5]", amp=0.1, grid="[12, 8, 8]")))
    assert parse_manifold_spec(BUMP.format(k="[5, 0, 0]", amp=0.1, grid="[12, 8, 8]")).grid[0] == 12


def test_grid_restrictions():
    assert "grid does not apply" in str(parse_error(
        "kind: sphere\ndim: 4\nparams:\n  r: 1.0\ngrid: 8\n"))
    assert "must be >= 8" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 1.0]\ngrid: 4\n"))
    assert "grid has 3 axes" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 1.0]\ngrid: [8, 8, 8]\n"))
    assert "needs a 'grid'" in str(parse_error(
        "kind: fourier_immersion\ndim: 2\nparams:\n  radii: [1.0, 1.0]\n"
        "fourier:\n  - {k: [1, 0], amp: [0.1, 0, 0, 0]}\n"))


def test_solver_and_count_validation():
    assert "solver must be one of" in str(parse_error(
        "kind: flat_torus\ndim: 2\nparams:\n  radii: [1.0, 1.0]\nsolver: magic\n"))
    assert "k must be >= 1" in str(parse_error(
        "kind: sphere\ndim: 4\nparams:\n  r: 1.0\nk: 0\n"))


@pytest.mark.parametrize("kind, params", [("sphere", "  r: 1.0\n"),
                                           ("flat_torus", "  radii: [1.0, 1.0, 1.0, 1.0]\n")],
                         ids=["sphere", "flat_torus"])
def test_solver_without_a_grid_is_located(tmp_path, capsys, kind, params):
    # a closed-form spectrum runs no solver, so the key would be ignored
    text = f"kind: {kind}\ndim: 4\nparams:\n{params}solver: dense\n"
    err = parse_error(text)
    assert "solver does not apply" in str(err) and (err.line, err.column) == (5, 9)
    spec = tmp_path / "s.yaml"
    spec.write_text(text)
    assert main(["spectrum", "--spec", str(spec), "--quiet"]) == 2
    assert capsys.readouterr().err == f"paneitz-lab: spec error: {err}\n"


def test_declared_unit_sphere_ambient_must_hold_on_the_grid():
    text = (
        "kind: fourier_immersion\n"
        "dim: 3\n"
        "ambient: unit_sphere\n"
        "params:\n"
        "  radii: [1.0, 1.0, 1.0]\n"
        "fourier:\n"
        "  - {k: [1, 1, 0], amp: [0, 0, 0, 0, 0, 0]}\n"
        "grid: 8\n"
    )
    err = parse_error(text)   # |y|^2 = 3 everywhere
    assert "leaves the unit sphere" in str(err) and "= 2 on the grid" in str(err)
    assert (err.line, err.column) == (3, 10)
    r = repr(3 ** -0.5)
    spec = parse_manifold_spec(text.replace("[1.0, 1.0, 1.0]", f"[{r}, {r}, {r}]"))
    assert spec.immersion.sphere_deviation(TorusGrid(spec.grid)) <= SPHERE_DEVIATION_TOL
    assert parse_manifold_spec(text.replace("unit_sphere", "euclidean")).model is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # |y|^2 overflows: inf, without a numpy warning
        err = parse_error(text.replace("amp: [0,", "amp: [1e308,"))
    assert "= inf on the grid" in str(err) and (err.line, err.column) == (3, 10)
