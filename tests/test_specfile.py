"""Spec-file parsing: schema, defaults, and located errors."""

import pytest

from paneitzlab.errors import SpecFileError
from paneitzlab.specfile import (
    DEFAULT_SEED,
    ManifoldSpec,
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
    assert spec.kind == "sphere" and spec.dim == 4 and spec.r == 1.0
    assert spec.ambient == "euclidean" and spec.solver is None
    assert spec.k == 8 and spec.seed == DEFAULT_SEED
    assert spec.analytic and not spec.gridable
    model = spec.to_model()
    assert model.kind == "sphere" and model.n == 4


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
    assert spec.factors == ((2, 0.7071067811865476),) * 2
    assert spec.to_model().ambient == "unit_sphere"
    assert not spec.gridable


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
    assert spec.analytic and spec.gridable
    assert spec.to_grid().shape == (8, 8, 8)
    imm = spec.to_immersion()
    assert imm.n == 3 and len(imm.terms) == 3  # pure block torus, no extras


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
    assert not spec.analytic and spec.gridable
    assert spec.fourier[0].trig == "cos" and spec.fourier[1].trig == "sin"
    imm = spec.to_immersion()
    assert len(imm.terms) == 5  # three base circles plus two extras
    with pytest.raises(ValueError, match="closed-form"):
        spec.to_model()


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


def test_grid_only_through_spec():
    spec = ManifoldSpec(kind="sphere", dim=4, r=1.0)
    with pytest.raises(ValueError, match="no grid"):
        spec.to_grid()
    with pytest.raises(ValueError, match="not realized"):
        spec.to_immersion()


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
    assert spec.ambient == "unit_sphere"
    assert parse_manifold_spec(text.replace("unit_sphere", "euclidean")).ambient == "euclidean"
