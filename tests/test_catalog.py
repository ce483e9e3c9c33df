"""Closed-form spectra and model constants for the catalog manifolds."""

import itertools
import math

import numpy as np
import pytest

import paneitzlab.catalog as catalog
from paneitzlab.catalog import (
    ModelManifold,
    SphereFactor,
    SpectralLine,
    expand_lines,
    first_eigenfunction_info,
    flat_torus,
    laplace_spectrum,
    model_constants,
    paneitz_form,
    paneitz_spectrum,
    round_sphere,
    sphere_product,
)
from paneitzlab.errors import AmbiguityError, InvalidDimensionError


def lines_as_pairs(lines):
    return [(line.value, line.multiplicity) for line in lines]


# ---------------------------------------------------------------- constants

def test_s4_constants():
    c = model_constants(round_sphere(4))
    assert c.scalar == pytest.approx(12.0, rel=1e-14)
    assert c.q == pytest.approx(6.0, rel=1e-14)
    assert c.volume == pytest.approx(8 * math.pi**2 / 3, rel=1e-12)
    assert c.mean_sq == pytest.approx(1.0, rel=1e-14)
    assert c.s_norm == pytest.approx(4.0, rel=1e-14)


def test_flat_torus_constants():
    c = model_constants(flat_torus((1.0,) * 5))
    assert c.scalar == 0.0
    assert c.q == 0.0
    assert c.volume == pytest.approx((2 * math.pi) ** 5, rel=1e-12)
    assert c.mean_sq == pytest.approx(1 / 5, rel=1e-14)   # Sum(Lap y)^2 = n^2|H|^2
    assert c.s_norm == pytest.approx(5.0, rel=1e-14)


def test_minimal_clifford_product_constants():
    r = math.sqrt(0.5)
    c = model_constants(sphere_product(((2, r), (2, r)), ambient="unit_sphere"))
    assert c.scalar == pytest.approx(8.0, rel=1e-13)
    assert c.mean_sq == pytest.approx(0.0, abs=1e-13)          # minimal in the sphere
    assert c.mean_sq_euclidean == pytest.approx(1.0, rel=1e-13)
    assert c.q is not None


def test_unit_sphere_ambient_requires_unit_radius_sum():
    with pytest.raises(ValueError):
        sphere_product(((2, 1.0), (2, 1.0)), ambient="unit_sphere")
    with pytest.raises(ValueError):
        round_sphere(4, 0.9, ambient="unit_sphere")


# ------------------------------------------------------------ Laplace lines

def test_sphere_laplace_lines_with_multiplicities():
    lines = laplace_spectrum(round_sphere(4), 4)
    # mu_k = k(k+3), mult C(k+4,4) - C(k+2,4)
    assert lines_as_pairs(lines) == [(0.0, 1), (4.0, 5), (10.0, 14), (18.0, 30)]


def test_scaled_sphere_laplace_lines():
    lines = laplace_spectrum(round_sphere(3, 2.0), 3)
    assert lines_as_pairs(lines) == [(0.0, 1), (3 / 4, 4), (2.0, 9)]


def test_torus_laplace_lattice():
    lines = laplace_spectrum(flat_torus((1.0, 1.0, 1.0)), 4)
    # |k|^2 lattice values 0,1,2,3 with counts 1, 6, 12, 8
    assert lines_as_pairs(lines) == [(0.0, 1), (1.0, 6), (2.0, 12), (3.0, 8)]


def test_product_laplace_convolution():
    r = math.sqrt(0.5)
    lines = laplace_spectrum(sphere_product(((2, r), (2, r)), ambient="unit_sphere"), 3)
    # factor lines mu = k(k+1)/r^2 = 2k(k+1): 0,4,12 each with mult 2k+1
    assert lines_as_pairs(lines) == [
        (0.0, 1),
        (pytest.approx(4.0, rel=1e-13), 6),
        (pytest.approx(8.0, rel=1e-13), 9),
    ]


# ---------------------------------------------------------- fourth order

def test_s4_paneitz_lines():
    spec = paneitz_spectrum(round_sphere(4), 3)
    assert lines_as_pairs(spec.lines) == [(0.0, 1), (24.0, 5), (120.0, 14)]
    assert spec.zero_order == pytest.approx(0.0, abs=1e-14)
    assert spec.kappas[0] == pytest.approx(2.0, rel=1e-14)


def test_s5_paneitz_lines():
    spec = paneitz_spectrum(round_sphere(5), 3)
    assert lines_as_pairs(spec.lines) == [
        (pytest.approx(105 / 16, rel=1e-13), 1),
        (pytest.approx(945 / 16, rel=1e-13), 6),
        (pytest.approx(3465 / 16, rel=1e-13), 20),
    ]
    assert spec.kappas[0] == pytest.approx(11 / 2, rel=1e-13)


def test_minimal_clifford_paneitz_lines():
    r = math.sqrt(0.5)
    spec = paneitz_spectrum(sphere_product(((2, r), (2, r)), ambient="unit_sphere"), 3)
    assert lines_as_pairs(spec.lines) == [
        (pytest.approx(0.0, abs=1e-12), 1),
        (pytest.approx(64 / 3, rel=1e-13), 6),
        (pytest.approx(224 / 3, rel=1e-13), 9),
    ]


def test_torus_paneitz_is_biharmonic():
    spec = paneitz_spectrum(flat_torus((1.0, 1.0, 1.0)), 3)
    assert lines_as_pairs(spec.lines) == [(0.0, 1), (1.0, 6), (4.0, 12)]
    assert spec.kappas == (0.0, 0.0, 0.0)
    assert spec.zero_order == 0.0


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_sphere_paneitz_scale_covariance(r):
    base = paneitz_spectrum(round_sphere(4), 4)
    scaled = paneitz_spectrum(round_sphere(4, r), 4)
    for b, s in zip(base.lines, scaled.lines):
        assert s.value == pytest.approx(b.value / r**4, rel=1e-12)
        assert s.multiplicity == b.multiplicity


def test_unbalanced_product_splits_equal_total_mu():
    # mu-total ties with different per-factor splits must stay separate lines
    spec = paneitz_spectrum(sphere_product(((2, 1.0), (2, 2.0))), 6)
    values = [line.value for line in spec.lines]
    assert len(values) == len(set(values))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_expand_lines_flattens_multiplicity():
    spec = paneitz_spectrum(round_sphere(4), 3)
    vals = expand_lines(spec.lines, 7)
    assert vals == [0.0] + [24.0] * 5 + [120.0]
    with pytest.raises(ValueError):
        expand_lines(spec.lines[:1], 5)


def test_closed_form_value_matches_enumeration():
    spec = paneitz_spectrum(round_sphere(5), 2)
    mu1 = 5.0
    assert spec.value((mu1,)) == pytest.approx(945 / 16, rel=1e-13)


def test_paneitz_form_refuses_n2():
    with pytest.raises(InvalidDimensionError):
        paneitz_form(flat_torus((1.0, 1.0)))


# ------------------------------------------------------ first eigenfunction

def test_first_eigenfunction_constant_on_s5():
    info = first_eigenfunction_info(round_sphere(5))
    assert info.constant
    assert info.lambda_1 == pytest.approx(105 / 16, rel=1e-13)
    assert info.multiplicity == 1
    assert info.grad_energy == 0.0
    assert info.value == pytest.approx(1 / math.sqrt(round_sphere(5).volume), rel=1e-12)


def test_first_eigenfunction_constant_on_flat_torus():
    info = first_eigenfunction_info(flat_torus((1.0,) * 5))
    assert info.constant and info.lambda_1 == 0.0 and info.laplace_mu == 0.0


def test_first_eigenfunction_tie_reported(monkeypatch):
    # the catalog families never tie at the bottom, so force the guard
    merged = SpectralLine(value=1.0, multiplicity=2, labels=((1, 0), (0, 1)))
    fake = catalog.ClosedFormPaneitz(kappas=(0.0, 0.0), zero_order=0.0,
                                     lines=(merged, SpectralLine(2.0, 1, ((1, 1),))))
    monkeypatch.setattr(catalog, "paneitz_spectrum", lambda m, count: fake)
    with pytest.raises(AmbiguityError) as err:
        first_eigenfunction_info(sphere_product(((2, 1.0), (2, 1.0))))
    assert len(err.value.lines) == 2


def _full_product(factor_lines, cap):
    """The whole cartesian product of factor lines, then the sums above the cap dropped."""
    combos = []
    for picks in itertools.product(*factor_lines):
        mu = sum(line[0] for line in picks)
        if mu <= cap:
            combos.append((mu, math.prod(line[1] for line in picks),
                           tuple(line[2] for line in picks)))
    return combos


@pytest.mark.parametrize("model", [flat_torus((1.0,) * n) for n in (5, 6, 7, 8)]
                         + [sphere_product(((2, 1.0), (3, 1.0)))],
                         ids=["T5", "T6", "T7", "T8", "S2xS3"])
def test_pruned_enumeration_matches_full_product(model, monkeypatch):
    pruned_laplace = laplace_spectrum(model, 10)
    pruned_paneitz = paneitz_spectrum(model, 10).lines
    for cap in (1.0, 4.0):
        factor_lines = [f.laplace_lines(cap) for f in model.factors]
        assert catalog._enumerate_products(factor_lines, cap) == _full_product(factor_lines, cap)
    monkeypatch.setattr(catalog, "_enumerate_products", _full_product)
    assert laplace_spectrum(model, 10) == pruned_laplace
    assert paneitz_spectrum(model, 10).lines == pruned_paneitz


# ------------------------------------------------------------- validation

def test_describe_mentions_ambient():
    assert round_sphere(4).describe() == "S4(r=1) in R^5"
    r = math.sqrt(0.5)
    label = sphere_product(((2, r), (2, r)), ambient="unit_sphere").describe()
    assert label.endswith("in S^5(1)")


def test_factor_validation():
    with pytest.raises(ValueError):
        SphereFactor(p=0, r=1.0)
    with pytest.raises(ValueError):
        SphereFactor(p=2, r=-1.0)
    with pytest.raises(ValueError):
        ModelManifold(kind="nonsense", factors=(SphereFactor(2, 1.0),))
