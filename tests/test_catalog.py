"""Closed-form spectra and model constants for the catalog manifolds."""

import itertools
import math

import numpy as np
import pytest

import paneitzlab.catalog as catalog
from paneitzlab.bounds import constant_ground_state, summarize_model, u1_from_lines
from paneitzlab.catalog import (
    ModelManifold,
    SphereFactor,
    SpectralLine,
    expand_lines,
    flat_torus,
    model_constants,
    paneitz_form,
    paneitz_spectrum,
    round_sphere,
    sphere_product,
)
from paneitzlab.errors import AmbiguityError, InvalidDimensionError


def lines_as_pairs(lines):
    return [(line.value, line.multiplicity) for line in lines]


def energies_as_pairs(lines):
    return [(line.energy, line.multiplicity) for line in lines]


# ---------------------------------------------------------------- constants

def test_s4_constants():
    c = model_constants(round_sphere(4))
    assert c.scalar == pytest.approx(12.0, rel=1e-14)
    assert c.q == pytest.approx(6.0, rel=1e-14)
    assert c.volume == pytest.approx(8 * math.pi**2 / 3, rel=1e-12)
    assert c.mean_sq_euclidean == pytest.approx(1.0, rel=1e-14)
    assert c.s_norm_euclidean == pytest.approx(4.0, rel=1e-14)


def test_flat_torus_constants():
    c = model_constants(flat_torus((1.0,) * 5))
    assert c.scalar == 0.0
    assert c.q == 0.0
    assert c.volume == pytest.approx((2 * math.pi) ** 5, rel=1e-12)
    assert c.mean_sq_euclidean == pytest.approx(1 / 5, rel=1e-14)   # Sum(Lap y)^2 = n^2|H|^2
    assert c.s_norm_euclidean == pytest.approx(5.0, rel=1e-14)


def test_minimal_clifford_product_constants():
    r = math.sqrt(0.5)
    c = model_constants(sphere_product(((2, r), (2, r)), ambient="unit_sphere"))
    assert c.scalar == pytest.approx(8.0, rel=1e-13)
    assert c.mean_sq_euclidean == pytest.approx(1.0, rel=1e-13)  # in S^5: |H|^2 = 1 - 1, minimal
    assert c.q is not None


def test_unit_sphere_ambient_requires_unit_radius_sum():
    with pytest.raises(ValueError):
        sphere_product(((2, 1.0), (2, 1.0)), ambient="unit_sphere")
    with pytest.raises(ValueError):
        round_sphere(4, 0.9, ambient="unit_sphere")


# ------------------------------------------------------------ Laplace lines

def test_sphere_laplace_lines_with_multiplicities():
    # mu_k = k(k+3), mult C(k+4,4) - C(k+2,4)
    assert SphereFactor(4, 1.0).laplace_lines(18.0) == [(0.0, 1), (4.0, 5), (10.0, 14), (18.0, 30)]


def test_scaled_sphere_laplace_lines():
    assert SphereFactor(3, 2.0).laplace_lines(2.0) == [(0.0, 1), (3 / 4, 4), (2.0, 9)]


def test_torus_laplace_lattice():
    lines = paneitz_spectrum(flat_torus((1.0, 1.0, 1.0)), 4).lines
    # lambda = |k|^2 squared; the energies are the lattice values 0,1,2,3 with counts 1, 6, 12, 8
    assert energies_as_pairs(lines) == [(0.0, 1), (1.0, 6), (2.0, 12), (3.0, 8)]


def test_product_laplace_convolution():
    r = math.sqrt(0.5)
    lines = paneitz_spectrum(sphere_product(((2, r), (2, r)), ambient="unit_sphere"), 3).lines
    # factor lines mu = k(k+1)/r^2 = 2k(k+1): 0,4,12 each with mult 2k+1
    assert energies_as_pairs(lines) == [
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
    line = spec.lines[1]
    assert line.energy == 5.0
    assert line.value == line.energy**2 + spec.kappas[0] * line.energy + spec.zero_order
    assert line.value == pytest.approx(945 / 16, rel=1e-13)


def test_paneitz_form_refuses_n2():
    with pytest.raises(InvalidDimensionError):
        paneitz_form(flat_torus((1.0, 1.0)))


# ------------------------------------------------------ first eigenfunction

def _ground_state(m, count=2):
    """u1 of a catalog model from its closed-form lines, with those lines."""
    lines = paneitz_spectrum(m, count).lines
    return u1_from_lines(summarize_model(m), lines), lines


def test_first_eigenfunction_constant_on_s5():
    u1, lines = _ground_state(round_sphere(5))
    assert lines[0].value == pytest.approx(105 / 16, rel=1e-13)
    assert lines[0].multiplicity == 1 and not u1.multiple
    assert u1.grad_energy == 0.0
    ground = constant_ground_state(summarize_model(round_sphere(5)))
    assert ground.w == pytest.approx([1 / math.sqrt(round_sphere(5).volume)], rel=1e-12)
    assert np.array_equal(u1.w, ground.w)


def test_first_eigenfunction_constant_on_flat_torus():
    u1, lines = _ground_state(flat_torus((1.0,) * 5))
    assert lines[0].value == 0.0 and u1.grad_energy == 0.0


def test_first_eigenfunction_tie_reported():
    merged = SpectralLine(value=1.0, multiplicity=2, tuples=2, energy=1.0)
    fake = (merged, SpectralLine(2.0, 1, tuples=1, energy=2.0))
    with pytest.raises(AmbiguityError) as err:
        u1_from_lines(summarize_model(sphere_product(((2, 1.0), (2, 1.0)))), fake)
    assert err.value.lines == fake
    # the circle's first line on S^4(1) x S^1(1e5) sits 6.5e-10 above the
    # constants' 1.5625: a distinct line, so the bottom is the constant alone
    u1, lines = _ground_state(sphere_product(((4, 1.0), (1, 1e5))))
    assert lines[0].value == 1.5625 and lines[0].tuples == 1
    assert lines[1].value - lines[0].value == pytest.approx(6.5e-10, rel=0.01)
    assert u1.grad_energy == 0.0 and not u1.multiple


def _full_product_lines(model, cap):
    """The whole cartesian product of factor lines, each degree tuple
    evaluated on its own, then clustered as the catalog clusters lines:
    [(value, multiplicity, tuples)] of every tuple with summed mu <= cap.
    The merge floor 1e-12 is the catalog's at unit radii."""
    form = paneitz_form(model)
    entries = []
    for picks in itertools.product(*(f.laplace_lines(cap) for f in model.factors)):
        mus = [mu for mu, _ in picks]
        if sum(mus) <= cap:
            value = sum(mus)**2 + sum(k * mu for k, mu in zip(form.kappas, mus)) + form.zero_order
            entries.append((value, math.prod(mult for _, mult in picks)))
    lines = []
    for value, mult in sorted(entries, key=lambda t: t[0]):
        if lines and math.isclose(lines[-1][0], value, rel_tol=catalog.LINE_MERGE_RTOL, abs_tol=1e-12):
            lines[-1] = (lines[-1][0], lines[-1][1] + mult, lines[-1][2] + 1)
        else:
            lines.append((value, mult, 1))
    return lines


@pytest.mark.parametrize("model, count, cap",
                         [(flat_torus((1.0,) * n), 8, 8.0) for n in (3, 4, 5, 6, 7, 8)]
                         + [(sphere_product(((2, 1.0), (3, 1.0))), 10, 16.0)],
                         ids=["T3", "T4", "T5", "T6", "T7", "T8", "S2xS3"])
def test_pruned_enumeration_matches_full_product(model, count, cap):
    # every tuple with summed mu <= cap is in the reference, so its lines are
    # complete below cap^2 - neg cap + z, past the count-th line here
    lines = paneitz_spectrum(model, count).lines
    assert [(line.value, line.multiplicity, line.tuples) for line in lines] \
        == _full_product_lines(model, cap)[:count]


def _sum_of_squares_counts(n, top):
    """r_n(j) for j <= top: coefficients of theta(q)^n, theta = 1 + 2 sum q^(i^2)."""
    theta = [0] * (top + 1)
    for i in range(math.isqrt(top) + 1):
        theta[i * i] += 1 if i == 0 else 2
    counts = [1] + [0] * top
    for _ in range(n):
        counts = [sum(counts[j - i] * theta[i] for i in range(j + 1)) for j in range(top + 1)]
    return counts


def test_flat_t24_lines_are_lattice_counts():
    counts = _sum_of_squares_counts(24, 7)
    assert counts == [1, 48, 1104, 16192, 170064, 1362336, 8662720, 44981376]
    lines = paneitz_spectrum(flat_torus((1.0,) * 24), 8).lines
    assert lines_as_pairs(lines) == [(float(j * j), c) for j, c in enumerate(counts)]


@pytest.mark.parametrize("factors, make", [
    (((2, 0.8), (3, 1.3), (1, 0.6)), sphere_product),
    ((0.7, 1.0, 1.3, 0.9), flat_torus),
], ids=["S2xS3xS1", "T4"])
def test_lines_do_not_depend_on_factor_order(factors, make):
    base = paneitz_spectrum(make(factors), 12).lines
    for order in itertools.permutations(factors):
        lines = paneitz_spectrum(make(order), 12).lines
        assert [(line.multiplicity, line.tuples) for line in lines] \
            == [(line.multiplicity, line.tuples) for line in base]
        for line, ref in zip(lines, base):
            assert line.value == pytest.approx(ref.value, rel=1e-12)


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


@pytest.mark.parametrize("make", [lambda r: round_sphere(5, r),
                                  lambda r: sphere_product(((2, r), (3, r)))])
@pytest.mark.parametrize("r", [1e-3, 1e4, 1e6])
def test_spectra_scale_as_r_to_the_minus_four(make, r):
    base = paneitz_spectrum(make(1.0), 8).lines
    scaled = paneitz_spectrum(make(r), 8).lines
    assert [line.multiplicity for line in scaled] == [line.multiplicity for line in base]
    for line, ref in zip(scaled, base):
        assert line.value * r**4 == pytest.approx(ref.value, rel=1e-12)
    assert not u1_from_lines(summarize_model(make(r)), scaled).multiple


@pytest.mark.parametrize("p, r", [(5, 1e200), (5, 1e150), (5, 1e-200), (1, 1e-170),
                                  (5, math.inf)])
def test_radius_out_of_float_range_is_refused(p, r):
    with pytest.raises(ValueError, match="out of range"):
        SphereFactor(p=p, r=r)


@pytest.mark.parametrize("p, r", [(343, 1.0), (400, 1.0), (300, 0.2)])
def test_factor_volume_out_of_float_range_is_refused(p, r):
    # Gamma((p + 1) / 2) overflows from p = 343 on, whatever the radius; at
    # p = 300 a radius of 0.2 keeps r^p a float but the volume underflows
    with pytest.raises(ValueError, match="its volume must be a finite nonzero float"):
        SphereFactor(p=p, r=r)
    assert 0.0 < SphereFactor(p=342, r=1.0).volume < math.inf
