"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from oracles import (  # noqa: E402
    CheckFailed,
    bound_sides,
    flat_torus_values,
    harmonic_multiplicity,
    product_values,
    sphere_values,
)


def test_flat_torus_enumerator_on_unit_t5():
    values = flat_torus_values((1.0,) * 5, 51)
    assert values[:11] == [0.0] + [1.0] * 10
    assert values[11:] == [4.0] * 40          # |k|^2 = 2: two axes, four signs


def test_flat_torus_enumerator_scales_with_radii():
    assert flat_torus_values((2.0, 1.0), 3) == [0.0, 1.0 / 16.0, 1.0 / 16.0]


def test_round_sphere_formula():
    assert sphere_values(4, 1.0, 6) == [0.0] + [24.0] * 5
    assert sphere_values(3, 1.0, 1) == [-15.0 / 16.0]
    assert harmonic_multiplicity(4, 1) == 5
    assert harmonic_multiplicity(3, 2) == 9
    assert sphere_values(4, 2.0, 2)[1] == pytest.approx(24.0 / 16.0, rel=1e-15)


@pytest.mark.parametrize("n", range(3, 9))
def test_product_formula_agrees_with_the_sphere_formula(n):
    for r in (1.0, 0.7):
        assert product_values(((n, r),), 20) == pytest.approx(sphere_values(n, r, 20),
                                                              rel=1e-12)


def test_equality_values():
    s4 = sphere_values(4, 1.0, 9)
    assert bound_sides("thm_1_1", ((4, 1.0),), s4) == pytest.approx((8 * math.sqrt(6),) * 2)
    assert bound_sides("chenli_l1", ((4, 1.0),), s4) == pytest.approx((24.0, 24.0))
    s5 = sphere_values(5, 1.0, 10)
    assert bound_sides("thm_1_2", ((5, 1.0),), s5) == pytest.approx((5 * math.sqrt(52.5),) * 2)
    half = math.sqrt(0.5)
    clifford = ((2, half), (2, half))
    lhs, rhs = bound_sides("cor_1_1", clifford, product_values(clifford, 9))
    assert lhs == pytest.approx(32 / math.sqrt(3), rel=1e-12)
    assert rhs == pytest.approx(32 / math.sqrt(3), rel=1e-12)
    t5 = ((1, 1.0),) * 5
    assert bound_sides("thm_1_2", t5, flat_torus_values((1.0,) * 5, 11)) == \
        pytest.approx((5.0, math.sqrt(52.5)))


def _spectrum_doc(values):
    return {"spectrum": {"values": values,
                         "multiplicities": [{"value": v, "count": 1} for v in values]}}


def _command(commands, *parts):
    (cmd,) = [c for c in commands if all(p in " ".join(c.argv) for p in parts)]
    return cmd


def test_closed_form_check_passes_on_exact_values_and_fails_at_1e_6(tmp_path):
    commands = workloads.build("closed-form", 3, tmp_path)
    cmd = _command(commands, "spectrum", "s3-unit")
    out = cmd.argv[cmd.argv.index("--out") + 1]
    values = sphere_values(3, 1.0, 5)
    Path(out).write_text(json.dumps(_spectrum_doc(values)))
    cmd.check(workloads.Outcome(0, []))
    values[2] += 1e-6
    Path(out).write_text(json.dumps(_spectrum_doc(values)))
    with pytest.raises(CheckFailed, match="eigenvalues"):
        cmd.check(workloads.Outcome(0, []))


def test_flat_replay_check_fails_on_an_eigenvalue_off_by_1e_6(tmp_path):
    (cmd,) = workloads.build("flat-replay", 3, tmp_path)
    out = cmd.argv[cmd.argv.index("--out") + 1]
    values = flat_torus_values((1.0,) * 5, 11)
    values[4] += 1e-6
    Path(out).write_text(json.dumps(_spectrum_doc(values)))
    with pytest.raises(CheckFailed, match="eigenvalues"):
        cmd.check(workloads.Outcome(0, []))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_specs_depend_on_the_seed_alone(tmp_path, name):
    def specs(seed, where):
        workloads.build(name, seed, where)
        return {p.name: p.read_text() for p in sorted((where / "specs").iterdir())}

    first = specs(5, tmp_path / "a")
    assert first == specs(5, tmp_path / "b")
    assert first != specs(6, tmp_path / "c")
