"""The quick demos run start to finish on the public API."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["clifford_equality.py", "sphere_spectrum.py",
                                  "proof_replay.py", "donut_curvature.py",
                                  "flat_torus_grid.py",
                                  "perturbation_breaks_equality.py"])
def test_demo_runs(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
