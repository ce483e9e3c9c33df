"""The benchmark's hooks into the program: every traced name still exists,
and `cli.solve_spectrum` still takes the call the benchmark wraps it with."""

import importlib.util
import inspect
from pathlib import Path

from paneitzlab import cli, discrete, eigensolve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_layer_and_uninstalls():
    estimate_top = discrete.PaneitzOperator.__dict__["estimate_top"]
    tracer = _tracing().Tracer()
    try:
        tracer.install()  # a renamed or deleted traced name raises here
        assert discrete.PaneitzOperator.__dict__["estimate_top"] is not estimate_top
        assert cli.solve_spectrum is not eigensolve.spectrum
    finally:
        tracer.uninstall()
    assert discrete.PaneitzOperator.__dict__["estimate_top"] is estimate_top
    assert cli.solve_spectrum is eigensolve.spectrum


def test_solve_spectrum_takes_the_benchmark_call():
    # perfbench/run.py wraps it as solve(imm, grid, coeffs, k, bundle=bundle, ...)
    inspect.signature(cli.solve_spectrum).bind(None, None, None, 7, bundle=None)
