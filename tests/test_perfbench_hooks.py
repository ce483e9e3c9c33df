"""The benchmark's hooks into the program: every traced name still exists,
`cli.solve_spectrum` still takes the call the benchmark wraps it with, and
one pass of every workload passes the benchmark's own checks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from paneitzlab import cli, discrete, eigensolve

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCH / "tracing.py"


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


def test_every_workload_passes_the_benchmark_checks(tmp_path, monkeypatch):
    # run.py is not imported: it sets thread variables at import; its
    # capture of the eigensolves is repeated here
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    sink = []
    solve = cli.solve_spectrum

    def keep(imm, grid, coeffs, k, *, bundle=None, **kwargs):
        result = solve(imm, grid, coeffs, k, bundle=bundle, **kwargs)
        sink.append((bundle, result))
        return result

    monkeypatch.setattr(cli, "solve_spectrum", keep)
    for name in workloads.WORKLOADS:
        for command in workloads.build(name, 1, tmp_path / name):
            mark = len(sink)
            assert cli.main(list(command.argv)) == 0, command.argv
            command.check(workloads.Outcome(0, sink[mark:]))
