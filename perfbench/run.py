"""Benchmark of paneitz-lab: one workload per process, every output checked.

    python3 perfbench/run.py --workload curved --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
and driven in-process through ``paneitzlab.cli.main(argv)`` on the spec
files the workload generates from ``--seed``.  The run repeats whole passes
over the workload's commands until ``--seconds`` have been measured, then
checks every pass's outputs (outside the timed region) and prints one JSON
object as its last line of output:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median of several
  fresh interpreters that import the program and write the specs),
  ``wall_s`` (median time of one pass) and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of `tracing`, per pass.  Passes
  alternate between traced and untraced, and ``trace.overhead_s`` is the
  difference of their medians.

Run records, trace files, specs and outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

#: OpenBLAS threads and sweep-pool workers; together within the 2 cores this
#: benchmark is sized for.  Set before numpy is first imported.
BLAS_THREADS = 1
POOL_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PANEITZ_LAB_THREADS"] = str(POOL_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh interpreters timed for setup_s
SETUP_PROBES = 5
SETUP_CODE = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
              "import paneitzlab.cli, workloads; "
              "workloads.build({name!r}, {seed!r}, {directory!r})")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("curved", "flat-replay", "closed-form"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(name: str, seed: int, directory: Path) -> list[float]:
    """Seconds from interpreter start to imported program and written specs."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                             directory=str(directory))
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def capture_solves(cli, sink: list) -> None:
    """Keep each (bundle, result) the CLI's eigensolves return, for the checks."""
    solve = cli.solve_spectrum

    @functools.wraps(solve)
    def keep(imm, grid, coeffs, k, *, bundle=None, **kwargs):
        result = solve(imm, grid, coeffs, k, bundle=bundle, **kwargs)
        sink.append((bundle, result))
        return result

    cli.solve_spectrum = keep


def run_pass(cli, commands, sink: list):
    """One timed pass; returns (seconds, [(exit code, solves)] per command)."""
    outcomes = []
    start = time.perf_counter()
    for command in commands:
        mark = len(sink)
        try:
            code = cli.main(list(command.argv))
        except Exception:       # a traceback is a failed command, not a stop
            traceback.print_exc()
            code = -1
        outcomes.append((code, sink[mark:]))
    seconds = time.perf_counter() - start
    sink.clear()
    return seconds, outcomes


def check_pass(workloads, commands, outcomes, failures: list, wrong: list) -> None:
    """Check every command's outputs; record non-zero exits and wrong outputs."""
    from oracles import CheckFailed

    for command, (code, solves) in zip(commands, outcomes):
        where = " ".join(command.argv)
        if code != 0:
            failures.append(f"exit {code}: {where}")
            continue
        try:
            command.check(workloads.Outcome(code, solves))
        except CheckFailed as exc:
            wrong.append(f"{exc} ({where})")
        except Exception:       # a malformed output is a wrong output
            wrong.append(f"{traceback.format_exc()}({where})")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "paneitzlab" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    work = OUT / args.workload / f"seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = [] if args.trace else measure_setup(args.workload, args.seed, work / "setup")
    import paneitzlab.cli as cli
    import workloads
    from tracing import PER_LAYER, Tracer

    commands = workloads.build(args.workload, args.seed, work)
    sink: list = []
    capture_solves(cli, sink)
    tracer = Tracer() if args.trace else None

    times = {True: [], False: []}           # pass seconds, by traced or not
    attempted = 0
    failures: list[str] = []                # commands that exited non-zero
    wrong: list[str] = []                   # outputs that failed a check
    iterations: list[list] = []             # per pass, per eigensolve
    while True:
        traced = bool(tracer) and len(times[True]) <= len(times[False])
        if traced:
            tracer.install()
        try:
            seconds, outcomes = run_pass(cli, commands, sink)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(seconds)
        attempted += len(commands)
        check_pass(workloads, commands, outcomes, failures, wrong)
        iterations.append([result.iterations for _, solves in outcomes
                           for _, result in solves])
        del outcomes            # the eigensolves of this pass must not live into the next
        # stop when another pass would overshoot --seconds by more than half a pass
        measured = sum(times[True]) + sum(times[False])
        if measured + seconds / 2 >= args.seconds and (not tracer or all(times.values())):
            break

    untraced = times[False]
    if tracer:
        passes = len(times[True])
        metrics = tracer.layer_metrics(passes)
        metrics["trace.overhead_s"] = (statistics.median(times[True])
                                       - statistics.median(untraced))
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
        tracer.dump(work / "trace.json")
        solves = tracer.solves()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        solves = []
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup, "pass_s": untraced, "traced_pass_s": times[True],
              "commands": len(commands), "failures": failures, "wrong": wrong,
              "iterations": iterations, "solves": solves,
              "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in (failures + wrong)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
