"""Command-line entry points: spectrum, verify, sweep, replay.

Exit codes are part of the contract: 0 success, 1 a bound was violated
beyond tolerance (a finding, not a crash), 2 invalid input, a
dimension/ambient/positivity gate or a grid too large for memory, 3 solver
failure.  Human-readable summaries go to stdout (silenced by --quiet),
machine artifacts go to the paths given by --out/--csv, and error
diagnostics go to stderr.

There is one solve path, `_solve`: a spec's spectrum comes from the catalog
in closed form when one exists and from the grid otherwise, both as a
`SpectrumResult`.  `spectrum`, `verify` and `replay` reach it from a spec
file; a sweep family maps each parameter to a `ManifoldSpec`, built by the
catalog and immersion constructors the spec parser uses, and reaches it the
same way, one sample per spec, in one loop.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BOUNDS,
    GeometrySummary,
    U1Data,
    diagnose_equality,
    evaluate,
    snap_kernel,
    summarize_bundle,
    summarize_model,
    u1_from_lines,
    u1_from_result,
)
from .catalog import SpectralLine, paneitz_spectrum, round_sphere, sphere_product
from .coefficients import paneitz_coefficients
from .discrete import CurvatureBundle, build_bundle
from .eigensolve import DEFAULT_SEED, SpectrumResult
from .eigensolve import spectrum as solve_spectrum
from .errors import (
    GateError,
    InvalidDimensionError,
    PaneitzLabError,
    PositivityError,
    SolverFailureError,
    SpecFileError,
)
from .replay import (
    REPLAY_TOL_ANALYTIC,
    REPLAY_TOL_NUMERICAL,
    replay_proof,
    replay_proof_analytic,
    replay_theorem,
)
from .report import (
    build_report,
    constants_block,
    dump_report,
    spectrum_block,
    sweep_csv,
)
from .fourier import FourierTerm, TorusGrid, clifford_torus
from .specfile import ManifoldSpec, load_manifold_spec

EXIT_OK, EXIT_VIOLATION, EXIT_INVALID, EXIT_SOLVER = 0, 1, 2, 3


def _say(args, text: str):
    if not args.quiet:
        print(text)


# --------------------------------------------------------------------------
# shared evaluation helpers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A spec's spectrum with what it was computed from: the bundle on a
    grid, the catalog's closed-form lines otherwise."""

    result: SpectrumResult
    geo: GeometrySummary
    bundle: CurvatureBundle | None
    lines: tuple[SpectralLine, ...] = ()

    def u1(self) -> U1Data:
        """The ground eigenfunction's data for the gap bounds: the computed
        ground pair on a grid (`u1_from_result`), the bottom closed-form
        line otherwise (`u1_from_lines`)."""
        if self.bundle is not None:
            return u1_from_result(self.bundle, self.result)
        return u1_from_lines(self.geo, self.lines)


def _solve(spec: ManifoldSpec, count: int, seed: int, timings: dict,
           on_grid: bool = False) -> Solution:
    """The count lowest eigenvalues of spec: in closed form when the catalog
    has it (unless on_grid), else on the spec's grid, where timings["bundle"]
    gets the seconds spent sampling the bundle.  Every command and sweep
    sample reaches its spectrum here."""
    model = spec.model
    if model is not None and not on_grid:
        lines = paneitz_spectrum(model, count).lines
        return Solution(SpectrumResult.closed_form(lines, count), summarize_model(model), None,
                        lines)
    imm, grid = spec.immersion, TorusGrid(spec.grid)
    tick = time.perf_counter()
    bundle = build_bundle(imm, grid)
    timings["bundle"] = time.perf_counter() - tick
    result = solve_spectrum(imm, grid, paneitz_coefficients(spec.dim), count, bundle=bundle,
                            solver=spec.solver, seed=seed)
    return Solution(result, summarize_bundle(bundle), bundle)


def _run_bounds(requested: str, values, geo, u1, tol_eq):
    """Evaluate one bound or every applicable one; returns (reports, refusals)."""
    if requested != "all":
        if requested not in BOUNDS:
            raise GateError(f"unknown bound id {requested!r}; "
                            f"known: {', '.join(BOUNDS)} or 'all'")
        return [evaluate(requested, values, geo, u1, tol_eq)], []

    reports, refusals, refused = [], [], None
    for rule in BOUNDS.values():
        if not rule.applies(geo.n, geo.ambient_unit_sphere):
            continue
        try:
            reports.append(evaluate(rule.bound_id, values, geo, u1, tol_eq))
        except PositivityError as exc:      # raised by refusable bounds only
            refusals.append({"bound_id": rule.bound_id, "refused": str(exc)})
            refused = exc
    if not reports:
        if refused is not None:
            raise refused           # the only applicable bound: a real gate
        raise InvalidDimensionError(
            f"no bound applies to n = {geo.n} with this ambient")
    return reports, refusals


def _bound_summary_line(rep) -> str:
    verdict = "OK" if rep.ok else "VIOLATED"
    kind = "equality" if rep.equality else (
        "strict" if rep.strictness_expected else "slack")
    extra = f" flags={','.join(rep.flags)}" if rep.flags else ""
    return (f"{rep.bound_id:9s} lhs={rep.lhs:.12g}  rhs={rep.rhs:.12g}  "
            f"slack={rep.slack:+.3e} [{kind}] {verdict}{extra}")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _prologue(args, proof: bool) -> tuple[ManifoldSpec, int, int]:
    """(spec, count, seed) of a spec command: --count and --seed override the
    spec's; a command that may replay a proof chain asks for n + 2 values."""
    spec = load_manifold_spec(args.spec)
    count = args.count if args.count is not None else spec.k
    if proof:
        count = max(count, spec.dim + 2)
    seed = args.seed if args.seed is not None else spec.seed
    return spec, count, seed


def _write_report(args, command: str, spec: ManifoldSpec, timings: dict, **sections):
    """The command's JSON report, when --out asks for one."""
    if args.out:
        doc = build_report(command=command, spec_text=spec.text, source=spec.source,
                           timings=timings, **sections)
        dump_report(doc, args.out)
        _say(args, f"report written to {args.out}")


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    spec, count, seed = _prologue(args, proof=False)
    timings = {}
    tick = time.perf_counter()
    sol = _solve(spec, count, seed, timings)
    timings["solve"] = time.perf_counter() - tick
    block = spectrum_block(sol.result)
    timings["total"] = time.perf_counter() - t0

    _say(args, f"spectrum of {sol.geo.label} ({block['method']})")
    for entry in block["multiplicities"]:
        _say(args, f"  lambda = {entry['value']:.12g}  (x{entry['count']})")
    _write_report(args, "spectrum", spec, timings,
                  spectrum=block, constants=constants_block(sol.geo))
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    spec, count, seed = _prologue(args, proof=True)
    timings = {}

    tick = time.perf_counter()
    sol = _solve(spec, count, seed, timings)
    want_u1 = any(rule.needs_u1 and rule.applies(spec.dim) for rule in BOUNDS.values())
    u1 = sol.u1() if want_u1 else None
    timings["spectrum"] = time.perf_counter() - tick

    tick = time.perf_counter()
    geo = sol.geo
    reports, refusals = _run_bounds(args.bound, sol.result.eigenvalues, geo, u1, args.tol)
    diagnosis = diagnose_equality(geo)
    timings["bounds"] = time.perf_counter() - tick

    replay_rep = None
    if args.replay:
        tick = time.perf_counter()
        replay_rep = _run_replay(spec, count, seed, args.tol, timings, sol, u1)
        timings["replay"] = time.perf_counter() - tick
    timings["total"] = time.perf_counter() - t0

    _say(args, f"verify {geo.label}  (bound: {args.bound})")
    for rep in reports:
        _say(args, "  " + _bound_summary_line(rep))
    for ref in refusals:
        _say(args, f"  {ref['bound_id']:9s} refused: {ref['refused']}")
    _say(args, f"  equality case: {diagnosis.matched_case}")
    if replay_rep is not None:
        state = "ok" if replay_rep.ok else "FAILED"
        _say(args, f"  replay {replay_rep.theorem_id} [{replay_rep.route}]: "
                   f"worst slack {replay_rep.worst_slack:+.3e} ({state})")

    sections = {
        "spectrum": spectrum_block(sol.result),
        "constants": constants_block(geo),
        "bounds": reports,
        "equality_diagnosis": diagnosis,
    }
    if refusals:
        sections["refusals"] = refusals
    if replay_rep is not None:
        sections["replay"] = replay_rep
    _write_report(args, "verify", spec, timings, **sections)

    ok = all(r.ok for r in reports) and (replay_rep is None or replay_rep.ok)
    return EXIT_OK if ok else EXIT_VIOLATION


def _run_replay(spec: ManifoldSpec, count: int, seed: int, tol: float | None,
                timings: dict, sol: Solution | None = None, u1: U1Data | None = None):
    """The proof chain of spec's dimension: in closed form on its catalog
    model when spec has no grid, else on the grid spectrum, solved here
    unless sol already holds one; u1 is the bounds' ground state of sol,
    reused by the grid chain."""
    theorem = replay_theorem(spec.dim)
    if spec.grid is None:
        return replay_proof_analytic(theorem, spec.model,
                                     tol=tol if tol is not None else REPLAY_TOL_ANALYTIC)
    if sol is None or sol.bundle is None:
        sol, u1 = _solve(spec, count, seed, timings, on_grid=True), None
    return replay_proof(theorem, sol.result, sol.bundle,
                        tol=tol if tol is not None else REPLAY_TOL_NUMERICAL, u1=u1)


def cmd_replay(args) -> int:
    t0 = time.perf_counter()
    spec, count, seed = _prologue(args, proof=True)
    timings = {}
    rep = _run_replay(spec, count, seed, args.tol, timings)
    timings["total"] = time.perf_counter() - t0

    _say(args, f"replay {rep.theorem_id} [{rep.route}] {rep.label}")
    for s in rep.steps:
        _say(args, f"  {s.name:28s} {s.kind:10s} slack={s.slack:+.3e}")
    _say(args, f"  delta* = {rep.delta:.12g}")
    _say(args, f"  final: {rep.final_lhs:.12g} <= {rep.final_rhs:.12g} "
               f"(worst slack {rep.worst_slack:+.3e})")
    _write_report(args, "replay", spec, timings, replay=rep)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def _parse_range(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) not in (2, 3):
        raise GateError(f"range must be start:stop[:samples], got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        m = int(parts[2]) if len(parts) == 3 else 9
    except ValueError:
        raise GateError(f"malformed range {raw!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GateError(f"range needs a finite start and stop, got {raw!r}")
    if not (hi > lo):
        raise GateError(f"range needs stop > start, got {raw!r}")
    if m < 2:
        raise GateError(f"range needs at least 2 samples, got {m}")
    return np.linspace(lo, hi, m)


def _eigen_row(values, n: int) -> list[float]:
    vals = snap_kernel(values)
    if n == 4 and vals.size and vals[0] == 0.0:
        vals = vals[1:]             # n = 4 indexing starts above the kernel
    return [float(v) for v in vals[:n + 1]]


def _clifford_spec(param: float, n: int, seed: int) -> ManifoldSpec:
    if not (0.0 < param < 1.0):
        raise GateError(f"clifford_ratio parameter is r1^2, needs (0,1); got {param}")
    factors = ((2, math.sqrt(param)), (2, math.sqrt(1.0 - param)))
    return ManifoldSpec(model=sphere_product(factors, ambient="unit_sphere"), seed=seed)


def _fourier_spec(param: float, n: int, seed: int) -> ManifoldSpec:
    """The unit Clifford n-torus with param cos(x_1 + x_2) added to its first
    coordinate, on 8^n."""
    mode = FourierTerm(k=(1, 1) + (0,) * (n - 2), cos=(param,) + (0.0,) * (2 * n - 1),
                       sin=(0.0,) * (2 * n))
    return ManifoldSpec(immersion=clifford_torus((1.0,) * n).perturbed([mode]),
                        grid=(8,) * n, solver="lanczos", seed=seed)


#: sweep family -> (its dimension, None for any; whether it lies in the unit
#: sphere; its spec at a parameter, (param, n, seed) -> ManifoldSpec).  A
#: family sweeps the bounds that apply there, each at the lowest dimension
#: the bound covers.
_FAMILIES = {
    "sphere_radius": (None, False,
                      lambda param, n, seed: ManifoldSpec(model=round_sphere(n, param), seed=seed)),
    "clifford_ratio": (4, True, _clifford_spec),
    # n = 4 only: curved 8^5 grids push each sample past desk scale
    "fourier_perturbation": (4, False, _fourier_spec),
}


def _sweep_row(bound: str, param: float, spec: ManifoldSpec, tol: float | None) -> dict:
    """One sample: the n + 3 lowest values of spec, the family's spec at
    param, and the bound on them."""
    n = spec.dim
    sol = _solve(spec, n + 3, spec.seed, {})
    rep = evaluate(bound, sol.result.eigenvalues, sol.geo,
                   sol.u1() if BOUNDS[bound].needs_u1 else None, tol)
    return {"param": float(param), "lhs": rep.lhs, "rhs": rep.rhs,
            "slack": rep.slack, "relative_slack": rep.relative_slack,
            "equality": rep.equality, "ok": rep.ok,
            "eigenvalues": _eigen_row(sol.result.eigenvalues, n), "n": n}


def _family_bounds(family: str) -> list[str]:
    dim, unit_sphere, _ = _FAMILIES[family]
    return [rule.bound_id for rule in BOUNDS.values()
            if rule.applies(dim or rule.lowest_dim, unit_sphere)]


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    family = args.family
    bound = args.bound
    if bound in (None, "all"):
        raise GateError("sweep needs a single --bound id")
    if family not in _FAMILIES:
        raise GateError(f"unknown family {family!r}; "
                        f"known: {', '.join(_FAMILIES)}")
    supported = _family_bounds(family)
    if bound not in supported:
        raise GateError(f"family {family} supports bounds "
                        f"{', '.join(supported)}, not {bound}")
    if not args.csv:
        raise GateError("sweep needs --csv PATH for its output table")
    params = _parse_range(args.range)
    seed = args.seed if args.seed is not None else DEFAULT_SEED

    dim, _, build = _FAMILIES[family]
    specs = [build(float(p), dim or BOUNDS[bound].lowest_dim, seed) for p in params]
    rows = [_sweep_row(bound, p, spec, args.tol) for p, spec in zip(params, specs)]

    n = rows[0]["n"]
    sweep_csv(rows, eigen_count=n + 1, path=args.csv)
    elapsed = time.perf_counter() - t0
    _say(args, f"swept {family} over {len(rows)} samples of {bound} "
               f"in {elapsed:.2f}s -> {args.csv}")
    worst = min(r["slack"] for r in rows)
    _say(args, f"  slack range [{worst:.6g}, {max(r['slack'] for r in rows):.6g}]; "
               f"{sum(r['equality'] for r in rows)} equality rows")
    return EXIT_OK if all(r["ok"] for r in rows) else EXIT_VIOLATION


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _at_least(name: str, low: int, cast=int, kind: str = "an integer"):
    """An argparse type for finite numbers >= low, refused in the option's words."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{name} must be {kind} >= {low}, got {text!r}")
        return value
    return parse


#: the solver's RNG takes nonnegative seeds; a spectrum has at least one value
_seed = _at_least("seed", 0)
_count = _at_least("count", 1)
#: a nan or negative tolerance fails every check, an infinite one passes them all
_tol = _at_least("tol", 0, float, "a finite number")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="paneitz-lab",
        description="fourth-order spectra of immersed manifolds and sharp "
                    "eigenvalue bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_command=True, tol=True):
        if spec_command:
            p.add_argument("--spec", required=True, help="manifold spec file (YAML)")
            p.add_argument("--count", type=_count, default=None,
                           help="override the spec's eigenvalue count (>= 1)")
            p.add_argument("--out", default=None, help="write a JSON report here")
        p.add_argument("--quiet", action="store_true",
                       help="suppress stdout summaries")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the spec's solver seed (>= 0)")
        if tol:
            p.add_argument("--tol", type=_tol, default=None,
                           help="override the default tolerance (finite, >= 0)")

    p = sub.add_parser("spectrum", help="low eigenvalues of the fourth-order operator")
    common(p, tol=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="evaluate eigenvalue bounds against the spectrum")
    common(p)
    p.add_argument("--bound", default="all",
                   help=f"one of {', '.join(BOUNDS)}, or 'all'")
    p.add_argument("--replay", action="store_true",
                   help="also replay the proof chain step by step")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="evaluate one bound across a parameter family")
    common(p, spec_command=False)
    p.add_argument("--family", required=True, help=" | ".join(_FAMILIES))
    p.add_argument("--range", required=True, help="start:stop[:samples]")
    p.add_argument("--bound", required=True, help="bound id to sweep")
    p.add_argument("--csv", required=True, help="output table path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="step-by-step replay of a proof chain")
    common(p)
    p.set_defaults(func=cmd_replay)

    return parser


def _attach_range(argv: list[str]) -> list[str]:
    """`--range -0.04:0.04:3` as `--range=-0.04:0.04:3`: argparse reads a
    separate value that starts with '-' as an option."""
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--range" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"--range={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_range(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"paneitz-lab: spec error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverFailureError as exc:
        print(f"paneitz-lab: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (PaneitzLabError, ValueError) as exc:
        print(f"paneitz-lab: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # a grid too large for this machine
        print(f"paneitz-lab: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # spec reads raise SpecFileError, so this is --out/--csv
        path = exc.filename or getattr(args, "csv", None) or getattr(args, "out", None)
        print(f"paneitz-lab: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
