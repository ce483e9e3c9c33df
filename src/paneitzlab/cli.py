"""Command-line entry points: spectrum, verify, sweep, replay.

Exit codes are part of the contract: 0 success, 1 a bound was violated
beyond tolerance (a finding, not a crash), 2 invalid input, a
dimension/ambient/positivity gate or a grid too large for memory, 3 solver
failure.  Human-readable summaries go to stdout (silenced by --quiet),
machine artifacts go to the paths given by --out/--csv, and error
diagnostics go to stderr.

``PANEITZ_LAB_THREADS`` caps how many sweep samples run concurrently.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bounds import (
    BOUNDS,
    U1Data,
    diagnose_equality,
    evaluate,
    snap_kernel,
    summarize_bundle,
    summarize_model,
    u1_from_result,
)
from .catalog import (
    expand_lines,
    first_eigenfunction_info,
    paneitz_spectrum,
    round_sphere,
    sphere_product,
)
from .coefficients import paneitz_coefficients
from .discrete import build_bundle
from .eigensolve import spectrum as solve_spectrum
from .errors import (
    GateError,
    InvalidDimensionError,
    PaneitzLabError,
    PositivityError,
    SolverFailureError,
    SpecFileError,
)
from .fourier import FourierTerm, TorusGrid, clifford_torus
from .replay import (
    REPLAY_TOL_ANALYTIC,
    REPLAY_TOL_NUMERICAL,
    replay_proof,
    replay_proof_analytic,
    replay_theorem,
)
from .report import (
    bound_block,
    build_report,
    constants_block,
    diagnosis_block,
    dump_report,
    replay_block,
    spectrum_block,
    sweep_csv,
)
from .specfile import ManifoldSpec, load_manifold_spec

EXIT_OK, EXIT_VIOLATION, EXIT_INVALID, EXIT_SOLVER = 0, 1, 2, 3


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _thread_cap() -> int:
    raw = os.environ.get("PANEITZ_LAB_THREADS")
    if raw is None:
        return max(1, min(4, os.cpu_count() or 1))
    try:
        cap = int(raw)
    except ValueError:
        print(f"paneitz-lab: ignoring non-integer PANEITZ_LAB_THREADS={raw!r}",
              file=sys.stderr)
        return 1
    return max(1, cap)


# --------------------------------------------------------------------------
# shared evaluation helpers
# --------------------------------------------------------------------------

def _analytic_spectrum_block(model, count: int) -> tuple[list, dict]:
    form = paneitz_spectrum(model, count)
    values = list(expand_lines(form.lines, count))
    mult, left = [], count
    for line in form.lines:
        if left <= 0:
            break
        take = min(line.multiplicity, left)
        mult.append({"value": line.value, "count": take})
        left -= take
    block = {"values": values, "multiplicities": mult,
             "residuals": [0.0] * count, "method": "closed_form"}
    return values, block


def _numerical_solution(spec: ManifoldSpec, count: int, seed: int, timings: dict):
    """(bundle, result) of the grid spectrum; timings["bundle"] gets the seconds
    spent sampling the bundle."""
    imm = spec.to_immersion()
    grid = spec.to_grid()
    coeffs = paneitz_coefficients(spec.dim)
    tick = time.perf_counter()
    bundle = build_bundle(imm, grid)
    timings["bundle"] = time.perf_counter() - tick
    result = solve_spectrum(imm, grid, coeffs, count, bundle=bundle,
                            solver=spec.solver, seed=seed)
    return bundle, result


def _analytic_u1(model) -> U1Data:
    info = first_eigenfunction_info(model)
    flags = ("first_eigenvalue_multiple",) if info.multiplicity > 1 else ()
    return U1Data(u1_sq=None, grad_energy=info.grad_energy,
                  multiple=info.multiplicity > 1, flags=flags)


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

def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    spec = load_manifold_spec(args.spec)
    count = args.count if args.count is not None else spec.k
    seed = args.seed if args.seed is not None else spec.seed
    timings = {}
    if spec.analytic:
        model = spec.to_model()
        tick = time.perf_counter()
        values, block = _analytic_spectrum_block(model, count)
        timings["solve"] = time.perf_counter() - tick
        constants = constants_block(summarize_model(model))
        label = model.describe()
    else:
        tick = time.perf_counter()
        bundle, result = _numerical_solution(spec, count, seed, timings)
        timings["solve"] = time.perf_counter() - tick
        block = spectrum_block(result)
        geo = summarize_bundle(bundle)
        constants = constants_block(geo)
        label = geo.label
    timings["total"] = time.perf_counter() - t0

    _say(args, f"spectrum of {label} ({block['method']})")
    for entry in block["multiplicities"]:
        _say(args, f"  lambda = {entry['value']:.12g}  (x{entry['count']})")
    if args.out:
        doc = build_report(command="spectrum", spec_text=spec.text,
                           source=spec.source, timings=timings,
                           spectrum=block, constants=constants)
        dump_report(doc, args.out)
        _say(args, f"report written to {args.out}")
    return EXIT_OK


def _verify_inputs(spec: ManifoldSpec, count: int, seed: int, timings: dict):
    """(values, geo, u1, bundle, result, spectrum_block) for either route; a grid
    route records its bundle time in timings."""
    want_u1 = any(rule.needs_u1 and rule.applies(spec.dim) for rule in BOUNDS.values())
    if spec.analytic:
        model = spec.to_model()
        values, block = _analytic_spectrum_block(model, count)
        geo = summarize_model(model)
        u1 = _analytic_u1(model) if want_u1 else None
        return values, geo, u1, None, None, block
    bundle, result = _numerical_solution(spec, count, seed, timings)
    geo = summarize_bundle(bundle)
    u1 = u1_from_result(bundle, result) if want_u1 else None
    return result.eigenvalues, geo, u1, bundle, result, spectrum_block(result)


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    spec = load_manifold_spec(args.spec)
    n = spec.dim
    count = max(args.count if args.count is not None else spec.k, n + 2)
    seed = args.seed if args.seed is not None else spec.seed
    timings = {}

    tick = time.perf_counter()
    values, geo, u1, bundle, result, spec_block = _verify_inputs(spec, count, seed, timings)
    timings["spectrum"] = time.perf_counter() - tick

    tick = time.perf_counter()
    reports, refusals = _run_bounds(args.bound, values, geo, u1, args.tol)
    diagnosis = diagnose_equality(geo)
    timings["bounds"] = time.perf_counter() - tick

    replay_rep = None
    if args.replay:
        tick = time.perf_counter()
        replay_rep = _run_replay(spec, count, seed, args.tol, bundle, result)
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

    if args.out:
        sections = {
            "spectrum": spec_block,
            "constants": constants_block(geo),
            "bounds": [bound_block(r) for r in reports],
            "equality_diagnosis": diagnosis_block(diagnosis),
        }
        if refusals:
            sections["refusals"] = refusals
        if replay_rep is not None:
            sections["replay"] = replay_block(replay_rep)
        doc = build_report(command="verify", spec_text=spec.text,
                           source=spec.source, timings=timings, **sections)
        dump_report(doc, args.out)
        _say(args, f"report written to {args.out}")

    ok = all(r.ok for r in reports) and (replay_rep is None or replay_rep.ok)
    return EXIT_OK if ok else EXIT_VIOLATION


def _run_replay(spec: ManifoldSpec, count: int, seed: int, tol: float | None,
                bundle=None, result=None):
    theorem = replay_theorem(spec.dim)
    if spec.kind == "sphere":
        return replay_proof_analytic(theorem, spec.to_model(),
                                     tol=tol if tol is not None else REPLAY_TOL_ANALYTIC)
    if not spec.gridable:
        raise GateError("replay needs a round sphere (closed form) or a "
                        "gridable torus immersion")
    if spec.grid is None:
        raise GateError("numerical replay needs a 'grid' entry in the spec")
    if bundle is None or result is None:
        bundle, result = _numerical_solution(spec, count, seed, {})
    return replay_proof(theorem, result, bundle,
                        tol=tol if tol is not None else REPLAY_TOL_NUMERICAL)


def cmd_replay(args) -> int:
    t0 = time.perf_counter()
    spec = load_manifold_spec(args.spec)
    n = spec.dim
    count = max(args.count if args.count is not None else spec.k, n + 2)
    seed = args.seed if args.seed is not None else spec.seed
    rep = _run_replay(spec, count, seed, args.tol)
    timings = {"total": time.perf_counter() - t0}

    _say(args, f"replay {rep.theorem_id} [{rep.route}] {rep.label}")
    for s in rep.steps:
        _say(args, f"  {s.name:28s} {s.kind:10s} slack={s.slack:+.3e}")
    _say(args, f"  delta* = {rep.delta:.12g}")
    _say(args, f"  final: {rep.final_lhs:.12g} <= {rep.final_rhs:.12g} "
               f"(worst slack {rep.worst_slack:+.3e})")
    if args.out:
        doc = build_report(command="replay", spec_text=spec.text,
                           source=spec.source, timings=timings,
                           replay=replay_block(rep))
        dump_report(doc, args.out)
        _say(args, f"report written to {args.out}")
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


def _sweep_sphere_radius(param: float, bound: str, tol):
    rule = BOUNDS[bound]
    n = rule.lowest_dim
    model = round_sphere(n, float(param))
    values, _ = _analytic_spectrum_block(model, n + 3)
    geo = summarize_model(model)
    u1 = _analytic_u1(model) if rule.needs_u1 else None
    return evaluate(bound, values, geo, u1, tol), values, n


def _sweep_clifford_ratio(param: float, bound: str, tol):
    if not (0.0 < param < 1.0):
        raise GateError(f"clifford_ratio parameter is r1^2, needs (0,1); got {param}")
    r1 = math.sqrt(param)
    r2 = math.sqrt(1.0 - param)
    model = sphere_product(((2, r1), (2, r2)), ambient="unit_sphere")
    values, _ = _analytic_spectrum_block(model, 8)
    geo = summarize_model(model)
    return evaluate(bound, values, geo, None, tol), values, 4


def _sweep_fourier_perturbation(param: float, bound: str, tol, seed: int):
    rule = BOUNDS[bound]
    n = rule.lowest_dim
    base = clifford_torus((1.0,) * n)
    mode = FourierTerm(k=(1, 1) + (0,) * (n - 2),
                       cos=(float(param),) + (0.0,) * (2 * n - 1),
                       sin=(0.0,) * (2 * n))
    imm = base.perturbed([mode])
    grid = TorusGrid((8,) * n)
    bundle = build_bundle(imm, grid)
    result = solve_spectrum(imm, grid, paneitz_coefficients(n), n + 3,
                            bundle=bundle, solver="lanczos", seed=seed)
    geo = summarize_bundle(bundle)
    u1 = u1_from_result(bundle, result) if rule.needs_u1 else None
    return evaluate(bound, result.eigenvalues, geo, u1, tol), result.eigenvalues, n


#: sweep family -> (its dimension, None for any; whether it lies in the unit
#: sphere).  A family sweeps the bounds that apply there, each at the lowest
#: dimension the bound covers.
_FAMILIES = {
    "sphere_radius": (None, False),
    "clifford_ratio": (4, True),
    # n = 4 only: curved 8^5 grids push each sample past desk scale
    "fourier_perturbation": (4, False),
}


def _family_bounds(family: str) -> list[str]:
    dim, unit_sphere = _FAMILIES[family]
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
    seed = args.seed if args.seed is not None else 0x5EED

    def one(p: float):
        if family == "sphere_radius":
            rep, values, n = _sweep_sphere_radius(p, bound, args.tol)
        elif family == "clifford_ratio":
            rep, values, n = _sweep_clifford_ratio(p, bound, args.tol)
        else:
            rep, values, n = _sweep_fourier_perturbation(p, bound, args.tol, seed)
        return {"param": float(p), "lhs": rep.lhs, "rhs": rep.rhs,
                "slack": rep.slack, "relative_slack": rep.relative_slack,
                "equality": rep.equality, "ok": rep.ok,
                "eigenvalues": _eigen_row(values, n), "n": n}

    workers = min(_thread_cap(), len(params))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, params))
    else:
        rows = [one(p) for p in params]

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

def _seed(text: str) -> int:
    """A --seed value: the solver's RNG takes nonnegative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="paneitz-lab",
        description="fourth-order spectra of immersed manifolds and sharp "
                    "eigenvalue bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="manifold spec file (YAML)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress stdout summaries")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the spec's solver seed (>= 0)")
        p.add_argument("--count", type=int, default=None,
                       help="override the spec's eigenvalue count")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance")
        p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser("spectrum", help="low eigenvalues of the fourth-order operator")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="evaluate eigenvalue bounds against the spectrum")
    common(p)
    p.add_argument("--bound", default="all",
                   help=f"one of {', '.join(BOUNDS)}, or 'all'")
    p.add_argument("--replay", action="store_true",
                   help="also replay the proof chain step by step")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="evaluate one bound across a parameter family")
    common(p, spec_required=False)
    p.add_argument("--family", required=True, help=" | ".join(_FAMILIES))
    p.add_argument("--range", required=True, help="start:stop[:samples]")
    p.add_argument("--bound", required=True, help="bound id to sweep")
    p.add_argument("--csv", required=True, help="output table path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="step-by-step replay of a proof chain")
    common(p)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
        path = exc.filename or getattr(args, "csv", None) or args.out
        print(f"paneitz-lab: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
