"""The benchmark's workloads: seeded spec files, the CLI commands run on them,
and the checks on what the commands write.

`build(name, seed, directory)` writes the workload's spec files and returns
its commands.  The program receives only those files; every choice the seed
makes is in them.  Each command carries a check that reads the command's
outputs (and, for grid commands, the eigenpairs it computed) and raises
`CheckFailed` on any disagreement with `oracles`.  Checks run after a timed
pass, never inside it.

Why these workloads:

* curved -- perturbed 3-tori on 8^3.  The variable-coefficient operator and
  the eigensolvers do the work; each torus is solved on the auto route and
  with `solver: lanczos`, so a kernel change moves both routes and a solver
  change one.  The seed varies the mode's orientation, the perturbed
  coordinate, the amplitude within +-2% and the solver seed; the two mode
  families and their amplitudes stay fixed so that every seed costs about
  the same and converges (amplitude 0.1 already needs ~1,200 iterations).
* flat-replay -- the flat unit T^5 on 8^5 through `verify --replay`.  Flat
  bundles use the Fourier-symbol path, so geometry sampling, the Krylov
  basis and the numerical replay dominate; memory peaks here.  Written as a
  `fourier_immersion` with a zero-amplitude mode so that the spectrum and the
  bounds come from the grid, not from the closed form.  The seed is the
  solver seed.
* closed-form -- a batch of catalog specs through spectrum, verify, replay
  and sweep.  No grid: all the time is spec parsing, the catalog, the
  bounds, the analytic replay, the reports and the CLI itself.  The seed
  draws the radii and the sweep ranges.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (
    CheckFailed,
    bound_sides,
    expect,
    expect_close,
    flat_bilaplacian,
    flat_torus_values,
    product_values,
    sphere_values,
    torus_weights,
)

WORKLOADS = ("curved", "flat-replay", "closed-form")

#: dense and iterative routes must agree to this (tests/test_acceptance.py)
ROUTE_AGREEMENT = 1e-8
#: discrete flat spectra must sit on the lattice values to this
LATTICE_TOL = 1e-9
#: closed-form values and equality cases must hold to this (relative)
CLOSED_FORM_TOL = 1e-10
#: numerical replay slack floor
REPLAY_FLOOR_NUMERICAL = -1e-6
#: analytic replay slack floor
REPLAY_FLOOR_ANALYTIC = -1e-9
#: ||P u - lambda u||_w / max(1, |lambda|): the solvers' own acceptance limit
RESIDUAL_TOL = 1e-7
#: max |<u_i, u_j>_w - delta_ij| in weights the benchmark computes itself
ORTHONORMAL_TOL = 1e-9


@dataclass
class Outcome:
    """What one command left behind: its exit code and the eigensolves it ran."""

    code: int
    solves: list          # (CurvatureBundle, SpectrumResult) per eigensolve


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Outcome], None]


def build(name: str, seed: int, directory: Path) -> list[Command]:
    """Write the spec files of workload `name` for `seed` and return its commands."""
    directory = Path(directory)
    (directory / "specs").mkdir(parents=True, exist_ok=True)
    (directory / "results").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "curved":
        return _curved(rng, directory)
    if name == "flat-replay":
        return _flat_replay(rng, directory)
    if name == "closed-form":
        return _closed_form(rng, directory)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# spec files
# --------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _write(directory: Path, stem: str, text: str) -> str:
    path = directory / "specs" / f"{stem}.yaml"
    path.write_text(text)
    return str(path)


def _result(directory: Path, stem: str, suffix: str = "json") -> str:
    return str(directory / "results" / f"{stem}.{suffix}")


def sphere_spec(n: int, r: float, k: int, ambient: str = "euclidean") -> str:
    return (f"kind: sphere\ndim: {n}\nambient: {ambient}\n"
            f"params:\n  r: {_num(r)}\nk: {k}\n")


def product_spec(factors, k: int, ambient: str = "euclidean") -> str:
    rows = "".join(f"    - {{p: {p}, r: {_num(r)}}}\n" for p, r in factors)
    return (f"kind: sphere_product\ndim: {sum(p for p, _ in factors)}\n"
            f"ambient: {ambient}\nparams:\n  factors:\n{rows}k: {k}\n")


def flat_torus_spec(radii, k: int) -> str:
    return (f"kind: flat_torus\ndim: {len(radii)}\n"
            f"params:\n  radii: [{', '.join(map(_num, radii))}]\nk: {k}\n")


def immersion_spec(radii, modes, grid: int, k: int, seed: int,
                   solver: str | None = None) -> str:
    terms = "".join(f"  - {{k: {list(kv)}, amp: [{', '.join(map(_num, amp))}]}}\n"
                    for kv, amp in modes)
    text = (f"kind: fourier_immersion\ndim: {len(radii)}\n"
            f"params:\n  radii: [{', '.join(map(_num, radii))}]\n"
            f"fourier:\n{terms}grid: {grid}\nk: {k}\nseed: {seed}\n")
    if solver is not None:
        text += f"solver: {solver}\n"
    return text


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_spectrum_values(doc: dict, expected, tol: float, what: str,
                          relative: bool = True) -> None:
    values = doc["spectrum"]["values"]
    expect_close(values, expected, tol, f"{what} eigenvalues", relative=relative)
    counts = sum(m["count"] for m in doc["spectrum"]["multiplicities"])
    expect(counts == len(values), f"{what}: multiplicities cover {counts} of {len(values)}")


def check_eigenpairs(result, weights, apply_op, what: str) -> None:
    """Weighted orthonormality in the benchmark's weights and recomputed residuals."""
    funcs = result.eigenfunctions.reshape(len(result.eigenvalues), -1)
    w = np.asarray(weights).reshape(-1)
    gram = (funcs * w) @ funcs.T
    expect_close(gram, np.eye(len(funcs)), ORTHONORMAL_TOL,
                 f"{what} weighted Gram matrix", relative=False)
    for i, lam in enumerate(result.eigenvalues):
        u = result.eigenfunctions[i]
        resid = (apply_op(u) - lam * u).reshape(-1)
        norm = math.sqrt(float(np.sum(resid * resid * w)))
        expect(norm <= RESIDUAL_TOL * max(1.0, abs(lam)),
               f"{what}: residual of pair {i} is {norm:.3g}")


def check_bounds(doc: dict, factors, what: str, equal=None) -> None:
    """Every reported bound against its closed form; `equal` maps ids to equality values."""
    values = doc["spectrum"]["values"]
    reported = {rep["bound_id"] for rep in doc["bounds"]}
    expect(reported and set(equal or ()) <= reported, f"{what}: bounds reported {sorted(reported)}")
    for rep in doc["bounds"]:
        bid = rep["bound_id"]
        lhs, rhs = bound_sides(bid, factors, values)
        expect_close([rep["lhs"], rep["rhs"]], [lhs, rhs], CLOSED_FORM_TOL, f"{what} {bid}")
        expect(rep["ok"] and rep["slack"] >= -CLOSED_FORM_TOL * abs(rhs),
               f"{what}: {bid} reported violated")
        if equal and bid in equal:
            expect_close([rep["lhs"], rep["rhs"]], [equal[bid]] * 2, CLOSED_FORM_TOL,
                         f"{what} {bid} equality value")
            expect(rep["equality"], f"{what}: {bid} equality not recognised")


# --------------------------------------------------------------------------
# curved: perturbed 3-tori on 8^3, auto route and Lanczos
# --------------------------------------------------------------------------

CURVED_GRID = 8
CURVED_COUNT = 7
#: (mode family, base amplitude); families with their amplitudes fixed keep
#: every seed's iteration count near 1,100 per Lanczos solve
CURVED_TORI = (("planar", 0.08), ("diagonal", 0.05))


def _curved_mode(rng: random.Random, family: str, base: float):
    if family == "planar":            # a permutation of (1, +-1, 0)
        k = [1, rng.choice((1, -1)), 0]
        rng.shuffle(k)
    else:                             # (1, +-1, +-1)
        k = [1, rng.choice((1, -1)), rng.choice((1, -1))]
    axis = rng.choice([i for i in range(3) if k[i]])
    amp = [0.0] * 6
    amp[2 * axis + rng.randrange(2)] = base * rng.uniform(0.98, 1.02)
    return tuple(k), tuple(amp)


def _curved(rng: random.Random, directory: Path) -> list[Command]:
    commands = []
    for i, (family, base) in enumerate(CURVED_TORI):
        modes = [_curved_mode(rng, family, base)]
        commands += _curved_torus(directory, f"torus{i}", modes, rng.randrange(1, 2**31))
    return commands


def _curved_torus(directory: Path, name: str, modes, solver_seed: int) -> list[Command]:
    """spectrum on the auto route, then with solver: lanczos, on one perturbed torus."""
    from paneitzlab.discrete import PaneitzOperator

    radii = (1.0, 1.0, 1.0)
    weights = torus_weights(radii, modes, CURVED_GRID)
    outputs = {route: _result(directory, f"{name}-{route}") for route in ("auto", "lanczos")}
    commands = []
    for route, solver in (("auto", None), ("lanczos", "lanczos")):
        stem = f"{name}-{route}"
        spec = _write(directory, stem, immersion_spec(
            radii, modes, CURVED_GRID, CURVED_COUNT, solver_seed, solver=solver))

        def check(out: Outcome, route=route, stem=stem):
            expect(len(out.solves) == 1, f"{stem}: {len(out.solves)} eigensolves, expected 1")
            bundle, result = out.solves[0]
            expect_close(_load(outputs[route])["spectrum"]["values"], result.eigenvalues, 0.0,
                         f"{stem} reported values")
            penalty = result.penalty if result.penalty is not None else 0.0
            op = PaneitzOperator(bundle, bundle.coeffs, penalty)
            check_eigenpairs(result, weights, op.apply, stem)
            if route == "lanczos":
                auto = _load(outputs["auto"])["spectrum"]["values"]
                expect_close(result.eigenvalues, auto, ROUTE_AGREEMENT,
                             f"{stem} against the auto route", relative=False)

        commands.append(Command(
            ["spectrum", "--spec", spec, "--out", outputs[route], "--quiet"], check))
    return commands


# --------------------------------------------------------------------------
# flat-replay: the flat unit T^5 on 8^5, verify --replay
# --------------------------------------------------------------------------

FLAT_DIM = 5
FLAT_GRID = 8
FLAT_COUNT = 11


def _flat_replay(rng: random.Random, directory: Path) -> list[Command]:
    radii = (1.0,) * FLAT_DIM
    zero_mode = ((1, 1, 0, 0, 0), (0.0,) * (2 * FLAT_DIM))
    spec = _write(directory, "flat-t5", immersion_spec(
        radii, [zero_mode], FLAT_GRID, FLAT_COUNT, rng.randrange(1, 2**31),
        solver="lanczos"))
    out_path = _result(directory, "flat-t5")
    lattice = flat_torus_values(radii, FLAT_COUNT)
    weights = np.full((FLAT_GRID,) * FLAT_DIM, (2.0 * math.pi / FLAT_GRID) ** FLAT_DIM)

    def check(out: Outcome):
        doc = _load(out_path)
        check_spectrum_values(doc, lattice, LATTICE_TOL, "flat T^5", relative=False)
        (rep,) = doc["bounds"]
        expect(rep["bound_id"] == "thm_1_2", f"flat T^5: bound {rep['bound_id']}")
        expect_close(rep["lhs"], 5.0, 1e-8, "flat T^5 thm_1_2 lhs")
        expect_close(rep["rhs"], math.sqrt(52.5), CLOSED_FORM_TOL, "flat T^5 thm_1_2 rhs")
        replay = doc["replay"]
        expect(replay["ok"], "flat T^5: replay not ok")
        expect(not replay["flags"], f"flat T^5: replay flags {replay['flags']}")
        worst = min(s["slack"] for s in replay["steps"])
        expect(worst >= REPLAY_FLOOR_NUMERICAL, f"flat T^5: replay slack {worst:.3g}")
        expect(len(out.solves) == 1, f"flat T^5: {len(out.solves)} eigensolves, expected 1")
        _, result = out.solves[0]
        expect_close(doc["spectrum"]["values"], result.eigenvalues, 0.0,
                     "flat T^5 reported values")
        check_eigenpairs(result, weights, lambda u: flat_bilaplacian(u, radii), "flat T^5")

    return [Command(["verify", "--spec", spec, "--replay", "--out", out_path, "--quiet"],
                    check)]


# --------------------------------------------------------------------------
# closed-form: catalog specs through spectrum, verify, replay and sweep
# --------------------------------------------------------------------------

#: equality values of the sharp bounds (PAPER.md, README "Bounds")
S4_THM_1_1 = 8.0 * math.sqrt(6.0)
S4_CHENLI_L1 = 24.0
S5_THM_1_2 = 5.0 * math.sqrt(52.5)
CLIFFORD_COR_1_1 = 32.0 / math.sqrt(3.0)


class _Batch:
    """Accumulates closed-form commands; each gets a unique output file."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.commands: list[Command] = []

    def add(self, command: str, stem: str, spec_text: str, check, *extra) -> str:
        spec = _write(self.directory, stem, spec_text)
        out = _result(self.directory, f"{stem}-{command}")
        argv = [command, "--spec", spec, *extra, "--out", out, "--quiet"]
        self.commands.append(Command(argv, lambda _o: check(_load(out))))
        return out

    def sweep(self, family: str, bound: str, lo: float, hi: float, samples: int, check):
        out = _result(self.directory, f"sweep-{family}-{bound}", "csv")
        argv = ["sweep", "--family", family, "--bound", bound,
                "--range", f"{_num(lo)}:{_num(hi)}:{samples}", "--csv", out, "--quiet"]

        def read(_o):
            with open(out, newline="") as fh:
                check(list(csv.DictReader(fh)))

        self.commands.append(Command(argv, read))


def _sphere_checks(n: int, r: float, count: int, equal=None):
    factors = ((n, r),)
    values = sphere_values(n, r, count)
    what = f"S^{n}({r:.6g})"

    def spectrum(doc):
        check_spectrum_values(doc, values, CLOSED_FORM_TOL, what)

    def verify(doc):
        check_spectrum_values(doc, values, CLOSED_FORM_TOL, what)
        check_bounds(doc, factors, what, equal)

    return spectrum, verify


def _replay_check(n: int, r: float):
    what = f"S^{n}({r:.6g}) replay"
    lam = sphere_values(n, r, 2)      # the constant weight, then the first harmonics
    final = n * math.sqrt(lam[1] - lam[0])

    def check(doc):
        rep = doc["replay"]
        expect(rep["ok"] and not rep["flags"], f"{what}: ok={rep['ok']} flags={rep['flags']}")
        worst = min(s["slack"] for s in rep["steps"])
        expect(worst >= REPLAY_FLOOR_ANALYTIC, f"{what}: slack {worst:.3g}")
        expect_close([rep["final_lhs"], rep["final_rhs"]], [final, final],
                     CLOSED_FORM_TOL, f"{what} final bound")

    return check


def _same_relative_slack(first: str, what: str):
    """Relative slack is scale invariant: compare two verify reports."""
    def check(doc):
        base = {b["bound_id"]: b["relative_slack"] for b in _load(first)["bounds"]}
        scaled = {b["bound_id"]: b["relative_slack"] for b in doc["bounds"]}
        expect(base.keys() == scaled.keys(), f"{what}: bounds {sorted(base)} vs {sorted(scaled)}")
        for bid in base:
            expect_close(scaled[bid], base[bid], CLOSED_FORM_TOL,
                         f"{what} {bid} relative slack under r -> 2r", relative=False)
    return check


def _both(*checks):
    def check(doc):
        for c in checks:
            c(doc)
    return check


def _catalog_text(stem: str, factors, ambient: str, count: int) -> str:
    if stem.startswith("t"):
        return flat_torus_spec([r for _, r in factors], count)
    return product_spec(factors, count, ambient)


def _catalog_case(batch: _Batch, stem: str, factors, ambient: str, count: int) -> None:
    """spectrum and verify on a product or flat torus; for euclidean ones verify again at 2r."""
    def expected(fac):
        if stem.startswith("t"):
            return flat_torus_values([r for _, r in fac], count)
        return product_values(fac, count)

    def verify(fac, what):
        values = expected(fac)

        def check(doc):
            check_spectrum_values(doc, values, CLOSED_FORM_TOL, what)
            check_bounds(doc, fac, what)
        return check

    values = expected(factors)
    batch.add("spectrum", stem, _catalog_text(stem, factors, ambient, count),
              lambda doc: check_spectrum_values(doc, values, CLOSED_FORM_TOL, stem))
    first = batch.add("verify", stem, _catalog_text(stem, factors, ambient, count),
                      verify(factors, stem))
    if ambient == "euclidean":
        scaled = tuple((p, 2.0 * r) for p, r in factors)
        batch.add("verify", f"{stem}-2r", _catalog_text(stem, scaled, ambient, count),
                  _both(verify(scaled, f"{stem} at 2r"), _same_relative_slack(first, stem)))


def _closed_form(rng: random.Random, directory: Path) -> list[Command]:
    batch = _Batch(directory)

    # equality cases at unit size, with their values fixed in advance
    _, verify4 = _sphere_checks(4, 1.0, 10, {"thm_1_1": S4_THM_1_1,
                                             "chenli_l1": S4_CHENLI_L1})
    batch.add("verify", "s4-unit", sphere_spec(4, 1.0, 10), verify4)
    batch.add("replay", "s4-unit", sphere_spec(4, 1.0, 10), _replay_check(4, 1.0))
    _, verify5 = _sphere_checks(5, 1.0, 12, {"thm_1_2": S5_THM_1_2})
    batch.add("verify", "s5-unit", sphere_spec(5, 1.0, 12), verify5)
    spec3, _ = _sphere_checks(3, 1.0, 5)
    batch.add("spectrum", "s3-unit", sphere_spec(3, 1.0, 5),
              _both(spec3, lambda doc: expect_close(doc["spectrum"]["values"][0], -15.0 / 16.0,
                                                    CLOSED_FORM_TOL, "S^3(1) lambda_0")))
    half = math.sqrt(0.5)
    clifford = ((2, half), (2, half))

    def clifford_check(doc):
        check_spectrum_values(doc, product_values(clifford, 10), CLOSED_FORM_TOL, "Clifford")
        check_bounds(doc, clifford, "minimal S^2xS^2", {"cor_1_1": CLIFFORD_COR_1_1})

    batch.add("verify", "clifford-minimal", product_spec(clifford, 10, "unit_sphere"),
              clifford_check)

    # round spheres n = 3..8 at a seeded radius, and the verify reports again at 2r
    r = rng.uniform(0.7, 1.4)
    for n in range(3, 9):
        count = n + 4
        stem = f"s{n}"
        spectrum, verify = _sphere_checks(n, r, count)
        batch.add("spectrum", stem, sphere_spec(n, r, count), spectrum)
        if n < 4:
            continue                  # no bound and no proof chain apply to n = 3
        first = batch.add("verify", stem, sphere_spec(n, r, count), verify)
        batch.add("replay", stem, sphere_spec(n, r, count), _replay_check(n, r))
        _, verify2 = _sphere_checks(n, 2 * r, count)
        batch.add("verify", f"{stem}-2r", sphere_spec(n, 2 * r, count),
                  _both(verify2, _same_relative_slack(first, f"S^{n}")))

    # sphere products and flat tori, strict cases, at seeded radii and at 2r
    t = rng.uniform(0.3, 0.45)
    cases = [
        ("s2xs2", ((2, rng.uniform(0.7, 1.4)), (2, rng.uniform(0.7, 1.4))), "euclidean"),
        ("s1xs3", ((1, rng.uniform(0.7, 1.4)), (3, rng.uniform(0.7, 1.4))), "euclidean"),
        ("clifford", ((2, math.sqrt(t)), (2, math.sqrt(1.0 - t))), "unit_sphere"),
        ("t4", tuple((1, rng.uniform(0.8, 1.25)) for _ in range(4)), "euclidean"),
        ("t5", tuple((1, rng.uniform(0.8, 1.25)) for _ in range(5)), "euclidean"),
    ]
    for stem, factors, ambient in cases:
        _catalog_case(batch, stem, factors, ambient, count=12)

    # sweeps: scale covariance along round spheres, equality in the Clifford family
    lo = rng.uniform(0.5, 0.9)
    for bound, n in (("thm_1_1", 4), ("thm_1_2", 5)):
        def sweep_sphere(rows, bound=bound, n=n):
            expect(len(rows) == 9, f"sweep {bound}: {len(rows)} rows")
            for row in rows:
                rad = float(row["param"])
                values = sphere_values(n, rad, n + 3)
                lhs, rhs = bound_sides(bound, ((n, rad),), values)
                what = f"sweep {bound} at r = {rad:.6g}"
                expect_close([float(row["lhs"]), float(row["rhs"])], [lhs, rhs],
                             CLOSED_FORM_TOL, what)
                expect_close(float(row["relative_slack"]), 0.0, CLOSED_FORM_TOL, what,
                             relative=False)
                expect(row["equality"] == "true", f"{what}: equality not recognised")
        batch.sweep("sphere_radius", bound, lo, 2.0 * lo, 9, sweep_sphere)

    edge = rng.uniform(0.2, 0.35)

    def sweep_clifford(rows):
        expect(len(rows) == 13, f"clifford sweep: {len(rows)} rows")
        for row in rows:
            t = float(row["param"])
            factors = ((2, math.sqrt(t)), (2, math.sqrt(1.0 - t)))
            values = product_values(factors, 9)
            lhs, rhs = bound_sides("cor_1_1", factors, values)
            what = f"clifford sweep at t = {t:.6g}"
            expect_close([float(row["lhs"]), float(row["rhs"])], [lhs, rhs],
                         CLOSED_FORM_TOL, what)
            expect_close([float(row[f"lambda_{j}"]) for j in range(1, 6)], values[1:6],
                         CLOSED_FORM_TOL, f"{what} eigenvalues")
            tight = abs(t - 0.5) <= 1e-9
            expect((row["equality"] == "true") == tight,
                   f"{what}: equality flag {row['equality']}")
            if tight:
                expect_close(lhs, CLIFFORD_COR_1_1, CLOSED_FORM_TOL, what)

    batch.sweep("clifford_ratio", "cor_1_1", edge, 1.0 - edge, 13, sweep_clifford)
    return batch.commands
