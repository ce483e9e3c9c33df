"""Manifold specification files: a small YAML schema with strict validation.

Experiment inputs live in reviewable text files rather than command lines.
The schema is deliberately rigid -- unknown keys are rejected, every error
carries the 1-based line/column of the offending node -- so a typo'd key
fails loudly instead of silently falling back to a default.

Top-level keys::

    kind:    sphere | sphere_product | flat_torus | fourier_immersion
    dim:     intrinsic dimension n
    ambient: euclidean | unit_sphere          (default euclidean)
    params:  kind-specific geometry, see below
    fourier: list of {k, amp, trig} extra modes  (fourier_immersion only)
    grid:    points per axis, int or list     (gridable kinds only)
    solver:  dense | lanczos (runs LOBPCG)    (default: auto by size)
    k:       eigenvalue count                 (default 8)
    seed:    RNG seed for the iterative solver

params by kind: ``sphere`` takes ``r``; ``sphere_product`` takes ``factors``,
a list of ``{p, r}``; ``flat_torus`` and ``fourier_immersion`` take
``radii``.  A ``fourier`` entry adds ``amp[j] * trig(k . x)`` to ambient
coordinate j on top of the block torus; ``trig`` is ``cos`` (default) or
``sin``, and ``amp`` must have one entry per ambient coordinate (2 dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .bounds import SPHERE_DEVIATION_TOL
from .catalog import ModelManifold, flat_torus, round_sphere, sphere_product
from .errors import SpecFileError
from .fourier import FourierImmersion, FourierTerm, TorusGrid, clifford_torus

KINDS = ("sphere", "sphere_product", "flat_torus", "fourier_immersion")
AMBIENTS = ("euclidean", "unit_sphere")
SOLVERS = ("dense", "lanczos")
DEFAULT_COUNT = 8
DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class SpecModeTerm:
    """One extra Fourier mode of a perturbed torus immersion."""

    k: tuple[int, ...]
    amp: tuple[float, ...]
    trig: str = "cos"


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    dim: int
    ambient: str = "euclidean"
    r: float | None = None
    radii: tuple[float, ...] | None = None
    factors: tuple[tuple[int, float], ...] | None = None
    fourier: tuple[SpecModeTerm, ...] = ()
    grid: tuple[int, ...] | None = None
    solver: str | None = None
    k: int = DEFAULT_COUNT
    seed: int = DEFAULT_SEED
    source: str = "<memory>"
    text: str = field(default="", repr=False)

    @property
    def analytic(self) -> bool:
        """True when closed-form spectra exist (everything but perturbed tori)."""
        return self.kind != "fourier_immersion"

    @property
    def gridable(self) -> bool:
        return self.kind in ("flat_torus", "fourier_immersion")

    def to_model(self) -> ModelManifold:
        if self.kind == "sphere":
            return round_sphere(self.dim, self.r, ambient=self.ambient)
        if self.kind == "sphere_product":
            return sphere_product(self.factors, ambient=self.ambient)
        if self.kind == "flat_torus":
            return flat_torus(self.radii, ambient=self.ambient)
        raise ValueError(f"{self.kind} has no closed-form model")

    def to_immersion(self) -> FourierImmersion:
        if not self.gridable:
            raise ValueError(f"{self.kind} is not realized as a torus immersion")
        base = clifford_torus(self.radii)
        extra = []
        for t in self.fourier:
            zero = (0.0,) * len(t.amp)
            if t.trig == "cos":
                extra.append(FourierTerm(k=t.k, cos=t.amp, sin=zero))
            else:
                extra.append(FourierTerm(k=t.k, cos=zero, sin=t.amp))
        return base.perturbed(extra) if extra else base

    def to_grid(self) -> TorusGrid:
        if self.grid is None:
            raise ValueError("spec has no grid")
        return TorusGrid(self.grid)


# --------------------------------------------------------------------------
# node-level parsing: yaml.compose keeps source marks, plain safe_load drops
# them and unknown-key errors would lose their positions
# --------------------------------------------------------------------------

def _err(node, msg: str) -> SpecFileError:
    mark = node.start_mark
    return SpecFileError(msg, line=mark.line + 1, column=mark.column + 1)


def _mapping(node, what: str) -> list:
    if not isinstance(node, yaml.MappingNode):
        raise _err(node, f"{what} must be a mapping")
    return node.value


def _sequence(node, what: str) -> list:
    if not isinstance(node, yaml.SequenceNode):
        raise _err(node, f"{what} must be a list")
    return node.value


def _keyed(node, what: str, allowed: tuple[str, ...]) -> dict:
    out = {}
    for key_node, value_node in _mapping(node, what):
        key = key_node.value
        if key not in allowed:
            raise _err(key_node, f"unknown key {key!r} in {what}; allowed: {', '.join(allowed)}")
        if key in out:
            raise _err(key_node, f"duplicate key {key!r} in {what}")
        out[key] = value_node
    return out


def _scalar(node, what: str) -> str:
    if not isinstance(node, yaml.ScalarNode):
        raise _err(node, f"{what} must be a scalar")
    return node.value


def _int(node, what: str) -> int:
    raw = _scalar(node, what)
    try:
        return int(raw, 0)      # base 0 admits plain and 0x literals alike
    except ValueError:
        raise _err(node, f"{what} must be an integer, got {raw!r}") from None


def _float(node, what: str) -> float:
    raw = _scalar(node, what)
    try:
        return float(raw)
    except ValueError:
        raise _err(node, f"{what} must be a number, got {raw!r}") from None


def _choice(node, what: str, allowed: tuple[str, ...]) -> str:
    raw = _scalar(node, what)
    if raw not in allowed:
        raise _err(node, f"{what} must be one of {', '.join(allowed)}, got {raw!r}")
    return raw


def _int_list(node, what: str) -> tuple[int, ...]:
    return tuple(_int(item, f"{what} entry") for item in _sequence(node, what))


def _float_list(node, what: str) -> tuple[float, ...]:
    return tuple(_float(item, f"{what} entry") for item in _sequence(node, what))


_TOP_KEYS = ("kind", "dim", "ambient", "params", "fourier", "grid", "solver", "k", "seed")


def parse_manifold_spec(text: str, source: str = "<string>") -> ManifoldSpec:
    try:
        root = yaml.compose(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise SpecFileError(
            f"not valid YAML: {exc.problem}",
            line=(mark.line + 1) if mark else 0,
            column=(mark.column + 1) if mark else 0) from None
    if root is None:
        raise SpecFileError("empty spec file", line=1, column=1)

    top = _keyed(root, "spec", _TOP_KEYS)
    for required in ("kind", "dim", "params"):
        if required not in top:
            raise _err(root, f"missing required key {required!r}")

    kind = _choice(top["kind"], "kind", KINDS)
    dim = _int(top["dim"], "dim")
    if dim < 2:
        raise _err(top["dim"], f"dim must be >= 2, got {dim}")
    ambient = _choice(top["ambient"], "ambient", AMBIENTS) if "ambient" in top else "euclidean"

    r = radii = factors = None
    if kind == "sphere":
        params = _keyed(top["params"], "params", ("r",))
        if "r" not in params:
            raise _err(top["params"], "sphere params need a radius key 'r'")
        r = _float(params["r"], "r")
        if r <= 0:
            raise _err(params["r"], f"radius must be positive, got {r}")
    elif kind == "sphere_product":
        params = _keyed(top["params"], "params", ("factors",))
        if "factors" not in params:
            raise _err(top["params"], "sphere_product params need a 'factors' list")
        facs = []
        for item in _sequence(params["factors"], "factors"):
            entry = _keyed(item, "factor", ("p", "r"))
            if "p" not in entry or "r" not in entry:
                raise _err(item, "each factor needs both 'p' and 'r'")
            p = _int(entry["p"], "p")
            rad = _float(entry["r"], "r")
            if p < 1:
                raise _err(entry["p"], f"factor dimension must be >= 1, got {p}")
            if rad <= 0:
                raise _err(entry["r"], f"factor radius must be positive, got {rad}")
            facs.append((p, rad))
        factors = tuple(facs)
        total = sum(p for p, _ in factors)
        if total != dim:
            raise _err(top["dim"], f"dim = {dim} but factors sum to {total}")
    else:  # flat_torus, fourier_immersion
        params = _keyed(top["params"], "params", ("radii",))
        if "radii" not in params:
            raise _err(top["params"], f"{kind} params need a 'radii' list")
        radii = _float_list(params["radii"], "radii")
        if len(radii) != dim:
            raise _err(params["radii"], f"dim = {dim} but {len(radii)} radii given")
        if any(rad <= 0 for rad in radii):
            raise _err(params["radii"], "radii must all be positive")

    fourier: list[SpecModeTerm] = []
    if "fourier" in top:
        if kind != "fourier_immersion":
            raise _err(top["fourier"], "fourier modes only apply to kind fourier_immersion")
        for item in _sequence(top["fourier"], "fourier"):
            entry = _keyed(item, "fourier term", ("k", "amp", "trig"))
            if "k" not in entry or "amp" not in entry:
                raise _err(item, "each fourier term needs 'k' and 'amp'")
            kvec = _int_list(entry["k"], "k")
            amp = _float_list(entry["amp"], "amp")
            trig = _choice(entry["trig"], "trig", ("cos", "sin")) if "trig" in entry else "cos"
            if len(kvec) != dim:
                raise _err(entry["k"], f"wavevector length {len(kvec)} != dim {dim}")
            if len(amp) != 2 * dim:
                raise _err(entry["amp"],
                           f"amp length {len(amp)} != ambient dimension {2 * dim}")
            fourier.append(SpecModeTerm(k=kvec, amp=amp, trig=trig))
    elif kind == "fourier_immersion":
        raise _err(root, "fourier_immersion needs a 'fourier' list (may perturb by zero)")

    grid = None
    if "grid" in top:
        if kind in ("sphere", "sphere_product"):
            raise _err(top["grid"], f"{kind} spectra are closed-form; grid does not apply")
        node = top["grid"]
        if isinstance(node, yaml.SequenceNode):
            grid = _int_list(node, "grid")
            if len(grid) != dim:
                raise _err(node, f"grid has {len(grid)} axes, dim is {dim}")
        else:
            grid = (_int(node, "grid"),) * dim
        if any(g < 8 for g in grid):
            raise _err(node, f"grid sizes must be >= 8 per axis, got {grid}")
    elif kind == "fourier_immersion":
        raise _err(root, "fourier_immersion needs a 'grid' (no closed form exists)")

    solver = _choice(top["solver"], "solver", SOLVERS) if "solver" in top else None
    count = _int(top["k"], "k") if "k" in top else DEFAULT_COUNT
    if count < 1:
        raise _err(top["k"], f"k must be >= 1, got {count}")
    seed = _int(top["seed"], "seed") if "seed" in top else DEFAULT_SEED

    spec = ManifoldSpec(kind=kind, dim=dim, ambient=ambient, r=r, radii=radii,
                        factors=factors, fourier=tuple(fourier), grid=grid,
                        solver=solver, k=count, seed=seed, source=source, text=text)
    _cross_validate(spec, root, top.get("ambient"))
    return spec


def _cross_validate(spec: ManifoldSpec, root, ambient_node) -> None:
    """Geometry-level checks routed through the catalog constructors; an
    immersion declared in the unit sphere must lie on it at every grid point."""
    try:
        geometry = spec.to_model() if spec.analytic else spec.to_immersion()
    except ValueError as exc:
        raise _err(root, str(exc)) from None
    if spec.ambient == "unit_sphere" and not spec.analytic:
        dev = geometry.sphere_deviation(spec.to_grid())
        if dev > SPHERE_DEVIATION_TOL:
            raise _err(ambient_node,
                       f"ambient unit_sphere declared, but the immersion leaves the unit "
                       f"sphere: max | |y|^2 - 1 | = {dev:.3g} on the grid "
                       f"(tolerance {SPHERE_DEVIATION_TOL:g})")


def load_manifold_spec(path) -> ManifoldSpec:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read {p}: {exc.strerror}") from None
    return parse_manifold_spec(text, source=str(p))
