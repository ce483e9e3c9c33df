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
    grid:    points per axis, int or list     (torus kinds only)
    solver:  lanczos (runs LOBPCG) | dense    (with a grid; default lanczos)
    k:       eigenvalue count                 (default 8)
    seed:    RNG seed for the iterative solver, >= 0

params by kind: ``sphere`` takes ``r``; ``sphere_product`` takes ``factors``,
a list of ``{p, r}``; ``flat_torus`` and ``fourier_immersion`` take
``radii``.  A ``fourier`` entry adds ``amp[j] * trig(k . x)`` to ambient
coordinate j on top of the block torus; ``trig`` is ``cos`` (default) or
``sin``, and ``amp`` must have one entry per ambient coordinate (2 dim).
Each wavevector needs |k_i| < m_i / 2 on every grid axis of m_i points, and
every number must be finite.

A parsed `ManifoldSpec` holds the geometry it declares, built once by the
catalog and immersion constructors (a refusal becomes a located error): the
`ModelManifold` of every kind with a closed form and the `FourierImmersion`
of the two torus kinds.  The grid stays a shape, sampled only by a solve.
The sweep families in `cli` build the same record from the same constructors.

Specs are composed by libyaml's scanner and parser where PyYAML was built
with them, and by PyYAML's pure-Python ones otherwise.  Every text either
engine refuses becomes a located `SpecFileError`: bad YAML, a character YAML
does not allow, bytes that are not UTF-8, and collections nested deeper
than 256 levels, past which the composers' stacks can overflow.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .bounds import SPHERE_DEVIATION_TOL
from .catalog import ModelManifold, flat_torus, round_sphere, sphere_product
from .eigensolve import DEFAULT_SEED
from .errors import SpecFileError
from .fourier import FourierImmersion, FourierTerm, TorusGrid, clifford_torus

KINDS = ("sphere", "sphere_product", "flat_torus", "fourier_immersion")
AMBIENTS = ("euclidean", "unit_sphere")
SOLVERS = ("dense", "lanczos")
DEFAULT_COUNT = 8


@dataclass(frozen=True)
class ManifoldSpec:
    """The geometry a spec declares, as built, with its solve settings.

    model is the closed-form catalog manifold, None for a perturbed torus;
    immersion is the torus immersion a grid samples, built only when a grid
    is declared.  grid is the validated shape, None when none is declared.
    """

    model: ModelManifold | None = None
    immersion: FourierImmersion | None = None
    grid: tuple[int, ...] | None = None
    solver: str | None = None
    k: int = DEFAULT_COUNT
    seed: int = DEFAULT_SEED
    source: str = "<memory>"
    text: str = field(default="", repr=False)

    @property
    def dim(self) -> int:
        """The intrinsic dimension n of the built geometry."""
        return self.model.n if self.model is not None else self.immersion.n


# --------------------------------------------------------------------------
# node-level parsing: yaml.compose keeps source marks, plain safe_load drops
# them and unknown-key errors would lose their positions.  Composing runs no
# constructor, so libyaml's CSafeLoader builds the same nodes as the
# pure-Python SafeLoader, several times faster; SafeLoader is the engine of
# a PyYAML built without libyaml.
# --------------------------------------------------------------------------

_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

#: Collections nest at most this deep.  libyaml composes recursively in C and
#: overflows an 8 MiB stack near 25 000 nested lists; the pure-Python composer
#: reaches the interpreter's recursion limit near 450.  No valid spec nests
#: deeper than 4.
_MAX_NESTING = 256
#: every collection holds one of these indicators of its own, so a text with
#: no more of them than _MAX_NESTING cannot nest deeper
_INDICATORS = "[{-?:"
#: the characters YAML does not allow in a stream, and its line breaks: read
#: only to locate a refusal, so compiled there (the first takes ~8 ms)
_UNPRINTABLE = r"[^\t\n\r\x20-\x7e\x85\xa0-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
_BREAK = r"\r\n|[\r\n\x85\u2028\u2029]"


def _err(node, msg: str) -> SpecFileError:
    mark = node.start_mark
    return SpecFileError(msg, line=mark.line + 1, column=mark.column + 1)


def _err_at(text: str, index: int, msg: str) -> SpecFileError:
    """msg located at text[index], lines counted at every YAML line break."""
    breaks = list(re.finditer(_BREAK, text[:index]))
    start = breaks[-1].end() if breaks else 0
    return SpecFileError(msg, line=len(breaks) + 1, column=index - start + 1)


def _compose(text: str):
    """The root node of text, or None for an empty stream."""
    if sum(map(text.count, _INDICATORS)) > _MAX_NESTING:
        depth = 0   # the event stream is flat: walking it recurses nowhere
        for event in yaml.parse(text, Loader=_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_NESTING:
                    raise _err(event, f"collections nest deeper than {_MAX_NESTING} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    return yaml.compose(text, Loader=_LOADER)


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
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _err(node, f"{what} must be a finite number, got {raw!r}")
    return value


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
        root = _compose(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise SpecFileError(
            f"not valid YAML: {exc.problem}",
            line=(mark.line + 1) if mark else 0,
            column=(mark.column + 1) if mark else 0) from None
    except (yaml.reader.ReaderError, UnicodeEncodeError):
        # a character YAML does not allow.  The engines count its offset in
        # different units (characters, UTF-8 bytes), and libyaml cannot even
        # encode a lone surrogate, so it is found in the text itself.
        index = re.search(_UNPRINTABLE, text).start()
        raise _err_at(text, index, f"not valid YAML: character #x{ord(text[index]):04x} "
                                   f"is not allowed") from None
    except RecursionError:
        raise SpecFileError("collections nest too deeply to compose", line=1, column=1) from None
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
        factors = []
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
            factors.append((p, rad))
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

    terms: list[FourierTerm] = []
    k_nodes = []
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
            zero = (0.0,) * len(amp)
            terms.append(FourierTerm(k=kvec, cos=amp, sin=zero) if trig == "cos"
                         else FourierTerm(k=kvec, cos=zero, sin=amp))
            k_nodes.append(entry["k"])
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
    for term, node in zip(terms, k_nodes):   # the coarse grid must resolve each mode
        if any(2 * abs(k) >= m for k, m in zip(term.k, grid)):
            raise _err(node, f"wavevector {list(term.k)} aliases on grid {grid}: "
                             f"need |k_i| < m_i / 2 on every axis")

    solver = _choice(top["solver"], "solver", SOLVERS) if "solver" in top else None
    if solver is not None and grid is None:
        raise _err(top["solver"], "solver does not apply without a grid (closed-form spectrum)")
    count = _int(top["k"], "k") if "k" in top else DEFAULT_COUNT
    if count < 1:
        raise _err(top["k"], f"k must be >= 1, got {count}")
    seed = _int(top["seed"], "seed") if "seed" in top else DEFAULT_SEED
    if seed < 0:
        raise _err(top["seed"], f"seed must be >= 0, got {seed}")

    model = immersion = None
    try:
        if kind == "sphere":
            model = round_sphere(dim, r, ambient=ambient)
        elif kind == "sphere_product":
            model = sphere_product(factors, ambient=ambient)
        elif kind == "flat_torus":
            model = flat_torus(radii, ambient=ambient)
        if grid is not None:    # only a grid samples the immersion
            immersion = clifford_torus(radii).perturbed(terms)
    except ValueError as exc:
        raise _err(root, str(exc)) from None
    if ambient == "unit_sphere" and model is None:
        # no catalog constructor checks it: the immersion must lie on the sphere
        dev = immersion.sphere_deviation(TorusGrid(grid))
        if dev > SPHERE_DEVIATION_TOL:
            raise _err(top["ambient"],
                       f"ambient unit_sphere declared, but the immersion leaves the unit "
                       f"sphere: max | |y|^2 - 1 | = {dev:.3g} on the grid "
                       f"(tolerance {SPHERE_DEVIATION_TOL:g})")
    return ManifoldSpec(model=model, immersion=immersion, grid=grid, solver=solver, k=count,
                        seed=seed, source=source, text=text)


def load_manifold_spec(path) -> ManifoldSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot read {p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:    # exc.object is the whole file's bytes
        head = exc.object[:exc.start].decode("utf-8")
        raise _err_at(head, len(head), f"not UTF-8: byte {exc.object[exc.start]:#04x} "
                                       f"cannot be decoded") from None
    return parse_manifold_spec(text, source=str(p))
