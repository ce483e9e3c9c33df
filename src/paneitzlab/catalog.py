"""Closed-form catalog: products of round spheres and flat tori.

Every catalog manifold is a Riemannian product of round-sphere factors
S^p(r) (a circle is the p = 1 case, so flat tori are covered), immersed in
Euclidean space the standard way, block by block.  For these, everything the
lab needs has a closed form:

* curvature constants: R = sum p(p-1)/r^2, Ricci eigenvalue (p-1)/r^2 per
  factor, |Ric|^2, Q, and the extrinsic quantities |H|^2 = (1/n^2) sum p^2/r^2
  and S = sum p/r^2 (shifted by -1 and -n when the product sits inside the
  unit sphere and is viewed there);
* Laplace spectrum: factor lines mu = k(k+p-1)/r^2 with the harmonic
  multiplicity C(k+p, p) - C(k+p-2, p), convolved across factors;
* fourth-order operator spectrum: on a product eigenfunction with factor
  Laplace eigenvalues mu_i,

      lambda(mu_1..mu_m) = (sum mu_i)^2 + sum kappa_i mu_i + (n-4)/2 * Q,
      kappa_i = a_n R + b_n rho_i,

  because the Ricci tensor is parallel with eigenvalue rho_i on factor i.

Volumes multiply: vol S^p(r) = 2 pi^{(p+1)/2} r^p / Gamma((p+1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .coefficients import paneitz_coefficients, q_curvature
from .errors import AmbiguityError, InvalidDimensionError

#: Relative tolerance used to merge coincident spectral values into one line.
LINE_MERGE_RTOL = 1e-9


@dataclass(frozen=True)
class SphereFactor:
    """One round-sphere factor S^p(r); p = 1 is a circle."""

    p: int
    r: float

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"factor dimension must be a positive integer, got {self.p!r}")
        if not self.r > 0:
            raise ValueError(f"factor radius must be positive, got {self.r!r}")

    @property
    def volume(self) -> float:
        return 2.0 * math.pi ** ((self.p + 1) / 2.0) / math.gamma((self.p + 1) / 2.0) * self.r**self.p

    def laplace_lines(self, cap: float):
        """Factor Laplace lines (mu, multiplicity, degree k) with mu <= cap."""
        out = []
        k = 0
        while True:
            mu = k * (k + self.p - 1) / self.r**2
            if mu > cap:
                break
            out.append((mu, _harmonic_multiplicity(self.p, k), k))
            k += 1
        return out


def _harmonic_multiplicity(p: int, k: int) -> int:
    """dim of degree-k spherical harmonics on S^p: C(k+p, p) - C(k+p-2, p)."""
    low = math.comb(k + p - 2, p) if k + p - 2 >= 0 else 0
    return math.comb(k + p, p) - low


@dataclass(frozen=True)
class ModelManifold:
    """A product of sphere factors with a declared ambient space.

    ambient = "euclidean": the block-diagonal immersion into R^N,
    N = sum (p_i + 1).  ambient = "unit_sphere": the same immersion viewed in
    S^{N-1}(1); only legal when the product actually lies on the unit sphere
    (sum r_i^2 = 1, or r = 1 for a single sphere treated as an equator).
    """

    kind: str
    factors: tuple[SphereFactor, ...]
    ambient: str = "euclidean"

    def __post_init__(self):
        if self.kind not in ("sphere", "sphere_product", "flat_torus"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.ambient not in ("euclidean", "unit_sphere"):
            raise ValueError(f"ambient must be 'euclidean' or 'unit_sphere', got {self.ambient!r}")
        if not self.factors:
            raise ValueError("a model manifold needs at least one factor")
        if self.ambient == "unit_sphere":
            if len(self.factors) == 1:
                if abs(self.factors[0].r - 1.0) > 1e-12:
                    raise ValueError("a single sphere sits in the unit sphere only as an equator (r = 1)")
            else:
                rsq = sum(f.r**2 for f in self.factors)
                if abs(rsq - 1.0) > 1e-12:
                    raise ValueError(
                        f"product lies on a sphere of radius {math.sqrt(rsq)!r}, not 1; "
                        "unit_sphere ambient requires sum r_i^2 = 1"
                    )

    @property
    def n(self) -> int:
        return sum(f.p for f in self.factors)

    @property
    def ambient_dim(self) -> int:
        """Dimension N of the Euclidean space carrying the block immersion."""
        return sum(f.p + 1 for f in self.factors)

    @property
    def volume(self) -> float:
        v = 1.0
        for f in self.factors:
            v *= f.volume
        return v

    def describe(self) -> str:
        body = " x ".join(f"S{f.p}(r={f.r:.12g})" for f in self.factors)
        if self.ambient == "unit_sphere":
            # a single unit sphere sits as a totally geodesic equator one
            # dimension up; products fill their block sphere exactly
            up = self.ambient_dim if len(self.factors) == 1 else self.ambient_dim - 1
            return f"{body} in S^{up}(1)"
        return f"{body} in R^{self.ambient_dim}"


def round_sphere(n: int, r: float = 1.0, ambient: str = "euclidean") -> ModelManifold:
    return ModelManifold(kind="sphere", factors=(SphereFactor(n, r),), ambient=ambient)


def sphere_product(factors, ambient: str = "euclidean") -> ModelManifold:
    facs = tuple(SphereFactor(int(p), float(r)) for p, r in factors)
    if len(facs) < 2:
        raise ValueError("sphere_product needs at least two factors; use round_sphere otherwise")
    return ModelManifold(kind="sphere_product", factors=facs, ambient=ambient)


def flat_torus(radii, ambient: str = "euclidean") -> ModelManifold:
    facs = tuple(SphereFactor(1, float(r)) for r in radii)
    return ModelManifold(kind="flat_torus", factors=facs, ambient=ambient)


# --------------------------------------------------------------------------
# curvature constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConstants:
    """Curvature and volume constants of a catalog manifold.

    mean_sq and s_norm refer to the declared ambient; the _euclidean fields
    always refer to the block immersion into R^N (they differ by +1 and +n
    for submanifolds of the unit sphere).
    """

    n: int
    volume: float
    scalar: float            # intrinsic scalar curvature R
    rho: tuple[float, ...]   # Ricci eigenvalue per factor
    ric_norm_sq: float
    q: float | None          # Q, None below n = 3 where the coefficients are singular
    mean_sq: float
    s_norm: float
    mean_sq_euclidean: float
    s_norm_euclidean: float
    ambient: str


def model_constants(m: ModelManifold) -> ModelConstants:
    n = m.n
    scalar = sum(f.p * (f.p - 1) / f.r**2 for f in m.factors)
    rho = tuple((f.p - 1) / f.r**2 for f in m.factors)
    ric2 = sum(f.p * rh**2 for f, rh in zip(m.factors, rho))
    h2_e = sum(f.p**2 / f.r**2 for f in m.factors) / n**2
    s_e = sum(f.p / f.r**2 for f in m.factors)
    if m.ambient == "unit_sphere":
        h2, s = h2_e - 1.0, s_e - n
    else:
        h2, s = h2_e, s_e
    q = None
    if n >= 3:
        q = q_curvature(paneitz_coefficients(n), ric2, scalar, 0.0)
    return ModelConstants(
        n=n,
        volume=m.volume,
        scalar=scalar,
        rho=rho,
        ric_norm_sq=ric2,
        q=q,
        mean_sq=h2,
        s_norm=s,
        mean_sq_euclidean=h2_e,
        s_norm_euclidean=s_e,
        ambient=m.ambient,
    )


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    """One spectral line: value, total multiplicity, contributing degree tuples."""

    value: float
    multiplicity: int
    labels: tuple[tuple[int, ...], ...]


def _merge_lines(entries) -> list[SpectralLine]:
    """Cluster (value, mult, label) triples whose values agree to LINE_MERGE_RTOL."""
    entries = sorted(entries, key=lambda t: t[0])
    lines: list[SpectralLine] = []
    for value, mult, label in entries:
        if lines and math.isclose(lines[-1].value, value, rel_tol=LINE_MERGE_RTOL, abs_tol=1e-12):
            prev = lines[-1]
            lines[-1] = SpectralLine(prev.value, prev.multiplicity + mult, prev.labels + (label,))
        else:
            lines.append(SpectralLine(value, mult, (label,)))
    return lines


def _enumerate_products(factor_lines, cap: float) -> list[tuple[float, int, tuple[int, ...]]]:
    """Combinations of one line per factor whose summed mu stays <= cap.

    Partial sums above the cap are dropped at each factor; Laplace lines are
    >= 0, so no dropped prefix could come back under it.
    """
    combos = [(0.0, 1, ())]
    for lines in factor_lines:
        combos = [
            (mu0 + mu, mult0 * mult, label0 + (k,))
            for mu0, mult0, label0 in combos
            for mu, mult, k in lines
            if mu0 + mu <= cap
        ]
    return combos


def laplace_spectrum(m: ModelManifold, count: int) -> list[SpectralLine]:
    """The `count` smallest distinct eigenvalues of -Lap with multiplicities.

    Factor lines are convolved; the enumeration cap doubles until the
    requested number of complete lines sits strictly below it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cap = max(1.0, max(f.p / f.r**2 for f in m.factors))
    while True:
        combos = _enumerate_products([f.laplace_lines(cap) for f in m.factors], cap)
        lines = _merge_lines(combos)
        if len(lines) >= count and lines[count - 1].value < cap * (1 - 1e-12):
            return lines[:count]
        cap *= 2.0


@dataclass(frozen=True)
class ClosedFormPaneitz:
    """Closed-form fourth-order spectrum of a catalog manifold.

    lambda(mu_1..mu_m) = (sum mu)^2 + sum kappa_i mu_i + zero_order, with
    kappa_i = a_n R + b_n rho_i and zero_order = (n-4)/2 * Q.
    """

    kappas: tuple[float, ...]
    zero_order: float
    lines: tuple[SpectralLine, ...] = field(default=())

    def value(self, mus) -> float:
        total = sum(mus)
        return total**2 + sum(k * mu for k, mu in zip(self.kappas, mus)) + self.zero_order


def paneitz_form(m: ModelManifold) -> ClosedFormPaneitz:
    """Just the closed form (kappas and zero order), without enumerating lines."""
    consts = model_constants(m)
    if consts.q is None:
        raise InvalidDimensionError("fourth-order spectrum needs n >= 3")
    coeffs = paneitz_coefficients(m.n)
    a, b = float(coeffs.a), float(coeffs.b)
    kappas = tuple(a * consts.scalar + b * rho for rho in consts.rho)
    return ClosedFormPaneitz(kappas=kappas, zero_order=float(coeffs.q_factor) * consts.q)


def paneitz_spectrum(m: ModelManifold, count: int) -> ClosedFormPaneitz:
    """The `count` smallest fourth-order lines, enumerated over factor degrees.

    Tuples with equal total mu but different per-factor split can carry
    different lambda (unbalanced products), so enumeration runs over degree
    tuples, not over Laplace lines.  The Laplace cap doubles until the
    quadratic lower envelope lambda >= mu^2 - max(0, -min kappa) mu + z
    certifies that no unseen tuple can undercut the collected lines.
    """
    form = paneitz_form(m)
    neg = max(0.0, -min(form.kappas))
    cap = max(1.0, max(f.p / f.r**2 for f in m.factors), 2.0 * neg)
    while True:
        combos = _enumerate_products([f.laplace_lines(cap) for f in m.factors], cap)
        entries = [(form.value(_factor_mus(m, label)), mult, label)
                   for _mu, mult, label in combos]
        lines = _merge_lines(entries)
        if len(lines) >= count:
            lam_cut = lines[count - 1].value
            floor_beyond = cap**2 - neg * cap + form.zero_order
            if floor_beyond > lam_cut * (1 + 1e-12) + 1e-12:
                return ClosedFormPaneitz(form.kappas, form.zero_order, tuple(lines[:count]))
        cap *= 2.0


def _factor_mus(m: ModelManifold, label: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(k * (k + f.p - 1) / f.r**2 for f, k in zip(m.factors, label))


def expand_lines(lines, k: int):
    """Flatten spectral lines into the k smallest eigenvalues with multiplicity."""
    values = []
    for line in lines:
        values.extend([line.value] * line.multiplicity)
        if len(values) >= k:
            return values[:k]
    raise ValueError(f"only {len(values)} eigenvalues available, {k} requested")


# --------------------------------------------------------------------------
# bottom eigenfunction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstEigenfunctionInfo:
    """What the bottom eigenfunction of the fourth-order operator looks like."""

    lambda_1: float
    multiplicity: int
    constant: bool
    value: float | None        # 1/sqrt(vol) when constant
    laplace_mu: float          # its -Lap eigenvalue (0 when constant)
    grad_energy: float         # int |grad u_1|^2 dv = laplace_mu for unit L^2 norm
    label: tuple[int, ...]


def first_eigenfunction_info(m: ModelManifold) -> FirstEigenfunctionInfo:
    """Identify the bottom line and its eigenfunction data; refuse ties.

    A tie (the bottom line assembled from more than one degree tuple, or two
    lines closer than the merge tolerance) means there is no canonical
    bottom eigenfunction, which the gap bounds need.
    """
    spec = paneitz_spectrum(m, 2)
    bottom = spec.lines[0]
    if len(bottom.labels) > 1:
        raise AmbiguityError(
            f"bottom line {bottom.value:.12g} is degenerate across degree tuples "
            f"{bottom.labels}; no canonical bottom eigenfunction",
            lines=spec.lines[:2],
        )
    label = bottom.labels[0]
    mu = sum(_factor_mus(m, label))
    constant = all(k == 0 for k in label)
    return FirstEigenfunctionInfo(
        lambda_1=bottom.value,
        multiplicity=bottom.multiplicity,
        constant=constant,
        value=1.0 / math.sqrt(m.volume) if constant else None,
        laplace_mu=mu,
        grad_energy=mu,
        label=label,
    )
