"""Closed-form catalog: products of round spheres and flat tori.

Every catalog manifold is a Riemannian product of round-sphere factors
S^p(r) (a circle is the p = 1 case, so flat tori are covered), immersed in
Euclidean space the standard way, block by block.  For these, everything the
lab needs has a closed form:

* curvature constants: R = sum p(p-1)/r^2, Ricci eigenvalue (p-1)/r^2 per
  factor, |Ric|^2, Q, and the extrinsic quantities |H|^2 = (1/n^2) sum p^2/r^2
  and S = sum p/r^2 (shifted by -1 and -n when the product sits inside the
  unit sphere and is viewed there);
* factor Laplace lines: mu = k(k+p-1)/r^2 with the harmonic multiplicity
  C(k+p, p) - C(k+p-2, p);
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
from .errors import InvalidDimensionError

#: Relative tolerance used to merge coincident spectral values into one line:
#: roundoff only, as coarser merges join distinct lines (the bottom two of
#: S^4(1) x S^1(1e5) are 4.2e-10 apart, relative).
LINE_MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class SphereFactor:
    """One round-sphere factor S^p(r); p = 1 is a circle."""

    p: int
    r: float

    def __post_init__(self):
        """Refuse a radius whose volume scale r^p or fourth-order scale r^-4
        is not a finite nonzero float, and a factor whose volume is not one:
        the closed forms are built on all three."""
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"factor dimension must be a positive integer, got {self.p!r}")
        if not self.r > 0:
            raise ValueError(f"factor radius must be positive, got {self.r!r}")
        try:
            scales = (self.r**self.p, self.r**-4)
        except OverflowError:
            scales = (0.0,)
        if not all(0.0 < x < math.inf for x in scales):
            raise ValueError(f"factor radius {self.r!r} is out of range: r^{self.p} and r^-4 "
                             f"must be finite nonzero floats")
        try:
            volume = self.volume
        except OverflowError:   # Gamma((p + 1) / 2), at any radius from p = 343 on
            volume = math.nan
        if not 0.0 < volume < math.inf:
            raise ValueError(f"factor S{self.p}(r={self.r:.12g}) is out of range: its volume "
                             f"must be a finite nonzero float")

    @property
    def volume(self) -> float:
        return 2.0 * math.pi ** ((self.p + 1) / 2.0) / math.gamma((self.p + 1) / 2.0) * self.r**self.p

    def laplace_lines(self, cap: float):
        """Factor Laplace lines (mu, multiplicity), one per degree, with mu <= cap."""
        out = []
        k = 0
        while True:
            mu = k * (k + self.p - 1) / self.r**2
            if mu > cap:
                break
            out.append((mu, _harmonic_multiplicity(self.p, k)))
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
        if not 0.0 < self.volume < math.inf:
            raise ValueError(f"volume {self.volume!r} of {self.describe()} is not a finite "
                             f"nonzero float: the factor volumes over- or underflow")

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

    The _euclidean fields refer to the block immersion into R^N whatever the
    declared ambient (in the unit sphere, |H|^2 and S are 1 and n less).
    """

    n: int
    volume: float
    scalar: float            # intrinsic scalar curvature R
    rho: tuple[float, ...]   # Ricci eigenvalue per factor
    ric_norm_sq: float
    q: float | None          # Q, None below n = 3 where the coefficients are singular
    mean_sq_euclidean: float
    s_norm_euclidean: float


def model_constants(m: ModelManifold) -> ModelConstants:
    n = m.n
    scalar = sum(f.p * (f.p - 1) / f.r**2 for f in m.factors)
    rho = tuple((f.p - 1) / f.r**2 for f in m.factors)
    ric2 = sum(f.p * rh**2 for f, rh in zip(m.factors, rho))
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
        mean_sq_euclidean=sum(f.p**2 / f.r**2 for f in m.factors) / n**2,
        s_norm_euclidean=sum(f.p / f.r**2 for f in m.factors),
    )


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    """One spectral line: value, total multiplicity, the number of degree
    tuples it gathers, and the summed factor Laplace eigenvalue of its first
    state (the -Lap energy of its eigenfunctions when one tuple makes it)."""

    value: float
    multiplicity: int
    tuples: int
    energy: float


def _curvature_unit(m: ModelManifold) -> float:
    """max 1/r^2 over the factors, to the nearest power of two: 1 near unit
    radius, it scales as the Laplace lines (its square as the fourth-order
    lines), so no absolute number sets the spectra's floors and tolerances."""
    return 2.0 ** round(math.log2(max(f.r**-2 for f in m.factors)))


@dataclass(frozen=True)
class ClosedFormPaneitz:
    """Closed-form fourth-order spectrum of a catalog manifold.

    lambda(mu_1..mu_m) = (sum mu)^2 + sum kappa_i mu_i + zero_order, with
    kappa_i = a_n R + b_n rho_i and zero_order = (n-4)/2 * Q.
    """

    kappas: tuple[float, ...]
    zero_order: float
    lines: tuple[SpectralLine, ...] = field(default=())


def paneitz_form(m: ModelManifold) -> ClosedFormPaneitz:
    """Just the closed form (kappas and zero order), without enumerating lines."""
    consts = model_constants(m)
    if consts.q is None:
        raise InvalidDimensionError("fourth-order spectrum needs n >= 3")
    coeffs = paneitz_coefficients(m.n)
    a, b = float(coeffs.a), float(coeffs.b)
    kappas = tuple(a * consts.scalar + b * rho for rho in consts.rho)
    return ClosedFormPaneitz(kappas=kappas, zero_order=float(coeffs.q_factor) * consts.q)


def _fold_states(m: ModelManifold, kappas, cap: float) -> dict:
    """Degree tuples with summed mu <= cap, folded factor by factor into
    states (S, K) = (sum mu_i, sum kappa_i mu_i) -> [multiplicity, tuples].

    Tuples that reach one state merge as they are formed, so the work grows
    with the number of states, not of tuples.  Partial sums above the cap
    are dropped at each factor; Laplace lines are >= 0 and ascending, so no
    dropped prefix could come back under it.
    """
    states = {(0.0, 0.0): [1, 1]}
    for f, kappa in zip(m.factors, kappas):
        lines = f.laplace_lines(cap)
        folded: dict = {}
        for (s, k), (mult, tuples) in states.items():
            for mu, mu_mult in lines:
                if s + mu > cap:
                    break
                acc = folded.setdefault((s + mu, k + kappa * mu), [0, 0])
                acc[0] += mult * mu_mult
                acc[1] += tuples
        states = folded
    return states


def paneitz_spectrum(m: ModelManifold, count: int) -> ClosedFormPaneitz:
    """The `count` smallest fourth-order lines, folded over factor degrees.

    Tuples with equal total mu but different per-factor split can carry
    different lambda (unbalanced products), so the fold keys on (S, K), not
    on S alone; lambda = S^2 + K + zero_order is evaluated once per state,
    and states whose values agree to LINE_MERGE_RTOL form one line.  The
    Laplace cap doubles until the quadratic lower envelope
    lambda >= mu^2 - max(0, -min kappa) mu + z certifies that no unseen
    tuple can undercut the collected lines.
    """
    form = paneitz_form(m)
    neg = max(0.0, -min(form.kappas))
    unit = _curvature_unit(m)
    cap = max(unit, max(f.p / f.r**2 for f in m.factors), 2.0 * neg)
    while True:
        states = _fold_states(m, form.kappas, cap)
        entries = sorted(((s**2 + k + form.zero_order, mult, tuples, s)
                          for (s, k), (mult, tuples) in states.items()), key=lambda t: t[0])
        lines: list[SpectralLine] = []
        for value, mult, tuples, s in entries:
            if lines and math.isclose(lines[-1].value, value, rel_tol=LINE_MERGE_RTOL,
                                      abs_tol=1e-12 * unit**2):
                prev = lines[-1]
                lines[-1] = SpectralLine(prev.value, prev.multiplicity + mult,
                                         prev.tuples + tuples, prev.energy)
            else:
                lines.append(SpectralLine(value, mult, tuples, s))
        if len(lines) >= count:
            lam_cut = lines[count - 1].value
            floor_beyond = cap**2 - neg * cap + form.zero_order
            if floor_beyond > lam_cut * (1 + 1e-12) + 1e-12 * unit**2:
                return ClosedFormPaneitz(form.kappas, form.zero_order, tuple(lines[:count]))
        cap *= 2.0


def expand_lines(lines, k: int):
    """Flatten spectral lines into the k smallest eigenvalues with multiplicity."""
    values = []
    for line in lines:
        values.extend([line.value] * line.multiplicity)
        if len(values) >= k:
            return values[:k]
    raise ValueError(f"only {len(values)} eigenvalues available, {k} requested")
