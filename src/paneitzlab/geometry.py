"""Extrinsic differential geometry from 2-jets of an immersion into R^N.

Everything here is pointwise algebra on the jet (y, dy, d2y) of an immersion
x -> y(x) of an n-manifold into R^N:

    g_ij   = sum_a dy_a/dx^i dy_a/dx^j          (induced metric)
    Gam    = Christoffel symbols from dg (first derivatives of g come from
             the 2-jet: dg_ij/dx^k = d2y.dy + dy.d2y)
    h_ij   = normal component of d2y = d2y_ij - Gam^k_ij dy_k
    H      = (1/n) g^{ij} h_ij                   (mean curvature vector)
    S      = g^{ik} g^{jl} <h_ij, h_kl>          (squared norm of h)
    Ric_ij = n <H, h_ij> - g^{kl} <h_kj, h_il>   (Gauss equation, contracted)
    R      = g^{ij} Ric_ij  ( = n^2 |H|^2 - S )

Sign conventions: sectional curvature of a round sphere is positive, and the
Laplacian is the trace of the Hessian, so -Lap has spectrum mu >= 0.

All functions accept batched jets: arrays may carry arbitrary leading axes
(e.g. a full grid), with the tensor indices in the trailing axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateImmersionError

#: det g at or below this times (tr g / n)^n is a degenerate (rank-deficient)
#: point.  The ratio lies in [0, 1] (AM-GM on the eigenvalues of g) and does
#: not change when the immersion is scaled, y -> c y.
IMMERSION_DET_EPS = 1e-12


@dataclass
class ImmersionJet:
    """2-jet of an immersion: y (..., N), dy (..., N, n), d2y (..., N, n, n)."""

    y: np.ndarray
    dy: np.ndarray
    d2y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.dy = np.asarray(self.dy, dtype=float)
        self.d2y = np.asarray(self.d2y, dtype=float)
        if self.dy.shape[:-1] != self.y.shape or self.d2y.shape[:-1] != self.dy.shape:
            raise ValueError(
                f"inconsistent jet shapes: y {self.y.shape}, dy {self.dy.shape}, "
                f"d2y {self.d2y.shape}"
            )
        if not _symmetric(self.d2y):
            raise ValueError("second derivatives must be symmetric in the two slot indices")

    @property
    def ambient_dim(self) -> int:
        return self.y.shape[-1]

    @property
    def dim(self) -> int:
        return self.dy.shape[-1]


def _symmetric(d2y: np.ndarray) -> bool:
    """np.allclose(d2y, d2y^T, atol=1e-12), tested on the entries that differ
    from their mirror image: equal entries are close, and NaN differs from
    everything, itself included."""
    mirror = np.swapaxes(d2y, -1, -2)
    differ = d2y != mirror
    return np.allclose(d2y[differ], mirror[differ], atol=1e-12)


@dataclass
class MetricData:
    """Induced metric g, its inverse and sqrt(det g); arrays share the jet's batch shape."""

    g: np.ndarray
    g_inv: np.ndarray
    sqrt_det: np.ndarray


@dataclass
class CurvatureFields:
    """The curvature fields that integrals and bounds read."""

    mean_sq: np.ndarray  # (...,), |H|^2
    s_norm: np.ndarray   # (...,), S = |h|^2
    scalar: np.ndarray   # (...,), R


@dataclass
class CurvaturePoint(CurvatureFields):
    """Connection and curvature data derived from one (batched) jet."""

    gamma: np.ndarray  # (..., n, n, n), Gam^k_ij indexed [k, i, j]
    h: np.ndarray      # (..., N, n, n), second fundamental form (normal valued)
    mean: np.ndarray   # (..., N), mean curvature vector H
    ric: np.ndarray    # (..., n, n), read only into the coefficient flux
    ric_norm_sq: np.ndarray  # (...,), |Ric|^2, read only into Q


def induced_metric(jet: ImmersionJet) -> MetricData:
    """Pull back the Euclidean metric through the jet.

    Raises DegenerateImmersionError if det g <= IMMERSION_DET_EPS (tr g / n)^n
    anywhere, reporting the batch index of the first offending point and det g
    there.
    """
    g = np.swapaxes(jet.dy, -1, -2) @ jet.dy
    det = np.linalg.det(g)
    n = jet.dim
    bad = det <= IMMERSION_DET_EPS * (np.trace(g, axis1=-2, axis2=-1) / n) ** n
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0]) if det.ndim else ()
        raise DegenerateImmersionError.at(where, float(det[where]))
    return MetricData(g=g, g_inv=np.linalg.inv(g), sqrt_det=np.sqrt(det))


def curvature_point(jet: ImmersionJet, metric: MetricData) -> CurvaturePoint:
    """Connection, second fundamental form and Gauss-equation curvature of the jet.

    Every contraction is a batched matrix product over the points: d2y and h
    are read as (N, n^2) matrices, rows a and columns (i j).
    """
    n, ambient = jet.dim, jet.ambient_dim
    base = jet.y.shape[:-1]
    dy = jet.dy.reshape(-1, ambient, n)
    points = dy.shape[0]
    g_inv = metric.g_inv.reshape(points, n, n)
    d2y = jet.d2y.reshape(points, ambient, n * n)
    # Christoffel symbols of the first kind come straight from the 2-jet:
    # Gam_{l,ij} = <dy_l, d2y_ij>; raising l gives Gam^k_ij, rows k
    gamma = g_inv @ (np.swapaxes(dy, -1, -2) @ d2y)
    # Normal projection of d2y; the tangential part is exactly Gam^k dy_k.
    h = d2y - dy @ gamma
    mean = (h @ g_inv.reshape(points, n * n, 1))[..., 0] / n
    mean_sq = np.einsum("pa,pa->p", mean, mean)
    # h_a g^{-1} for every normal component a, stacked: rows (a i), columns l
    lowered = h.reshape(points, ambient * n, n) @ g_inv
    quad = lowered.reshape(points, ambient, n, n)
    # S = sum_a tr(h_a g^{-1} h_a g^{-1})
    s_norm = np.einsum("pail,pali->p", quad, quad)
    # Ric = n <H, h> - sum_a h_a g^{-1} h_a, the sum one product over (a l)
    rows = quad.transpose(0, 2, 1, 3).reshape(points, n, ambient * n)
    ric = (n * (mean[:, None, :] @ h).reshape(points, n, n)
           - rows @ h.reshape(points, ambient * n, n))
    raised = g_inv @ ric
    ric_norm_sq = np.einsum("pij,pji->p", raised, raised)
    scalar = np.trace(raised, axis1=-2, axis2=-1)
    return CurvaturePoint(
        gamma=gamma.reshape(base + (n, n, n)),
        h=h.reshape(base + (ambient, n, n)),
        mean=mean.reshape(base + (ambient,)),
        mean_sq=mean_sq.reshape(base),
        s_norm=s_norm.reshape(base),
        ric=ric.reshape(base + (n, n)),
        ric_norm_sq=ric_norm_sq.reshape(base),
        scalar=scalar.reshape(base),
    )


def gauss_identity_residual(curv: CurvatureFields, n: int) -> float:
    """max |R - (n(n-1)|H|^2 - (S - n|H|^2))|.

    The scalar curvature is traced from the Gauss-equation Ricci tensor, a
    different product than the ones giving |H|^2 and S, so this is a genuine
    cross-check of the curvature assembly, not a tautology.
    """
    target = n * (n - 1) * curv.mean_sq - (curv.s_norm - n * curv.mean_sq)
    return float(np.max(np.abs(curv.scalar - target)))
