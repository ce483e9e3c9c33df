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

#: det(g) at or below this is treated as a degenerate (rank-deficient) point.
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
        if not np.allclose(self.d2y, np.swapaxes(self.d2y, -1, -2), atol=1e-12):
            raise ValueError("second derivatives must be symmetric in the two slot indices")

    @property
    def ambient_dim(self) -> int:
        return self.y.shape[-1]

    @property
    def dim(self) -> int:
        return self.dy.shape[-1]


@dataclass
class MetricData:
    """Induced metric g, its inverse and sqrt(det g); arrays share the jet's batch shape."""

    g: np.ndarray
    g_inv: np.ndarray
    sqrt_det: np.ndarray


@dataclass
class CurvaturePoint:
    """Connection and curvature data derived from one (batched) jet."""

    gamma: np.ndarray  # (..., n, n, n), Gam^k_ij indexed [k, i, j]
    h: np.ndarray      # (..., N, n, n), second fundamental form (normal valued)
    mean: np.ndarray   # (..., N), mean curvature vector H
    mean_sq: np.ndarray  # (...,), |H|^2
    s_norm: np.ndarray   # (...,), S = |h|^2
    ric: np.ndarray      # (..., n, n)
    ric_norm_sq: np.ndarray  # (...,), |Ric|^2
    scalar: np.ndarray       # (...,), R


def induced_metric(jet: ImmersionJet, det_eps: float = IMMERSION_DET_EPS) -> MetricData:
    """Pull back the Euclidean metric through the jet.

    Raises DegenerateImmersionError if det g <= det_eps anywhere, reporting the
    batch index of the first offending point.
    """
    g = np.einsum("...ai,...aj->...ij", jet.dy, jet.dy)
    det = np.linalg.det(g)
    bad = det <= det_eps
    if np.any(bad):
        where = tuple(np.argwhere(bad)[0]) if det.ndim else ()
        raise DegenerateImmersionError(
            f"immersion is degenerate: det g = {float(np.min(det)):.3e} at index {where}",
            where=where,
        )
    return MetricData(g=g, g_inv=np.linalg.inv(g), sqrt_det=np.sqrt(det))


def curvature_point(jet: ImmersionJet, metric: MetricData) -> CurvaturePoint:
    """Connection, second fundamental form and Gauss-equation curvature of the jet."""
    n = jet.dim
    # Christoffel symbols of the first kind come straight from the 2-jet:
    # Gam_{l,ij} = <dy_l, d2y_ij>.
    gamma_first = np.einsum("...al,...aij->...lij", jet.dy, jet.d2y)
    gamma = np.einsum("...kl,...lij->...kij", metric.g_inv, gamma_first)
    # Normal projection of d2y; the tangential part is exactly Gam^k dy_k.
    h = jet.d2y - np.einsum("...ak,...kij->...aij", jet.dy, gamma)
    mean = np.einsum("...ij,...aij->...a", metric.g_inv, h) / n
    mean_sq = np.einsum("...a,...a->...", mean, mean)
    # optimize=True: unoptimized four-operand einsums dominate large grids
    s_norm = np.einsum("...ik,...jl,...aij,...akl->...", metric.g_inv, metric.g_inv, h, h,
                       optimize=True)
    ric = n * np.einsum("...a,...aij->...ij", mean, h) - np.einsum(
        "...kl,...akj,...ail->...ij", metric.g_inv, h, h
    )
    ric_norm_sq = np.einsum("...ik,...jl,...ij,...kl->...", metric.g_inv, metric.g_inv, ric, ric,
                            optimize=True)
    scalar = np.einsum("...ij,...ij->...", metric.g_inv, ric)
    return CurvaturePoint(
        gamma=gamma,
        h=h,
        mean=mean,
        mean_sq=mean_sq,
        s_norm=s_norm,
        ric=ric,
        ric_norm_sq=ric_norm_sq,
        scalar=scalar,
    )


def gauss_identity_residual(curv: CurvaturePoint, n: int) -> float:
    """max |R - (n(n-1)|H|^2 - (S - n|H|^2))|.

    The scalar curvature is contracted from the Gauss equation along a
    different einsum path than n^2|H|^2 - S, so this is a genuine
    cross-check of the curvature assembly, not a tautology.
    """
    target = n * (n - 1) * curv.mean_sq - (curv.s_norm - n * curv.mean_sq)
    return float(np.max(np.abs(curv.scalar - target)))


def normality_residual(jet: ImmersionJet, curv: CurvaturePoint) -> float:
    """max over points and indices of |<h_ij, dy_k>| (h must be normal-valued)."""
    return float(np.max(np.abs(np.einsum("...aij,...ak->...ijk", curv.h, jet.dy))))
