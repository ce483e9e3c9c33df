"""Curvature fields of a torus of revolution.

A genuinely curved surface with product topology: the grid resolves it
quickly, so the immersion identities and the curvature closed forms can be
checked to near roundoff.
"""

import math

import numpy as np

from paneitzlab.discrete import apply_laplacian, build_bundle
from paneitzlab.fourier import TorusGrid, donut_torus
from paneitzlab.geometry import gauss_identity_residual


def main() -> None:
    outer, inner = 2.0, 1.0
    imm = donut_torus(outer, inner)
    grid = TorusGrid((24, 24))
    bundle = build_bundle(imm, grid)
    curv = bundle.curv

    print(f"torus of revolution, R = {outer}, r = {inner}, grid 24^2")
    print(f"  volume     {bundle.volume:.12f}   (4 pi^2 R r = "
          f"{4 * math.pi**2 * outer * inner:.12f})")
    print(f"  scalar curvature range  [{curv.scalar.min():+.6f}, "
          f"{curv.scalar.max():+.6f}]")
    print(f"  Gauss identity residual  {gauss_identity_residual(curv, 2):.2e}")
    print(f"  min(S - n|H|^2)          "
          f"{(curv.s_norm - 2 * curv.mean_sq).min():+.2e}")

    # Takahashi: Lap y = n H componentwise for isometric immersions
    jet = imm.jet(grid.points())
    lap = np.stack([apply_laplacian(bundle, jet.y[..., a]) for a in range(3)],
                   axis=-1)
    print(f"  |Lap y - n H| sup        "
          f"{np.abs(lap - 2 * curv.mean).max():.2e}")


if __name__ == "__main__":
    main()
