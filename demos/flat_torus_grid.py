"""Pseudospectral eigenvalues against the lattice closed form.

On a flat torus the fourth-order operator is the squared Laplacian, so every
discrete eigenvalue must land on mu^2 for a lattice frequency mu.  This is
the cheapest end-to-end check that the discretization, the quadrature and
the eigensolver are wired together correctly.
"""

import argparse

import numpy as np

from paneitzlab.catalog import expand_lines, flat_torus, paneitz_spectrum
from paneitzlab.coefficients import paneitz_coefficients
from paneitzlab.eigensolve import spectrum
from paneitzlab.fourier import TorusGrid, clifford_torus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--count", type=int, default=16)
    ap.add_argument("--radii", type=float, nargs=3, default=(1.0, 1.0, 1.0))
    args = ap.parse_args()

    radii = tuple(args.radii)
    result = spectrum(clifford_torus(radii), TorusGrid((args.grid,) * 3),
                      paneitz_coefficients(3), args.count, solver="lanczos")
    exact = expand_lines(paneitz_spectrum(flat_torus(radii), args.count + 4).lines,
                         args.count)

    print(f"flat T^3, radii {radii}, grid {args.grid}^3, LOBPCG")
    print(f"{'computed':>18}  {'lattice mu^2':>18}  {'error':>10}")
    for lam, mu2 in zip(result.eigenvalues, exact):
        print(f"{lam:18.12f}  {mu2:18.12f}  {abs(lam - mu2):10.2e}")
    print(f"\nmax error {np.abs(result.eigenvalues - exact).max():.2e} "
          f"after {result.iterations} iterations")


if __name__ == "__main__":
    main()
