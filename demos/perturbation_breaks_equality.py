"""How fast equality degrades when the flat Clifford T^4 is bent.

The flat T^4 attains the four-dimensional sum bound.  Adding a single cosine
mode of amplitude eps to one ambient coordinate curves the immersion; the
slack opens at O(eps^2).  Each sample solves an 8^4 eigenproblem; the
default three samples take about a second.
"""

import argparse
import math

from paneitzlab.bounds import summarize_bundle, verify_thm_1_1
from paneitzlab.coefficients import paneitz_coefficients
from paneitzlab.discrete import build_bundle
from paneitzlab.eigensolve import spectrum
from paneitzlab.fourier import FourierTerm, TorusGrid, clifford_torus


def slack_at(eps: float) -> float:
    imm = clifford_torus((1.0,) * 4)
    if eps:
        term = FourierTerm(k=(1, 1, 0, 0), cos=(eps,) + (0.0,) * 7,
                           sin=(0.0,) * 8)
        imm = imm.perturbed([term])
    grid = TorusGrid((8,) * 4)
    bundle = build_bundle(imm, grid)
    result = spectrum(imm, grid, paneitz_coefficients(4), 9, bundle=bundle,
                      solver="lanczos", seed=3)
    rep = verify_thm_1_1(result.eigenvalues, summarize_bundle(bundle))
    tag = "equality" if rep.equality else "strict"
    print(f"eps = {eps:5.3f}   lhs = {rep.lhs:.9f}   rhs = {rep.rhs:.9f}   "
          f"slack = {rep.slack:+.3e}   [{tag}]")
    return rep.slack


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=(0.0, 0.01, 0.02))
    args = ap.parse_args()

    slacks = [slack_at(eps) for eps in args.amplitudes]
    nonzero = [(e, s) for e, s in zip(args.amplitudes, slacks) if e and s > 0]
    if len(nonzero) >= 2:
        (e1, s1), (e2, s2) = nonzero[0], nonzero[-1]
        exponent = math.log(s2 / s1) / math.log(e2 / e1)
        print(f"\nslack growth exponent ~ {exponent:.2f}  (expect ~2)")


if __name__ == "__main__":
    main()
