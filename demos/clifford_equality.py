"""Equality in the four-dimensional sum bound along the Clifford family.

S^2(sqrt(s)) x S^2(sqrt(1-s)) sits in the unit 5-sphere for every s in (0,1);
the product is minimal exactly at s = 1/2, and that is the only sample where
the bound closes.  There the proof chain of thm_1_1 replays in closed form
(the coordinates are first harmonics, Takahashi 1966) with zero slack, up to
roundoff, at every step but the two that perturb delta.
"""

import math

from paneitzlab.bounds import diagnose_equality, summarize_model, verify_cor_1_1
from paneitzlab.catalog import expand_lines, paneitz_spectrum, sphere_product
from paneitzlab.replay import replay_proof_analytic


def clifford(s: float):
    return sphere_product([(2, math.sqrt(s)), (2, math.sqrt(1.0 - s))], ambient="unit_sphere")


def report(s: float) -> None:
    m = clifford(s)
    geo = summarize_model(m)
    values = expand_lines(paneitz_spectrum(m, 12).lines, 9)
    rep = verify_cor_1_1(values, geo)
    case = diagnose_equality(geo).matched_case
    tag = "equality" if rep.equality else "strict"
    print(f"s = {s:4.2f}   lhs = {rep.lhs:14.9f}   rhs = {rep.rhs:14.9f}   "
          f"slack = {rep.slack:+.3e}   [{tag}]  case: {case}")


def main() -> None:
    print("cor_1_1 on S^2(sqrt(s)) x S^2(sqrt(1-s)) c S^5(1)")
    for s in (0.30, 0.40, 0.50, 0.60, 0.70):
        report(s)
    print()
    print("at s = 1/2 both sides equal 32/sqrt(3) =",
          f"{32.0 / math.sqrt(3.0):.12f}")
    print()
    rep = replay_proof_analytic("thm_1_1", clifford(0.5))
    print(f"replay of thm_1_1 at s = 1/2 [{rep.route}], ok = {rep.ok}")
    for step in rep.steps:
        print(f"  {step.name:30s} slack = {step.slack:+.3e}")
    print(f"  final: {rep.final_lhs:.12f} <= {rep.final_rhs:.12f}")


if __name__ == "__main__":
    main()
