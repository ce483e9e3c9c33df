"""The gap bound and its proof replay on a curved 5-torus.

Bends the flat unit Clifford T^5 by one cosine mode k = (1,1,0,0,0) of
amplitude 0.1 on the first ambient coordinate, solves the fourth-order
operator on an 8^5 grid for its seven lowest eigenpairs, checks thm_1_2
(the n > 4 gap bound) and replays its proof chain on the grid.  Prints the
stage timings and the process's peak memory.  Every product is collocated
on the 8^5 grid itself (32768 points); a run takes about 8 s and 230 MB on
one thread of a 2-vCPU VM, so it is left to manual runs.
"""

import argparse
import resource
import time

from paneitzlab.bounds import summarize_bundle, u1_from_result, verify_thm_1_2
from paneitzlab.coefficients import paneitz_coefficients
from paneitzlab.discrete import build_bundle
from paneitzlab.eigensolve import spectrum
from paneitzlab.fourier import FourierTerm, TorusGrid, clifford_torus
from paneitzlab.replay import replay_proof


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitude", type=float, default=0.1)
    ap.add_argument("--grid", type=int, default=8)
    args = ap.parse_args()

    n = 5
    term = FourierTerm(k=(1, 1, 0, 0, 0), cos=(args.amplitude,) + (0.0,) * 9,
                       sin=(0.0,) * 10)
    imm = clifford_torus((1.0,) * n).perturbed([term])
    grid = TorusGrid((args.grid,) * n)

    start = time.perf_counter()
    bundle = build_bundle(imm, grid)
    built = time.perf_counter()
    result = spectrum(imm, grid, paneitz_coefficients(n), 7, bundle=bundle,
                      solver="lanczos", seed=3)
    solved = time.perf_counter()
    u1 = u1_from_result(bundle, result)
    rep = verify_thm_1_2(result.eigenvalues, summarize_bundle(bundle), u1)
    chain = replay_proof("thm_1_2", result, bundle, u1=u1)
    done = time.perf_counter()

    print(f"curved T^5, amplitude {args.amplitude}, grid {args.grid}^5, "
          f"{result.iterations} LOBPCG iterations")
    print("eigenvalues " + " ".join(f"{v:.9f}" for v in result.eigenvalues))
    tag = "equality" if rep.equality else "strict"
    print(f"thm_1_2   lhs = {rep.lhs:.9f}   rhs = {rep.rhs:.9f}   "
          f"slack = {rep.slack:+.3e}   [{tag}] {'OK' if rep.ok else 'VIOLATED'}")
    print(f"replay    worst slack {chain.worst_slack:+.3e}   ok={chain.ok}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bundle {built - start:.1f} s, solve {solved - built:.1f} s, "
          f"bound and replay {done - solved:.1f} s; peak RSS {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
