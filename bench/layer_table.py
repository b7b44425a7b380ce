"""Regenerate the layer table of the ROADMAP's open items (not gated).

Run from the root of a checkout:

    python3 bench/layer_table.py [--seed 0]

For each case (n, q) it draws seeded multivariate-t data (nu = 3, the
benchmark's Haar-rotated scatter of condition 100), fits Tyler's estimator
and prints one Markdown row: the time to build Q (``from_observations``),
``check_existence`` at the solver's default budget, the whole
``fixed_point_solve``, its iteration count and ``acov_scatter``.  BLAS is
pinned to one thread.  Times are medians over five calls; the influence
column is timed once because it takes minutes at q = 40.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

CASES = ((2000, 5), (20000, 10), (5000, 40))
REPEATS = 5


def timed(fn, repeats=REPEATS):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads below
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    from mscatter import (SolverConfig, acov_scatter, check_existence, fixed_point_solve,
                          from_observations, samplers, tyler)
    from workloads import NU, scatter_matrix

    print("| workload | build Q | check_existence | whole solve | iters | acov_scatter |")
    print("|---|---|---|---|---|---|")
    for n, q in CASES:
        stream = samplers.SeededStream(args.seed).split(q)
        x = samplers.mvt(np.zeros(q), scatter_matrix(q, stream, samplers), NU, n, stream)
        f = tyler(q)
        build, dist = timed(lambda: from_observations(x))
        budget = SolverConfig().existence_budget
        exist, _ = timed(lambda: check_existence(dist, f, budget))
        solve, est = timed(lambda: fixed_point_solve(dist, f))
        acov = f"{timed(lambda: acov_scatter(x, est, f), 1)[0]:.3g} s" if est.converged else "—"
        print(f"| n={n}, q={q} | {build:.3g} s | {exist:.3g} s | {solve:.3g} s | "
              f"{est.iterations} | {acov} |", flush=True)


if __name__ == "__main__":
    main()
