#!/usr/bin/env python3
"""Time the covering-path solver on random cacti of doubling size.

For each size n the solver runs on `repeats` seeded random cacti and the
best wall time is reported, together with the growth ratio between
successive sizes.  The solver evaluates each block once per bridge
direction and scores each root with one integer scan, so doubling n
about doubles the time: 1.8-2.2x per doubling from n = 100 to 1600
(0.002-0.003 s at n = 100, 0.03-0.05 s at n = 1600; three runs of
`--sizes 100 200 400 800 1600 --repeats 5`) on a shared 2-vCPU VM under
Python 3.11.

Usage: python3 scripts/benchmark_scaling.py [--sizes 100 200 400] [--repeats 3]
"""

import argparse
import time

from cactusq.covering_path import solve_cactus
from cactusq.graph_core import random_cactus


def best_time(n: int, repeats: int) -> float:
    best = float("inf")
    for seed in range(repeats):
        g = random_cactus(n, seed)
        start = time.perf_counter()
        walk = solve_cactus(g)
        elapsed = time.perf_counter() - start
        assert walk.is_covering(g)
        best = min(best, elapsed)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>6} {'best time':>10} {'ratio':>6}")
    previous = None
    for n in args.sizes:
        t = best_time(n, args.repeats)
        ratio = "" if previous is None else f"{t / previous:.1f}x"
        print(f"{n:>6} {t:>9.3f}s {ratio:>6}")
        previous = t


if __name__ == "__main__":
    main()
