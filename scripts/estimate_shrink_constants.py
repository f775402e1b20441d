#!/usr/bin/env python3
"""Tabulate the simulated shrink-constant bound across dimensions.

For each d, prints the Monte Carlo estimate of the largest safe shrink
constant next to the finite-sample rule 0.97*(d-2)*C_beta and the large-d
linear growth d*C_beta it approaches.

Example:
    python3 scripts/estimate_shrink_constants.py --beta 4/3 --d 10,50,200,1000
"""

import argparse
import sys
from fractions import Fraction

from steinthresh.canonical import ShrinkConfig, c_beta, monte_carlo_a_beta, resolve_a


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--beta", default="4/3", help="exponent in (1/2, 2], fractions allowed")
    p.add_argument("--d", default="5,10,50,200,1000", help="comma-separated dimensions")
    p.add_argument("--reps", type=lambda s: int(float(s)), default=200_000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    beta = float(Fraction(args.beta))
    dims = [int(t) for t in args.d.split(",")]
    cb = c_beta(beta)

    print(f"beta = {beta:.6g}, C_beta = {cb:.6f}, reps = {args.reps}")
    print(f"{'d':>6} {'simulated':>12} {'std_error':>10} {'finite_rule':>12} {'d*C_beta':>10}")
    for d in dims:
        est, se = monte_carlo_a_beta(beta, d, args.reps, seed=args.seed)
        finite = resolve_a(ShrinkConfig(beta=beta, a_rule="finite"), d)
        print(f"{d:>6} {est:>12.4f} {se:>10.4f} {finite:>12.4f} {d * cb:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
