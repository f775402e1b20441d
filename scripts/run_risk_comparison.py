#!/usr/bin/env python3
"""Desk-scale denoising risk comparison.

Sweeps the levelwise methods over the synthetic test signals and prints a
relative-risk table (rows = signals, columns = methods).  Optionally writes
the per-cell reports through the ``steinthresh simulate`` CSV writer, so the
file is byte-identical to ``simulate`` run with the same flags.

Example:
    python3 scripts/run_risk_comparison.py --n 1024 --reps 500 --seed 2024 \\
        --out results.csv
"""

import argparse
import sys

from steinthresh.cli import write_reports
from steinthresh.harness import risk_sweep
from steinthresh.testbed import SIGNAL_NAMES

DEFAULT_METHODS = ("zh", "zh-sure", "visu", "sure", "blockjs", "js")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p.add_argument("--signals", default=",".join(SIGNAL_NAMES))
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--snr", type=float, default=3.0)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--sigma-mode", choices=("known", "estimated"), default="known")
    p.add_argument("--out", help="also write rows as CSV to this path")
    args = p.parse_args(argv)

    methods = args.methods.split(",")
    signals = args.signals.split(",")
    reports = risk_sweep(
        methods,
        signals,
        [args.n],
        snr=args.snr,
        reps=args.reps,
        seed=args.seed,
        sigma_mode=args.sigma_mode,
    )

    rel = {(r.signal, r.method): r.relative_risk for r in reports}
    print(f"relative risk, n={args.n}, snr={args.snr}, reps={args.reps}, "
          f"sigma={args.sigma_mode}, seed={args.seed}")
    print(f"{'signal':>10} " + " ".join(f"{m:>9}" for m in methods))
    for s in signals:
        print(f"{s:>10} " + " ".join(f"{rel[s, m]:9.4f}" for m in methods))

    if args.out:
        write_reports(args.out, reports)
        print(f"wrote {len(reports)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
