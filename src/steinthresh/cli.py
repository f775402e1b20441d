"""Command-line surface: denoise a series, run risk sweeps, tabulate the shrink constant.

Exit codes: 0 success, 1 I/O error, 2 validation error.  All commands are
deterministic given --seed, and CSV output uses 17 significant digits so
values round-trip exactly.
"""

import argparse
import csv
import functools
import sys

import numpy as np

from .baselines import METHOD_NAMES, _pipeline_depth, apply_method, make_method, resolution_cutoff
from .canonical import A_RULES, ShrinkConfig, c_beta, monte_carlo_a_beta, resolve_a
from .dwt import dwt_forward, dwt_inverse
from .harness import estimate_sigma, risk_sweep
from .testbed import SIGNAL_NAMES

__all__ = ["main", "write_reports"]

# the --a-rule spellings, e.g. finite|asymptotic|eb|theorem|fixed:<real>
_A_RULE_CHOICES = "|".join("fixed:<real>" if r == "fixed" else r for r in A_RULES)


def _fmt(x):
    return format(float(x), ".17g")


def _real(text):
    # plain real, or a fraction like 4/3
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return float(num) / float(den)
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from None


def _count(text):
    try:
        value = float(text)
        rounded = int(round(value))  # inf overflows, nan is a ValueError
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a count: {text!r}") from None
    if rounded < 1 or abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return rounded


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer seed: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _sigma_flag(text):
    s = text.strip()
    if s == "auto":
        return "auto"
    value = _real(s)
    if not value > 0:
        raise argparse.ArgumentTypeError("sigma must be positive (or 'auto')")
    return value


def _a_rule(text):
    s = text.strip()
    if s in A_RULES and s != "fixed":
        return s, None
    if s.startswith("fixed:"):
        value = _real(s[len("fixed:"):])
        if not value > 0:
            raise argparse.ArgumentTypeError("fixed a must be positive")
        return "fixed", value
    raise argparse.ArgumentTypeError(f"invalid a-rule {text!r}; expected {_A_RULE_CHOICES}")


def _comma_list(text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def _count_list(text):
    return [_count(s) for s in _comma_list(text)]


def _build_method(name, beta, a_rule):
    if name == "zh":
        rule, fixed = a_rule
        return make_method("zh", config=ShrinkConfig(beta=beta, a_rule=rule, fixed_a=fixed))
    return make_method(name)


def cmd_denoise(args):
    data = np.loadtxt(args.input, delimiter=",", ndmin=1)
    if data.ndim != 1:
        raise ValueError("input must be a single-column CSV")
    n = data.size
    if n < 2 or n & (n - 1):
        raise ValueError(f"input length must be a power of two, got {n}")
    if not np.isfinite(data).all():
        raise ValueError("signal must be finite")
    if args.method == "identity":
        values = data
    else:
        cutoff = resolution_cutoff(n)
        decomp = dwt_forward(data, _pipeline_depth(n))
        if args.sigma == "auto":
            sigma = estimate_sigma(decomp)
            if not sigma > 0:
                raise ValueError("could not estimate sigma: degenerate finest detail level")
            print(f"estimated sigma = {_fmt(sigma)}")
        else:
            sigma = args.sigma
        method = _build_method(args.method, args.beta, args.a_rule)
        values = dwt_inverse(apply_method(method, decomp, sigma, cutoff))
    # one %-format over all values writes the same bytes as _fmt on each
    with open(args.out, "w", newline="\n") as fh:
        fh.write(("%.17g\n" * values.size) % tuple(values.tolist()))
    return 0


def cmd_simulate(args):
    methods = [_build_method(m, args.beta, args.a_rule) for m in args.methods]
    reports = risk_sweep(
        methods,
        args.signals,
        args.n,
        snr=args.snr,
        reps=args.reps,
        seed=args.seed,
        sigma_mode=args.sigma_mode,
        workers=args.workers,
    )
    write_reports(args.out, reports)
    return 0


def write_reports(path, reports):
    """Write RiskReports as the ``simulate`` CSV, one row per report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["signal", "method", "n", "snr", "reps", "mean_risk", "std_error", "relative_risk"])
        for r in reports:
            writer.writerow(
                [r.signal, r.method, r.n, _fmt(r.snr), r.reps,
                 _fmt(r.mean_risk), _fmt(r.std_error), _fmt(r.relative_risk)]
            )


def cmd_bound_a(args):
    # every d is checked before any is simulated, and every row is computed
    # before the table is printed, so a bad d costs no run and no partial output
    if min(args.d) < 3:
        raise ValueError("d must be at least 3")
    rows = []
    for d in args.d:
        estimate, std_error = monte_carlo_a_beta(args.beta, d, args.reps, args.seed)
        finite = resolve_a(ShrinkConfig(beta=args.beta, a_rule="finite"), d)
        rows.append(f"{args.beta:>10.6g} {d:>8d} {estimate:>14.6g} {std_error:>12.3g} "
                    f"{finite:>14.6g} {d * c_beta(args.beta):>14.6g}")
    print(f"{'beta':>10} {'d':>8} {'a_beta':>14} {'std_error':>12} {'finite_rule':>14} {'d_c_beta':>14}")
    print("\n".join(rows))
    return 0


@functools.cache
def _build_parser():
    # built once per process and never mutated after, so repeated main() calls share it
    parser = argparse.ArgumentParser(
        prog="steinthresh",
        description="Thresholding shrinkage estimators and a wavelet-regression risk testbed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    den = sub.add_parser("denoise", help="denoise a single-column CSV of 2**J samples")
    den.add_argument("--input", required=True, help="input CSV path")
    den.add_argument("--method", required=True, choices=METHOD_NAMES)
    den.add_argument("--sigma", type=_sigma_flag, default="auto",
                     help="noise scale, or 'auto' to estimate from the finest level")
    den.add_argument("--beta", type=_real, default=4.0 / 3.0,
                     help="shrinkage exponent for method zh (accepts fractions like 4/3)")
    den.add_argument("--a-rule", type=_a_rule, default=("finite", None),
                     help=f"constant rule for method zh: {_A_RULE_CHOICES}")
    den.add_argument("--out", required=True, help="output CSV path")
    den.set_defaults(func=cmd_denoise)

    sim = sub.add_parser("simulate", help="Monte Carlo risk sweep, written as CSV")
    sim.add_argument("--methods", type=_comma_list, required=True,
                     help=f"comma list from {','.join(METHOD_NAMES)}")
    sim.add_argument("--signals", type=_comma_list, required=True,
                     help=f"comma list from {','.join(SIGNAL_NAMES)}")
    sim.add_argument("--n", type=_count_list, required=True, help="comma list of sample sizes")
    sim.add_argument("--snr", type=_real, default=3.0)
    sim.add_argument("--reps", type=_count, default=500)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--sigma-mode", choices=("known", "estimated"), default="known")
    sim.add_argument("--beta", type=_real, default=4.0 / 3.0, help="exponent for method zh")
    sim.add_argument("--a-rule", type=_a_rule, default=("finite", None),
                     help=f"constant rule for method zh: {_A_RULE_CHOICES}")
    sim.add_argument("--workers", type=_count, default=1,
                     help="accepted for compatibility; no effect on results or execution")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bound-a", help="simulate the Bayes-risk-safe shrink constant")
    bnd.add_argument("--beta", type=_real, required=True, help="exponent in (1/2, 2]; fractions allowed")
    bnd.add_argument("--d", type=_count_list, required=True, help="comma list of dimensions")
    bnd.add_argument("--reps", type=_count, default=100000)
    bnd.add_argument("--seed", type=_seed, default=0)
    bnd.set_defaults(func=cmd_bound_a)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
