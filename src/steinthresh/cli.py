"""Command-line surface: denoise a series, run risk sweeps, tabulate the shrink constant.

Exit codes: 0 success, 1 I/O error, 2 validation error.  All commands are
deterministic given --seed: their bytes hold for one machine, one numpy
dispatch path (AVX-512 or AVX2, which round some last bits of pow, exp and
log differently) and one BLAS.  CSV output uses 17 significant digits so
values round-trip exactly.
"""

import argparse
import csv
import functools
import sys
import warnings

import numpy as np

from .baselines import METHOD_NAMES, _pipeline, apply_method, make_method
from .canonical import A_RULES, ShrinkConfig, _count as _count_rule, _data, _real as _real_rule, c_beta
from .canonical import monte_carlo_a_beta, resolve_a
from .dwt import dwt_forward, dwt_inverse, max_levels
from .harness import estimate_sigma, risk_sweep
from .testbed import SIGNAL_NAMES

__all__ = ["main"]

# the --a-rule spellings, e.g. finite|asymptotic|eb|theorem|fixed:<real>
_A_RULE_CHOICES = "|".join((*A_RULES, "fixed:<real>"))


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


def _integer(text):
    # digits exactly, at any size; other text as a real, an int when it is
    # integral, else as given, for the rule of the engine that reads it
    try:
        return int(text)
    except ValueError:
        value = _real(text)
        return int(value) if value.is_integer() else value


def _checked(rule, value, *args):
    # a library rule applied to a parsed value, its ValueError made argparse's usage error
    try:
        return rule(value, *args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sigma_flag(text):
    return "auto" if text.strip() == "auto" else _checked(_real_rule, _real(text), "sigma")


def _a_rule(text):
    # a rule name, or for fixed:<a> the constant a itself
    s = text.strip()
    if s in A_RULES:
        return s
    if s.startswith("fixed:"):
        return _checked(_real_rule, _real(s[len("fixed:"):]), "fixed a")
    raise argparse.ArgumentTypeError(f"invalid a-rule {text!r}; expected {_A_RULE_CHOICES}")


def _comma_list(text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def _integer_list(text):
    return [_integer(s) for s in _comma_list(text)]


def _methods(names, args):
    # --beta and --a-rule make one ShrinkConfig, checked whatever the methods;
    # only zh takes it
    config = ShrinkConfig(beta=args.beta, a_rule=args.a_rule)
    return [make_method(name, config if name == "zh" else None) for name in names]


def cmd_denoise(args):
    # the flags are checked before the input is read, as in simulate
    [method] = _methods([args.method], args)
    with warnings.catch_warnings():  # an empty input fails the length check below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(args.input, delimiter=",", ndmin=1)
    if data.ndim != 1:
        raise ValueError("input must be a single-column CSV")
    n = data.size
    max_levels(n)  # identity runs no transform, so its length is checked here
    data = _data(data, "signal", (1,))
    if args.method == "identity":
        values = data
    else:
        levels, cutoff = _pipeline(n)
        decomp = dwt_forward(data, levels)
        if args.sigma == "auto":
            sigma = estimate_sigma(decomp)
            print(f"estimated sigma = {_fmt(sigma)}")
        else:
            sigma = args.sigma
        values = dwt_inverse(apply_method(method, decomp, sigma, cutoff))
    # one %-format over all values writes the same bytes as _fmt on each
    with open(args.out, "w", newline="\n") as fh:
        fh.write(("%.17g\n" * values.size) % tuple(values.tolist()))
    return 0


def cmd_simulate(args):
    methods = _methods(args.methods, args)
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
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["signal", "method", "n", "snr", "reps", "mean_risk", "std_error", "relative_risk"])
        writer.writerows([r.signal, r.method, r.n, _fmt(r.snr), r.reps,
                          _fmt(r.mean_risk), _fmt(r.std_error), _fmt(r.relative_risk)] for r in reports)
    # relative risk (mean_risk / n): one row per (signal, n), one column per method
    width = len(methods)
    print(f"{'signal':>10} {'n':>6} " + " ".join(f"{m.name:>9}" for m in methods))
    for k in range(0, len(reports), width):
        cell = reports[k:k + width]
        print(f"{cell[0].signal:>10} {cell[0].n:>6} " + " ".join(f"{r.relative_risk:9.4f}" for r in cell))
    return 0


def cmd_bound_a(args):
    # the finite rule checks beta and every d before any is simulated, and every
    # row is computed before the table is printed, so a bad d costs no run and
    # no partial output
    config = ShrinkConfig(beta=args.beta, a_rule="finite")
    finite_rule = [resolve_a(config, d) for d in args.d]
    rows = []
    for d, finite in zip(args.d, finite_rule):
        estimate, std_error = monte_carlo_a_beta(args.beta, d, args.reps, args.seed)
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
    den.add_argument("--out", required=True, help="output CSV path")
    den.set_defaults(func=cmd_denoise)

    sim = sub.add_parser("simulate", help="Monte Carlo risk sweep, written as CSV")
    sim.add_argument("--methods", type=_comma_list, required=True,
                     help=f"comma list from {','.join(METHOD_NAMES)}")
    sim.add_argument("--signals", type=_comma_list, required=True,
                     help=f"comma list from {','.join(SIGNAL_NAMES)}")
    sim.add_argument("--n", type=_integer_list, required=True, help="comma list of sample sizes")
    sim.add_argument("--snr", type=_real, default=3.0)
    sim.add_argument("--reps", type=_integer, default=500)
    sim.add_argument("--seed", type=_integer, default=0)
    sim.add_argument("--sigma-mode", choices=("known", "estimated"), default="known")
    sim.add_argument("--workers", type=lambda text: _checked(_count_rule, _integer(text), "workers", 1), default=1,
                     help="accepted for compatibility; no effect on results or execution")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    zh = ShrinkConfig()
    for cmd in (den, sim):
        cmd.add_argument("--beta", type=_real, default=zh.beta,
                         help="shrinkage exponent for method zh (accepts fractions like 4/3)")
        cmd.add_argument("--a-rule", type=_a_rule, default=zh.a_rule,
                         help=f"constant rule for method zh: {_A_RULE_CHOICES}")

    bnd = sub.add_parser("bound-a", help="simulate the Bayes-risk-safe shrink constant")
    bnd.add_argument("--beta", type=_real, required=True, help="exponent in (1/2, 2]; fractions allowed")
    bnd.add_argument("--d", type=_integer_list, required=True, help="comma list of dimensions")
    bnd.add_argument("--reps", type=_integer, default=100000)
    bnd.add_argument("--seed", type=_integer, default=0)
    bnd.set_defaults(func=cmd_bound_a)

    return parser


def _attached(argv):
    # "--flag -value" as "--flag=-value": argparse reads a value that starts
    # with "-" and is not a plain negative decimal ("-inf", "-1e3") as a flag
    # of its own, but -h is this parser's only short flag and every long flag
    # but --help takes a value, so such a value reaches its flag's rule
    out = []
    for token in argv:
        if (out and token[:1] == "-" and token[:2] != "--" and token != "-h"
                and out[-1][:2] == "--" and "=" not in out[-1] and not "--help".startswith(out[-1])):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    try:
        args = _build_parser().parse_args(_attached(sys.argv[1:] if argv is None else argv))
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
