"""Thresholding shrinkage estimators for a multivariate normal mean.

Observations are ``z = theta + sigma * noise`` with i.i.d. standard normal
noise in ``d`` coordinates.  The estimators here shrink each coordinate by an
amount proportional to ``|z_i|**(beta-1)`` relative to the pooled magnitude
``D = sum |z_i|**beta``, which both shrinks large coordinates gently and
thresholds small ones to exactly zero (in the positive-part form).  ``beta=2``
with ``a = d - 2`` recovers positive-part James-Stein.

All tuning rules are expressed through :class:`ShrinkConfig`; the constant
``a`` is resolved against the dimension by :func:`resolve_a`.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import special

from ._rng import substream

__all__ = [
    "A_RULES",
    "DEFAULT_BETA_GRID",
    "CanonicalSample",
    "ShrinkConfig",
    "batch_estimate",
    "batch_sure",
    "c_beta",
    "moment_constant",
    "monte_carlo_a_beta",
    "resolve_a",
    "select_beta_by_sure",
]

A_RULES = ("finite", "asymptotic", "eb", "theorem", "fixed")

# beta candidates used when tuning by unbiased risk; the risk formula needs
# beta > 1, and beta > 2 is outside the estimator family, hence a grid in (1, 2]
DEFAULT_BETA_GRID = tuple(1.0 + 0.05 * k for k in range(1, 21))

# most values (candidates x rows x d) one kernel pass of a batch_sure total
# scores, so its temporaries stay small (128 KiB each); a (candidate, row)
# total is one sum along d, so the block size does not change any pick
_SURE_BLOCK = 2**14

# monte_carlo_a_beta draws 2**21 values (16 MiB) per block from the block's own
# substream, so the block size fixes the result; each block is drawn in row
# chunks of about 2**17 values (1 MiB), which only bounds the temporaries
_MC_BLOCK = 2**21
_MC_CHUNK = 2**17

# finite stand-in for log 0: times beta - 2 = 0 it gives 0, as pow has 0**0 = 1,
# while beta > 0 and beta - 2 < 0 still take |0|**beta to 0 and |0|**(beta-2) to inf
_LOG_ZERO = -1e300

_DOUBLE_MAX = np.finfo(float).max


@dataclass(frozen=True)
class ShrinkConfig:
    """Estimator family member: exponent ``beta`` plus a rule for the constant ``a``.

    ``a_rule`` is one of ``finite`` (recommended finite-sample constant),
    ``asymptotic`` (sparse-regime constant growing like ``d`` times a slowly
    varying factor), ``eb`` (empirical-Bayes choice ``a = d``), ``theorem``
    (the largest constant certified minimax for 1 < beta <= 2), or ``fixed``
    (explicit ``fixed_a``).

    ``finite`` keeps the Bayes risk under normal priors below that of the raw
    data, but it is not pointwise minimax: it exceeds the ``theorem`` constant
    2(beta-1)d - 2beta, and every such constant has risk above ``d`` at large
    dense theta (at beta=4/3, d=50 its a=80 gives 53.2 at theta=(5,...,5)).
    """

    beta: float = 4.0 / 3.0
    a_rule: str = "finite"
    fixed_a: float | None = None

    def __post_init__(self):
        if not (0.0 < self.beta <= 2.0):
            raise ValueError(f"beta must be in (0, 2], got {self.beta}")
        if self.a_rule not in A_RULES:
            raise ValueError(f"a_rule must be one of {A_RULES}, got {self.a_rule!r}")
        if self.a_rule == "fixed":
            if self.fixed_a is None or not (self.fixed_a > 0 and math.isfinite(self.fixed_a)):
                raise ValueError("a_rule 'fixed' needs a positive finite fixed_a")
        elif self.fixed_a is not None:
            raise ValueError("fixed_a is only meaningful with a_rule 'fixed'")


def _per_row(x, z, name, ok=lambda v: 0 < v < math.inf, expected="positive and finite"):
    # a scalar as given (a Python number is checked without numpy); one value
    # per row of a 2-d z as an (m, 1) column
    values = (x,)
    if not isinstance(x, (int, float)) and np.ndim(x):
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        if z.ndim != 2 or len(x) != len(z):
            raise ValueError(f"need one {name} per row of a 2-d input, got {len(x)} values")
        values = x.ravel()
    if not all(map(ok, values)):
        raise ValueError(f"{name} must be {expected}, got {x}")
    return x


@dataclass
class CanonicalSample:
    """Observation vector ``z`` (d,), or rows of them (m, d), with known noise scale(s) ``sigma``."""

    z: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        if self.z.ndim not in (1, 2) or self.z.size < 1:
            raise ValueError("z must be a nonempty 1-d array, or a 2-d array of rows")
        if not np.isfinite(self.z).all():
            raise ValueError("z must be finite")
        self.sigma = _per_row(self.sigma, self.z, "sigma")


def moment_constant(beta):
    """E|N(0,1)|**beta, the absolute moment of the standard normal.

    Finite exactly when beta > -1.
    """
    if not beta > -1.0:
        raise ValueError(f"absolute moment requires beta > -1, got {beta}")
    return 2.0 ** (beta / 2.0) * math.exp(special.gammaln((beta + 1.0) / 2.0)) / math.sqrt(math.pi)


def c_beta(beta):
    """Large-d limit of the Bayes-risk-bound constant divided by d.

    Defined for 1/2 < beta <= 2; equals 2 at beta = 2 and 4/pi at beta = 1.
    """
    if not (0.5 < beta <= 2.0):
        raise ValueError(f"c_beta requires beta in (1/2, 2], got {beta}")
    log_c = 2.0 * special.gammaln((beta + 1.0) / 2.0) - special.gammaln((2.0 * beta - 1.0) / 2.0)
    return 4.0 * math.exp(log_c) / math.sqrt(math.pi)


def resolve_a(config, d):
    """Concrete shrinkage constant for dimension ``d`` under ``config.a_rule``."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    d = int(d)
    beta = config.beta
    if config.a_rule == "fixed":
        a = float(config.fixed_a)
    elif config.a_rule == "finite":
        if d < 3:
            raise ValueError("finite-sample rule needs d >= 3")
        a = 0.97 * (d - 2) * c_beta(beta)
    elif config.a_rule == "asymptotic":
        a = d * (2.0 * math.log(d)) ** ((2.0 - beta) / 2.0) * moment_constant(beta) if d > 1 else 0.0
    elif config.a_rule == "eb":
        a = float(d)
    else:  # theorem
        if not beta > 1.0:
            raise ValueError("minimaxity bound requires beta > 1")
        a = 2.0 * (beta - 1.0) * d - 2.0 * beta
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(
            f"rule {config.a_rule!r} gives non-positive a={a} at beta={beta}, d={d}"
        )
    return a


def batch_estimate(z, sigma, beta, a, positive_part=True):
    """Estimator over rows: ``z`` has shape (m, d), or (d,) for one sample.

    Per row, with ``w = z / sigma`` and ``D = sum |w_i|**beta``, returns
    ``sigma * (1 - a|w_i|**(beta-2)/D)+ * w_i``: coordinates with
    ``a|w_i|**(beta-2) >= D`` (w_i = 0 too when beta < 2) are exactly zero.
    ``positive_part=False`` subtracts ``a sign(w_i)|w_i|**(beta-1)/D``
    instead, which can overshoot past zero and rejects an all-zero row.
    ``sigma``, ``beta`` and ``a`` are each a scalar or an (m, 1) column, one
    value per row; a row's output does not depend on which form carries its
    values, except where numpy's power takes a scalar exponent of 2, 0.5 or
    -1 exactly and a column one through ``pow``: at beta = 2 or 0.5, at
    beta = 1 (``|w|**(beta-2)``) and, untruncated, at beta = 1.5.  A row
    whose ``D`` overflows (``|w|`` near 1e154 and up) has ``D = inf`` and is
    returned unshrunk, apart from its exact zeros.
    """
    z = np.asarray(z, dtype=float)
    a = _per_row(a, z, "a")
    beta = _per_row(beta, z, "beta", lambda b: 0.0 < b <= 2.0, "in (0, 2]")
    w = z / sigma
    absw = np.abs(w)
    # full-size passes in place; each swaps only the operand order of
    # a*|w|**(beta-2)/D (a*sign(w)*|w|**(beta-1)/D untruncated), so kept values
    # keep their bits, while the entries that copyto overwrites may pass
    # through inf and nan (|0|**(beta-2) times 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dnm = (absw**beta).sum(axis=-1)
        if positive_part:
            est = np.power(absw, beta - 2.0)
            est *= a
            est /= dnm[..., None]
            # zero where the ratio is not below 1; it is nan only where
            # |0|**(beta-2) = inf meets a D that overflowed to inf, a zero coordinate
            clip = ~(est < 1.0)
            np.subtract(1.0, est, out=est)
            est *= w
            np.copyto(est, 0.0, where=clip)
        else:
            if np.any(dnm == 0.0):
                raise ValueError("degenerate input: all coordinates zero")
            gain = np.power(absw, beta - 1.0)
            gain *= np.sign(w)
            gain *= a
            gain /= dnm[..., None]
            np.copyto(gain, 0.0, where=absw == 0.0)
            est = w - gain
    est *= sigma
    return est


def _sure_kernel(logw, clipped, var, beta, lead_power, a, scale, shift):
    # per-coordinate SURE of one level, prepared once by batch_sure as log|w|,
    # clipped = w**2 - 1 and var = sigma**2, at candidates given by columns of
    # one shape: beta, lead_power = beta - 2, a, scale = a*a + 2a*beta and
    # shift = 2a(beta - 1); the caller sets numpy's error handling
    pb = beta * logw
    np.exp(pb, out=pb)
    dnm = pb.sum(axis=-1, keepdims=True)
    if not dnm.all():
        raise ValueError("degenerate input: all coordinates zero")
    lead = lead_power * logw
    np.exp(lead, out=lead)
    # zero a coordinate when a*|w|**(beta-2) > D, tested as |w|**(beta-2) > D/a:
    # at beta = 2 (lead = 1) that is exactly a > D, and capping D/a below inf
    # zeroes |0|**(beta-2) = inf even where D overflowed
    clip = lead > np.minimum(dnm / a, _DOUBLE_MAX)
    lead /= dnm
    # kept: 1 + |w|**(beta-2)/D * (scale * |w|**beta/D - shift), in place on
    # pb with only the operand order swapped
    pb /= dnm
    pb *= scale
    pb -= shift
    pb *= lead
    pb += 1.0
    np.copyto(pb, clipped, where=clip)
    pb *= var
    return pb


def batch_sure(z, sigma, beta, a, total=False):
    """Per-coordinate unbiased risk estimate over rows of ``z`` (shape (m, d)).

    ``beta`` and ``a`` are scalars or columns of candidates, shape (G, 1),
    broadcast against the rows of ``z``: a single level ``z[None, :]`` scored
    against a column of G candidates gives a (G, d) result in one pass, and
    m rows against (G, 1, 1) candidates a (G, m, d) one.  ``sigma`` is a
    scalar or an (m, 1) column, one value per row.  The inputs are checked
    and ``log|w|`` and ``w**2 - 1`` formed once per call; the
    powers of ``|w|`` come from that ``log|w|``, with
    ``|w|**(2beta-2)/D**2`` formed as ``(|w|**(beta-2)/D) * (|w|**beta/D)``.
    A coordinate is clipped when ``a|w|**(beta-2) > D``, tested as
    ``|w|**(beta-2) > D/a``, which at beta = 2 is exactly ``a > D``.  Exact
    zeros follow ``pow``: ``|0|**beta`` is 0, and ``|0|**(beta-2)`` is 1 at
    beta = 2 and infinite below it, where such coordinates are always
    clipped, even in a row whose ``D`` overflows.  Clipped coordinates score
    ``w**2 - 1`` times ``sigma**2``.  Overflow gives inf or nan scores, not
    a warning.

    With ``total`` true the scores are summed along d instead, and
    candidates stacked on an extra leading axis (``beta`` or ``a`` of higher
    rank than ``z``) are scored a block at a time, each block at most
    ``max(_SURE_BLOCK, m * d)`` values, so the temporaries stay small.  Each
    total is one sum along d, so it has the bits of the summed full result.
    """
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    a = np.asarray(a, dtype=float)
    if not ((beta > 1.0) & (beta <= 2.0)).all():
        raise ValueError(f"unbiased risk formula requires beta in (1, 2], got {beta}")
    if not ((a > 0) & np.isfinite(a)).all():
        raise ValueError(f"a must be positive and finite, got {a}")
    if beta.shape != a.shape:
        # one candidate per (beta, a) pair, so the in-place passes of the
        # kernel already have the shape of the result
        beta, a = np.broadcast_arrays(beta, a)
    w = z / sigma
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        clipped = w * w - 1.0
        # log|w| in place of w, with exact zeros at the finite stand-in _LOG_ZERO
        logw = np.log(np.abs(w, out=w), out=w)
        np.maximum(logw, _LOG_ZERO, out=logw)
        terms = logw, clipped, sigma**2
        coef = beta, beta - 2.0, a, a * a + 2.0 * a * beta, 2.0 * a * (beta - 1.0)
        if not total:
            return _sure_kernel(*terms, *coef)
        if beta.ndim <= logw.ndim:  # no candidate axis to block over
            return _sure_kernel(*terms, *coef).sum(axis=-1)
        step = max(1, _SURE_BLOCK // logw.size)
        return np.concatenate([
            _sure_kernel(*terms, *(c[i:i + step] for c in coef)).sum(axis=-1)
            for i in range(0, len(beta), step)
        ])


@lru_cache(maxsize=64)
def _beta_candidates(beta_grid, d):
    # sorted distinct grid entries in (1, 2] and their finite-rule constants,
    # as read-only (G, 1, 1) columns that broadcast against (m, d) rows
    betas = sorted({float(b) for b in beta_grid if 1.0 < b <= 2.0})
    if not betas:
        raise ValueError("beta grid contains no values in (1, 2]")
    if d < 3:
        raise ValueError("beta selection needs d >= 3")
    a = [resolve_a(ShrinkConfig(beta=b, a_rule="finite"), d) for b in betas]
    cols = np.array(betas)[:, None, None], np.array(a)[:, None, None]
    for col in cols:
        col.setflags(write=False)
    return cols


def select_beta_by_sure(sample, beta_grid=None):
    """Pick (beta, a) on a grid by minimizing the unbiased risk estimate.

    Grid entries outside (1, 2] are ignored; if none remain a ValueError is
    raised.  ``a`` follows the finite-sample rule at each candidate.  The
    candidates are scored as a column by one :func:`batch_sure` call with
    ``total`` set, so the level is checked and its ``log|w|`` formed once,
    and its kernel runs once per block of at most ``max(_SURE_BLOCK, m * d)``
    values, counted over candidates x rows x d (a single block for one
    level of up to 819 coefficients on the default grid); exact zeros in the
    level score as they would through ``pow``.  Exact ties go to the larger
    beta.  A ValueError is raised when any candidate's total overflows
    (``|z|/sigma`` near 1e154 or above), since no pick is defined then.  A
    1-d sample gives floats; a sample of m rows gives arrays of m picks,
    each the pick of its row alone.
    """
    if beta_grid is None:
        beta_grid = DEFAULT_BETA_GRID
    rows = np.atleast_2d(sample.z)
    betas, a = _beta_candidates(tuple(beta_grid), rows.shape[1])
    # positional, so a wrapper that forwards *args (as bench/tracing.py's
    # call counter does) sees the same call
    totals = batch_sure(rows, sample.sigma, betas, a, True)
    if not np.isfinite(totals).all():
        raise ValueError("unbiased risk estimate overflowed: |z|/sigma too large to score a beta candidate")
    best = betas.shape[0] - 1 - np.argmin(totals[::-1], axis=0)
    if sample.z.ndim == 1:
        return float(betas[best[0], 0, 0]), float(a[best[0], 0, 0])
    return betas[best, 0, 0], a[best, 0, 0]


def _cpu_count():
    # cores this process may run on; os.cpu_count() where affinity is unknown
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mc_block(beta, d, seed, block, rows):
    # (sum of ratios, sum of squared ratios) over one block of ``rows`` replicates
    gen = substream(seed, block)
    step = max(1, _MC_CHUNK // d)
    ratio = np.empty(rows)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        xi = gen.standard_normal((hi - lo, d))
        np.abs(xi, out=xi)
        # one pow per value: p = |xi|**(beta-1), p*|xi| = |xi|**beta, p*p = |xi|**(2beta-2)
        p = np.power(xi, beta - 1.0)
        xi *= p
        np.square(p, out=p)
        np.divide(p.sum(axis=1), np.square(xi.sum(axis=1)), out=ratio[lo:hi])
    return float(ratio.sum()), float((ratio * ratio).sum())


def monte_carlo_a_beta(beta, d, reps, seed):
    """Simulated largest Bayes-risk-safe constant: 2 / E[sum|xi|**(2b-2) / (sum|xi|**b)**2].

    Returns (estimate, standard_error); xi is a d-vector of standard normals.
    At beta = 2 the expectation is E[1/chisq_d] = 1/(d-2), so the estimate
    converges to 2(d-2).  Deterministic in ``seed``: replicates come in
    blocks of ``_MC_BLOCK // d`` rows (16 MiB), block b drawn from
    ``substream(seed, b)`` in row chunks of about 1 MiB.  Sequential draws
    continue one stream and row sums do not depend on the chunking, so the
    chunk size does not change the result.  Blocks run on a thread pool of
    one thread per available core (none for a single block or core), and
    their partial sums are added in block order, so the result does not
    depend on the number of cores either.
    """
    if not (0.5 < beta <= 2.0):
        raise ValueError(f"simulated constant requires beta in (1/2, 2], got {beta}")
    if d < 3:
        raise ValueError("d must be at least 3")
    reps = int(reps)
    if reps < 1000:
        raise ValueError("need at least 1000 replicates")
    d = int(d)
    batch = max(1, _MC_BLOCK // d)
    sizes = [min(batch, reps - lo) for lo in range(0, reps, batch)]
    run = partial(_mc_block, beta, d, seed)
    workers = min(len(sizes), _cpu_count())
    if workers == 1:
        parts = list(map(run, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes))
    s1 = 0.0
    s2 = 0.0
    for p1, p2 in parts:
        s1 += p1
        s2 += p2
    mean = s1 / reps
    if not (math.isfinite(mean) and mean > 0):
        raise ArithmeticError(f"non-finite accumulation at beta={beta}, d={d}")
    var = max(0.0, (s2 - reps * mean * mean) / (reps - 1))
    se_mean = math.sqrt(var / reps)
    return 2.0 / mean, 2.0 * se_mean / mean**2
