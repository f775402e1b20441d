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
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

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

A_RULES = ("finite", "asymptotic", "eb", "theorem")

# beta candidates used when tuning by unbiased risk; the risk formula needs
# beta > 1, and beta > 2 is outside the estimator family, hence a grid in (1, 2]
DEFAULT_BETA_GRID = tuple(1.0 + 0.05 * k for k in range(1, 21))

# most values (candidates x rows x d) one kernel pass of a batch_sure total
# scores, so its temporaries stay small (128 KiB each); a (candidate, row)
# total is one sum along d, so the block size does not change any pick
_SURE_BLOCK = 2**14

# monte_carlo_a_beta draws 2**21 values (16 MiB) per block from the block's own
# substream, so the block size fixes the result; each block is drawn in row
# chunks of about 2**15 values (256 KiB) into two buffers reused for every
# chunk of the block, so the chunk size only bounds the working set
_MC_BLOCK = 2**21
_MC_CHUNK = 2**15

# finite stand-in for log 0: times beta - 2 = 0 it gives 0, as pow has 0**0 = 1,
# while beta > 0 and beta - 2 < 0 still take |0|**beta to 0 and |0|**(beta-2) to inf
_LOG_ZERO = -1e300

_DOUBLE_MAX = np.finfo(float).max


@dataclass(frozen=True)
class ShrinkConfig:
    """Estimator family member: exponent ``beta`` plus a rule for the constant ``a``.

    ``a_rule`` is one of ``finite`` (recommended finite-sample constant, for
    beta > 1/2), ``asymptotic`` (sparse-regime constant growing like ``d``
    times a slowly varying factor), ``eb`` (empirical-Bayes choice ``a = d``)
    and ``theorem`` (the largest constant certified minimax, for 1 < beta <=
    2), or the constant ``a`` itself as a positive finite real number
    (Python or numpy, but not a bool).  Every check that needs no dimension
    is made here; :func:`resolve_a` makes the rest.

    ``finite`` keeps the Bayes risk under normal priors below that of the raw
    data, but it is not pointwise minimax: it exceeds the ``theorem`` constant
    2(beta-1)d - 2beta, and every such constant has risk above ``d`` at large
    dense theta (at beta=4/3, d=50 its a=80 gives 53.2 at theta=(5,...,5)).
    """

    beta: float = 4.0 / 3.0
    a_rule: str | float = "finite"

    def __post_init__(self):
        _real(self.beta, "beta", lambda b: (0.0 < b) & (b <= 2.0), "in (0, 2]")
        if not isinstance(self.a_rule, str):
            _real(self.a_rule, "a constant a_rule")
        elif self.a_rule not in A_RULES:
            raise ValueError(f"a_rule must be one of {A_RULES} or a positive finite a, got {self.a_rule!r}")
        if self.a_rule == "finite" and not self.beta > 0.5:  # c_beta's domain
            raise ValueError(f"finite-sample rule requires beta > 1/2, got {self.beta}")
        if self.a_rule == "theorem" and not self.beta > 1.0:
            raise ValueError(f"minimaxity bound requires beta > 1, got {self.beta}")


def _real(x, name, ok=lambda v: (0 < v) & (v < math.inf), expected="positive and finite", arrays=False):
    # a real number (Python or numpy, not a bool, str or complex) that meets
    # ok, as given; a plain float or int is checked without the numbers ABC.
    # With arrays set, also an array (or list) of integers or floats, of one
    # or more dimensions, whose every value meets ok, as float; ok takes either
    if type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool):
        if ok(x):
            return x
    elif arrays and (col := _floats(x)) is not None and col.ndim and ok(col).all():
        return col
    raise ValueError(f"{name} must be {expected}, got {x!r}")


def _floats(x):
    # x as a float array if it holds integers or floats alone, else None;
    # numpy makes a bool among a list's numbers a number, so a list's items are read too
    arr = np.asarray(x)
    if arr.dtype.kind in "iuf" and (isinstance(x, np.ndarray) or not any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(x, object).flat)):
        return arr.astype(float, copy=False)


def _data(x, name, ranks=(1, 2)):
    # a nonempty, finite array (or list) of integers or floats of one of the
    # ranks, as float64; float64 input is returned as given, not copied
    arr = _floats(x)
    if arr is not None and arr.ndim in ranks and arr.size and np.isfinite(arr).all():
        return arr
    rank = " or ".join(f"{k}-d" for k in ranks)
    raise ValueError(f"{name} must be finite, in a nonempty {rank} array of integers or floats, "
                     f"got {_held(x)} (shape {np.shape(x)})")


def _held(x):
    # what x holds, for a message: the first bool or string item of a list,
    # whose dtype numpy may make float64 or str, else x's dtype
    items = () if isinstance(x, np.ndarray) else np.asarray(x, object).flat
    v = next((v for v in items if isinstance(v, (bool, np.bool_, str))), None)
    return np.asarray(x).dtype if v is None else f"{type(v).__name__} item {v!r}"


def _per_row(x, z, name, ok=lambda v: (0 < v) & (v < math.inf), expected="positive and finite"):
    # a real scalar as _real takes it, or one value per row of a 2-d z as an
    # (m, 1) float column
    x = _real(x, name, ok, expected, arrays=True)
    if isinstance(x, np.ndarray):
        x = x.reshape(-1, 1)
        if z.ndim != 2 or len(x) != len(z):
            raise ValueError(f"need one {name} per row of a 2-d input, got {len(x)} values")
    return x


def _count(x, name, floor):
    # an integer count (int or numpy integer, not a bool) of at least floor,
    # as an int; a float is rejected, not truncated, even when it is integral
    integer = lambda v: isinstance(v, (int, np.integer)) and v >= floor
    return int(_real(x, name, integer, f"an integer >= {floor}"))


@dataclass
class CanonicalSample:
    """Observation vector ``z`` (d,), or rows of them (m, d), with known noise scale(s) ``sigma``."""

    z: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        self.z = _data(self.z, "z")
        self.sigma = _per_row(self.sigma, self.z, "sigma")


def moment_constant(beta):
    """E|N(0,1)|**beta, the absolute moment of the standard normal.

    Finite exactly when beta > -1.
    """
    _real(beta, "beta", lambda b: b > -1.0, "> -1")
    return 2.0 ** (beta / 2.0) * math.exp(math.lgamma((beta + 1.0) / 2.0)) / math.sqrt(math.pi)


def c_beta(beta):
    """Large-d limit of the Bayes-risk-bound constant divided by d.

    Defined for 1/2 < beta <= 2; equals 2 at beta = 2 and 4/pi at beta = 1.
    """
    _real(beta, "beta", lambda b: (0.5 < b) & (b <= 2.0), "in (1/2, 2]")
    log_c = 2.0 * math.lgamma((beta + 1.0) / 2.0) - math.lgamma((2.0 * beta - 1.0) / 2.0)
    return 4.0 * math.exp(log_c) / math.sqrt(math.pi)


def resolve_a(config, d):
    """Concrete shrinkage constant for dimension ``d`` under ``config.a_rule``."""
    if not isinstance(config, ShrinkConfig):
        raise ValueError(f"config must be a ShrinkConfig, got {config!r}")
    d = _count(d, "d", 1)
    beta, rule = config.beta, config.a_rule
    if rule == "finite":
        if d < 3:
            raise ValueError("finite-sample rule needs d >= 3")
        a = 0.97 * (d - 2) * c_beta(beta)
    elif rule == "asymptotic":
        a = d * (2.0 * math.log(d)) ** ((2.0 - beta) / 2.0) * moment_constant(beta) if d > 1 else 0.0
    elif rule == "eb":
        a = float(d)
    elif rule == "theorem":
        a = 2.0 * (beta - 1.0) * d - 2.0 * beta
    else:  # the constant itself
        a = float(rule)
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"rule {rule!r} gives non-positive a={a} at beta={beta}, d={d}")
    return a


def batch_estimate(z, sigma, beta, a, positive_part=True, segments=None):
    """Estimator over rows: ``z`` has shape (m, d), or (d,) for one sample.

    Per row, with ``w = z / sigma`` and ``D = sum |w_i|**beta``, returns
    ``sigma * (1 - a|w_i|**(beta-2)/D)+ * w_i``: coordinates with
    ``a|w_i|**(beta-2) >= D`` (w_i = 0 too when beta < 2) are exactly zero.
    ``positive_part=False`` subtracts ``a sign(w_i)|w_i|**(beta-1)/D``
    instead, which can overshoot past zero and rejects an all-zero row.
    ``sigma``, ``beta`` and ``a`` are each a scalar or an (m, 1) column, one
    value per row (``sigma`` and ``a`` positive and finite, ``beta`` in
    (0, 2]); a row's output does not depend on which form carries its
    values, except where numpy's power takes a scalar exponent of 2, 0.5 or
    -1 exactly and a column one through ``pow``: at beta = 2 or 0.5, at
    beta = 1 (``|w|**(beta-2)``) and, untruncated, at beta = 1.5.  A row
    whose ``D`` overflows (``|w|`` near 1e154 and up) has ``D = inf`` and is
    returned unshrunk, apart from its exact zeros.  ``z`` is a data array
    (nonempty, finite, of integers or floats), so a nan or inf in it raises
    ValueError in either form.

    ``segments``, a tuple of (start, stop) column bounds that tile the last
    axis, makes each segment of a row a sample of its own with its own
    ``D``; ``a`` then holds one value per segment, and each segment's output
    has the bits of a call on that segment alone.
    """
    z = _data(z, "z")
    sigma = _per_row(sigma, z, "sigma")
    if segments is None:
        segments, a = ((0, z.shape[-1]),), [_per_row(a, z, "a")]
    else:
        a = _real(a, "a", arrays=True)
        if np.shape(a) != (len(segments),):
            raise ValueError(f"need one a per segment, got {a!r}")
        starts = [0] + [hi for _, hi in segments]
        if ([lo for lo, _ in segments] != starts[:-1] or starts[-1] != z.shape[-1]
                or any(lo > hi for lo, hi in segments)):
            raise ValueError(f"segments must tile the last axis of length {z.shape[-1]}, got {segments}")
    beta = _per_row(beta, z, "beta", lambda b: (0.0 < b) & (b <= 2.0), "in (0, 2]")
    w = z / sigma
    absw = np.abs(w)
    # full-size passes in place; each swaps only the operand order of
    # a*|w|**(beta-2)/D (a*sign(w)*|w|**(beta-1)/D untruncated), so kept values
    # keep their bits, while the entries that copyto overwrites may pass
    # through inf and nan (|0|**(beta-2) times 0).  Each segment is scaled by
    # its own a and D column in place, with no full-width copy of either
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dnm = [(absw[..., lo:hi]**beta).sum(axis=-1, keepdims=True) for lo, hi in segments]
        for (lo, hi), dk in zip(segments, dnm):
            if not positive_part and hi > lo and (dk == 0.0).any():
                raise ValueError("degenerate input: all coordinates zero")
        zero = None if positive_part else absw == 0.0
        est = np.power(absw, beta - 2.0 if positive_part else beta - 1.0, out=absw)
        if not positive_part:
            est *= np.sign(w)
        for (lo, hi), ak, dk in zip(segments, a, dnm):
            est[..., lo:hi] *= ak
            est[..., lo:hi] /= dk
        if positive_part:
            # zero where the ratio is not below 1; it is nan only where
            # |0|**(beta-2) = inf meets a D that overflowed to inf, a zero coordinate
            clip = ~(est < 1.0)
            np.subtract(1.0, est, out=est)
            est *= w
            np.copyto(est, 0.0, where=clip)
        else:
            np.copyto(est, 0.0, where=zero)
            np.subtract(w, est, out=est)
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
    lead = lead_power * logw
    np.exp(lead, out=lead)
    # zero a coordinate when a*|w|**(beta-2) > D, tested as |w|**(beta-2) > D/a:
    # at beta = 2 (lead = 1) that is exactly a > D, and capping D/a below inf
    # zeroes |0|**(beta-2) = inf even where D overflowed; an all-zero row
    # (D = 0) is clipped throughout, so the nan and inf of its kept formula
    # are overwritten by copyto
    clip = lead > np.minimum(dnm / a, _DOUBLE_MAX)
    # D divides twice, so it is spread to full width once: numpy's pass
    # against a contiguous operand is faster than against a stride-0 column
    dnm = np.repeat(dnm, pb.shape[-1], axis=-1)
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
    positive finite scalar or an (m, 1) column of them, one value per row,
    as in :func:`batch_estimate`.  The inputs are checked
    and ``log|w|`` and ``w**2 - 1`` formed once per call; the
    powers of ``|w|`` come from that ``log|w|``, with
    ``|w|**(2beta-2)/D**2`` formed as ``(|w|**(beta-2)/D) * (|w|**beta/D)``.
    A coordinate is clipped when ``a|w|**(beta-2) > D``, tested as
    ``|w|**(beta-2) > D/a``, which at beta = 2 is exactly ``a > D``.  Exact
    zeros follow ``pow``: ``|0|**beta`` is 0, and ``|0|**(beta-2)`` is 1 at
    beta = 2 and infinite below it, where such coordinates are always
    clipped, even in a row whose ``D`` overflows.  Clipped coordinates score
    ``w**2 - 1`` times ``sigma**2``, so an all-zero row (``D = 0``, every
    coordinate clipped) scores ``-sigma**2`` per coordinate at every
    candidate.  Overflow gives inf or nan scores, not a warning.  ``z`` is
    a data array, as in :func:`batch_estimate`: a nan or inf in it raises
    ValueError.

    With ``total`` true the scores are summed along d instead, and
    candidates stacked on an extra leading axis (``beta`` or ``a`` of higher
    rank than ``z``) are scored a block at a time, each block at most
    ``max(_SURE_BLOCK, m * d)`` values, so the temporaries stay small.  Each
    total is one sum along d, so it has the bits of the summed full result.
    """
    z = _data(z, "z")
    sigma = _per_row(sigma, z, "sigma")
    beta = _real(beta, "beta", lambda b: (1.0 < b) & (b <= 2.0), "in (1, 2]", arrays=True)
    beta, a = np.asarray(beta, dtype=float), np.asarray(_real(a, "a", arrays=True), dtype=float)
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
        # a column sigma**2 scales every kernel block, so it is spread to the
        # level's full width once per call
        var = sigma**2 if np.ndim(sigma) == 0 else np.repeat(sigma**2, logw.shape[-1], axis=-1)
        terms = logw, clipped, var
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
def _beta_candidates(d):
    # DEFAULT_BETA_GRID and its finite-rule constants at dimension d, as
    # read-only (G, 1, 1) columns that broadcast against (m, d) rows
    a = [resolve_a(ShrinkConfig(beta=b, a_rule="finite"), d) for b in DEFAULT_BETA_GRID]
    cols = np.array(DEFAULT_BETA_GRID)[:, None, None], np.array(a)[:, None, None]
    for col in cols:
        col.setflags(write=False)
    return cols


def select_beta_by_sure(sample):
    """Pick (beta, a) on ``DEFAULT_BETA_GRID`` by minimizing the unbiased risk estimate.

    ``a`` follows the finite-sample rule at each candidate.  The candidates
    are scored as a column by one :func:`batch_sure` call with ``total`` set,
    so the level is checked and its ``log|w|`` formed once, and its kernel
    runs once per block of at most ``max(_SURE_BLOCK, m * d)`` values,
    counted over candidates x rows x d (a single block for one level of up
    to 819 coefficients); exact zeros in the level score as they would
    through ``pow``.  Exact ties go to the larger beta, so an all-zero row,
    which scores ``-d * sigma**2`` at every candidate, picks beta = 2.  A
    ValueError is raised when any candidate's total overflows (``|z|/sigma``
    near 1e154 or above), since no pick is defined then.  A 1-d sample gives
    floats; a sample of m rows gives arrays of m picks, each the pick of its
    row alone.
    """
    rows = np.atleast_2d(sample.z)
    betas, a = _beta_candidates(rows.shape[1])
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
    step = min(max(1, _MC_CHUNK // d), rows)
    ratio = np.empty(rows)
    xi_buf = np.empty((step, d))
    p_buf = np.empty((step, d))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        # a draw into ``out`` continues the stream exactly as a sized draw does
        xi = gen.standard_normal(out=xi_buf[: hi - lo])
        np.abs(xi, out=xi)
        # one pow per value: p = |xi|**(beta-1), p*|xi| = |xi|**beta, p*p = |xi|**(2beta-2)
        p = np.power(xi, beta - 1.0, out=p_buf[: hi - lo])
        xi *= p
        np.square(p, out=p)
        np.divide(p.sum(axis=1), np.square(xi.sum(axis=1)), out=ratio[lo:hi])
    # the chunk buffers go before the reduction, which needs only ratio
    del xi_buf, p_buf, xi, p
    s1 = float(ratio.sum())
    # squared in place: np.square is ratio * ratio without a block-length temporary
    return s1, float(np.square(ratio, out=ratio).sum())


def monte_carlo_a_beta(beta, d, reps, seed):
    """Simulated largest Bayes-risk-safe constant: 2 / E[sum|xi|**(2b-2) / (sum|xi|**b)**2].

    Returns (estimate, standard_error); xi is a d-vector of standard normals.
    At beta = 2 the expectation is E[1/chisq_d] = 1/(d-2), so the estimate
    converges to 2(d-2).  Deterministic in ``seed``: replicates come in
    blocks of ``_MC_BLOCK // d`` rows (16 MiB), block b drawn from
    ``substream(seed, b)`` in row chunks of about 256 KiB, drawn into two
    buffers reused for every chunk of the block.  Sequential draws
    continue one stream and row sums do not depend on the chunking, so the
    chunk size does not change the result.  Blocks run on a thread pool of
    one thread per available core, at most one per block, and their partial
    sums are added in block order, so the result does not depend on the
    number of cores either.  ``d``, ``reps`` and ``seed`` must be integers
    (Python or numpy), the seed at least 0; a float, even an integral one,
    raises ValueError rather than being truncated, as does a bool or a
    sequence seed.
    """
    _real(beta, "beta", lambda b: (0.5 < b) & (b <= 2.0), "in (1/2, 2]")
    d = _count(d, "d", 3)
    reps = _count(reps, "reps", 1000)
    seed = _count(seed, "seed", 0)
    batch = max(1, _MC_BLOCK // d)
    sizes = [min(batch, reps - lo) for lo in range(0, reps, batch)]
    run = partial(_mc_block, beta, d, seed)
    with ThreadPoolExecutor(min(len(sizes), _cpu_count())) as pool:
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
