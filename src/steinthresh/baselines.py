"""Levelwise wavelet-domain shrinkage methods.

Every method maps a decomposition to a new decomposition of identical shape,
touching only detail levels at or above a resolution cutoff; the coarse block
and coarser details pass through bit-identical.  Coefficients stay in raw
units where each has standard deviation sigma (the transform is orthonormal),
so unit-variance thresholds are multiplied by sigma.  On a decomposition of
rows (one signal each, sigma a scalar or one per row) each row's output is
that of the row on its own.

Methods are addressed by short tokens, the keys of one rule table that also
supplies the CLI method names.  Every rule has the one shape
``rule(t, sigma, n, config, levels, scratch)``: it shrinks ``t`` in place
and returns None.  ``t`` is the treated slice of a writable dyadic array
(``apply_method``'s copy of the decomposition's, or a sweep's work array),
as (m, T) rows holding every treated level side by side.  ``levels`` gives
each level's (start, stop) columns within the slice, n is the length of
one signal, sigma a scalar or an (m, 1) column and config the method's
ShrinkConfig (None for all but zh).  ``scratch`` is None or an array of
``t``'s shape whose values are never read before they are written: visu and
sure take their signs there, zh and js their |w|, so a sweep's rules run in
its per-thread workspace, while ``apply_method`` passes None and each rule
allocates its temporaries as it needs them.  A level's output has the bits
of the rule run on that level alone.  visu, js and zh are one elementwise pass over
the whole slice, with per-level constants and sums spread over each level's
columns; sure picks its threshold level by level, then thresholds the slice
in one pass; blockjs and zh-sure loop over the levels themselves, each
shrinking one level of the slice at a time.

    identity   pass-through (risk of the raw data)
    visu       soft thresholding at the universal level sigma*sqrt(2 ln n)
    sure       hybrid per-level soft thresholding (sparsity test, then an
               unbiased-risk-minimizing threshold)
    blockjs    block-wise James-Stein-type scaling on blocks of ~ln n
    js         levelwise positive-part James-Stein
    zh         levelwise thresholding shrinkage from :mod:`.canonical` (this
               package's method)
    zh-sure    same, with beta tuned per level by unbiased risk
"""

import math
from dataclasses import dataclass

import numpy as np

from .canonical import (
    CanonicalSample,
    ShrinkConfig,
    _data,
    _floats,
    _held,
    _per_row,
    _real,
    _shrink,
    resolve_a,
    select_beta_by_sure,
)
from .dwt import WaveletDecomposition, max_levels

__all__ = [
    "BLOCK_CRITICAL",
    "METHOD_NAMES",
    "LevelwiseMethod",
    "apply_method",
    "make_method",
    "resolution_cutoff",
    "soft_threshold",
]

# block scaling factor is (1 - BLOCK_CRITICAL * L * sigma^2 / S^2)+ with
# BLOCK_CRITICAL the root of x - log x = 3, per Cai (1999), as is L = floor(ln n)
BLOCK_CRITICAL = 4.50524


def resolution_cutoff(n):
    """Lowest integer level j >= log2(log n) + 1; coarser levels are left alone."""
    max_levels(n)  # an integer power of two >= 2
    return math.ceil(math.log2(math.log(n)) + 1.0)


def _pipeline(n):
    # (transform levels, cutoff) of the denoising pipeline at length n: the
    # transform stops at the cutoff, so every detail level it makes is treated
    cutoff = resolution_cutoff(n)
    levels = max_levels(n) - cutoff
    if levels < 1:
        raise ValueError(f"n={n} leaves no detail level above the resolution cutoff")
    return levels, cutoff


def soft_threshold(x, lam):
    """sign(x) * (|x| - lam)+ elementwise, on a copy of x; lam must be nonnegative.

    x is a number or an array (or list) of integers or floats of any rank.
    """
    if (arr := _floats(x)) is None:
        raise ValueError(f"x must hold integers or floats, not bools or strings, got {_held(x)}")
    return _soft(np.array(arr), _real(lam, "lambda", lambda v: v >= 0, "nonnegative"))


def _soft(x, lam, sign=None):
    # sign(x) * (|x| - lam)+ in place on x, and x returned; lam is a scalar or
    # an array that broadcasts against x; the signs go to sign, an array of
    # x's shape, or a new one
    sign = np.sign(x, out=sign)
    np.abs(x, out=x)
    x -= lam
    np.maximum(x, 0.0, out=x)
    x *= sign
    return x


def _hybrid_threshold(w):
    # per-row hybrid rule of Donoho-Johnstone (1995) on (m, d) standardized
    # rows, as an (m, 1) column: a row that looks sparse takes the universal
    # threshold sqrt(2 ln d); any other minimizes SURE(t) = d - 2#{|w|<=t} +
    # sum min(w^2, t^2) over t in {0} u {|w_i| <= universal}.  Sparsity test:
    # (sum w^2 - d)/d <= (log2 d)^{3/2}/sqrt(d).  Squares that overflow (|w|
    # near 1e154 and up) make a level dense and only reach the risks of
    # candidates above the universal threshold, which are dropped anyway.
    m, d = w.shape
    universal = math.sqrt(2.0 * math.log(d))
    with np.errstate(over="ignore"):
        energy_excess = ((w[:, None, :] @ w[:, :, None])[:, 0] - d) / d  # each row's w @ w, same bits
    thresh = np.full((m, 1), universal)
    dense = np.flatnonzero(energy_excess[:, 0] > math.log2(d) ** 1.5 / math.sqrt(d))
    if dense.size:
        # column 0 is t = 0 and column k the k-th smallest |w|, counted as k
        # kept; a tie overstates only its earlier copies, so argmin finds the
        # same t as counting every |w| <= t
        aw = np.sort(np.abs(w[dense]), axis=-1)
        cand = np.concatenate([np.zeros((dense.size, 1)), aw], axis=-1)
        counts = np.arange(d + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.concatenate([np.zeros((dense.size, 1)), np.cumsum(aw * aw, axis=-1)], axis=-1)
            risks = d - 2.0 * counts + cum + cand * cand * (d - counts)
        risks[cand > universal] = np.inf
        thresh[dense, 0] = cand[np.arange(dense.size), np.argmin(risks, axis=-1)]
    return thresh


def _visu(t, sigma, n, config, levels, scratch):
    # soft thresholding at the universal level sigma*sqrt(2 ln n), with n the
    # global size (not the level size) as in the classical implementation
    _soft(t, sigma * math.sqrt(2.0 * math.log(n)), scratch)


def _sure(t, sigma, n, config, levels, scratch):
    # per-level hybrid soft thresholding: sparse levels get the universal
    # threshold; each row is thresholded on its own, and each level is
    # standardized where it is scored, so no standardized slice is held
    thresh = np.hstack([_hybrid_threshold(t[:, lo:hi] / sigma) for lo, hi in levels]) * sigma
    _soft(t, np.repeat(thresh, [hi - lo for lo, hi in levels], axis=-1), scratch)


def _blockjs(t, sigma, n, config, levels, scratch):
    # scale each level's contiguous blocks of length floor(ln n) by
    # (1 - c L sigma^2 / S^2)+, S^2 the block's sum of squares; the level is
    # padded cyclically from its start to whole blocks, the padded copy is
    # scaled and its real columns written back; an S^2 that overflows to inf
    # scales by 1
    block_len = math.floor(math.log(n))
    if block_len < 1:
        raise ValueError(f"n must be at least 3 for a nonempty block, got {n}")
    kill = BLOCK_CRITICAL * block_len * sigma * sigma
    for lo, hi in levels:
        d = hi - lo
        padded = t[:, lo:hi].take(np.arange(-(-d // block_len) * block_len), axis=-1, mode="wrap")
        blocks = padded.reshape(len(t), -1, block_len)
        with np.errstate(divide="ignore", over="ignore"):
            blocks *= np.maximum(1.0 - kill / (blocks * blocks).sum(axis=-1), 0.0)[..., None]
        t[:, lo:hi] = padded[:, :d]


def _js(t, sigma, n, config, levels, scratch):
    # levelwise positive-part James-Stein, the canonical beta=2, a=d-2 path;
    # levels with fewer than 3 coefficients (at most the first two) pass through unchanged
    kept = [(lo, hi) for lo, hi in levels if hi - lo >= 3]
    if kept:
        skip = kept[0][0]
        segments = tuple((lo - skip, hi - skip) for lo, hi in kept)
        v = t[:, skip:]
        _shrink(v, sigma, 2.0, [hi - lo - 2.0 for lo, hi in kept], True, segments, out=v,
                scratch=None if scratch is None else scratch[:, skip:])


def _zh(t, sigma, n, config, levels, scratch):
    # the canonical thresholding estimator, with the constant a resolved
    # against each level's own coefficient count
    _shrink(t, sigma, config.beta, [resolve_a(config, hi - lo) for lo, hi in levels], True, levels, out=t,
            scratch=scratch)


def _zh_sure(t, sigma, n, config, levels, scratch):
    # like zh, but beta (and its finite-rule a) is tuned per level and row by
    # unbiased risk, read from the level in place; an all-zero row scores
    # -sigma**2 per coordinate at every candidate, so it picks beta = 2 and
    # comes out as +0.0.  A level's rows are shrunk by the estimator's kernel
    # in one call with beta and a as per-row columns, except those that
    # picked beta = 2: they share one scalar call, as a scalar exponent 2 is
    # numpy's exact square while a column exponent runs pow.  Each call
    # shrinks its copy of the rows in place, and the copy is written back
    s = sigma if np.ndim(sigma) else np.full((len(t), 1), sigma)
    for lo, hi in levels:
        v = t[:, lo:hi]
        betas, a = select_beta_by_sure(CanonicalSample(v, s))
        two = betas == 2.0
        for rows, beta, ak in ((two, 2.0, a[two][:1]), (~two, betas[~two, None], a[~two, None])):
            if rows.any():
                w = v[rows]
                v[rows] = _shrink(w, s[rows], beta, [ak], True, ((0, hi - lo),), out=w)


_RULES = {
    "identity": lambda t, sigma, n, config, levels, scratch: None,
    "visu": _visu,
    "sure": _sure,
    "blockjs": _blockjs,
    "js": _js,
    "zh": _zh,
    "zh-sure": _zh_sure,
}

METHOD_NAMES = tuple(_RULES)


@dataclass(frozen=True)
class LevelwiseMethod:
    """A named levelwise method plus its method-specific parameters; 'zh' defaults to ShrinkConfig()."""

    name: str
    config: ShrinkConfig | None = None

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; known: {METHOD_NAMES}")
        if self.config is not None and not (self.name == "zh" and isinstance(self.config, ShrinkConfig)):
            raise ValueError(f"only 'zh' takes a config, and only a ShrinkConfig; {self.name!r} got {self.config!r}")
        if self.name == "zh" and self.config is None:
            object.__setattr__(self, "config", ShrinkConfig())  # frozen, so set directly


make_method = LevelwiseMethod


def apply_method(method, decomp, sigma, cutoff_level):
    """Apply a LevelwiseMethod to every detail level at or above ``cutoff_level``; sigma may be per row.

    The result is a new decomposition over a copy of the input's dyadic
    array.  The method's rule shrinks that copy's treated levels in place,
    as one (m, T) slice of rows, a 1-d decomposition being m = 1;
    below-cutoff levels and the coarse block keep their bits.  sigma is
    checked for every method, identity included: it must be positive and
    finite, a scalar or one value per row.  Every coefficient must be
    finite too, for every method, since the rules shrink in place with no
    check of their own.  ``method`` must be a LevelwiseMethod; anything
    else, a bare name included, raises ValueError.
    """
    if not isinstance(method, LevelwiseMethod):
        raise ValueError(f"method must be a LevelwiseMethod, got {method!r}")
    _real(cutoff_level, "cutoff_level", math.isfinite, "finite")
    sigma = _per_row(sigma, decomp.coarse, "sigma")
    out = _data(decomp.values, "decomposition values").copy()
    size = decomp.coarse.shape[-1]
    _shrink_levels(method, out, sigma, size, cutoff_level, None)
    return WaveletDecomposition(out, size)


def _shrink_levels(method, values, sigma, size, cutoff_level, scratch):
    # the method's rule, in place, on the levels from cutoff_level up of
    # values, dyadic rows (or one row) whose coarse block has length size,
    # as one (m, T) slice; sigma is a scalar or column as apply_method checks
    # it; scratch is None or an array of values' shape, whose same slice the
    # rule may overwrite
    n = values.shape[-1]
    first = max(math.ceil(cutoff_level), size.bit_length() - 1)
    if 2**first < n:
        levels = tuple((2**j - 2**first, 2**(j + 1) - 2**first) for j in range(first, n.bit_length() - 1))
        part = None if scratch is None else np.atleast_2d(scratch)[:, 2**first:]
        _RULES[method.name](np.atleast_2d(values)[:, 2**first:], sigma, n, method.config, levels, part)
