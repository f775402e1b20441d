"""Levelwise wavelet-domain shrinkage methods.

Every method maps a decomposition to a new decomposition of identical shape,
touching only detail levels at or above a resolution cutoff; the coarse block
and coarser details pass through bit-identical.  Coefficients stay in raw
units where each has standard deviation sigma (the transform is orthonormal),
so unit-variance thresholds are multiplied by sigma.  On a decomposition of
rows (one signal each, sigma a scalar or one per row) each row's output is
that of the row on its own.

Methods are addressed by short tokens, the keys of one rule table that also
supplies the CLI method names.  Each rule is a plain function
``rule(v, sigma, n, config)`` that maps one treated level's (m, d) rows ``v``
to shrunk rows of the same shape, with n the length of one signal, sigma a
scalar or an (m, 1) column and config the method's ShrinkConfig (None for all
but zh):

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
    DEFAULT_BETA_GRID,
    CanonicalSample,
    ShrinkConfig,
    _per_row,
    batch_estimate,
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
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    return math.ceil(math.log2(math.log(n)) + 1.0)


def _pipeline_depth(n):
    # transform levels that leave at least one detail level at or above the cutoff
    levels = max_levels(n) - resolution_cutoff(n)
    if levels < 1:
        raise ValueError(f"n={n} leaves no detail level above the resolution cutoff")
    return levels


def soft_threshold(x, lam):
    """sign(x) * (|x| - lam)+ elementwise; lam must be nonnegative."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return _soft(np.asarray(x, dtype=float), lam)


def _soft(x, lam):  # lam: a scalar, or an (m, 1) column with one value per row
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _hybrid_threshold(w):
    # per-row hybrid rule of Donoho-Johnstone (1995) on (m, d) standardized
    # rows, as an (m, 1) column: a row that looks sparse takes the universal
    # threshold sqrt(2 ln d); any other minimizes SURE(t) = d - 2#{|w|<=t} +
    # sum min(w^2, t^2) over t in {0} u {|w_i| <= universal}.  Sparsity test:
    # (sum w^2 - d)/d <= (log2 d)^{3/2}/sqrt(d).  Squares that overflow (|w|
    # near 1e154 and up) make a level dense and only reach the risks of
    # candidates above the universal threshold, which are dropped anyway.
    m, d = w.shape
    universal = math.sqrt(2.0 * math.log(d)) if d > 1 else 0.0
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


def _visu(v, sigma, n, config):
    # soft thresholding at the universal level sigma*sqrt(2 ln n), with n the
    # global size (not the level size) as in the classical implementation
    return _soft(v, sigma * math.sqrt(2.0 * math.log(n)))


def _sure(v, sigma, n, config):
    # per-level hybrid soft thresholding: sparse levels get the universal
    # threshold; each row is thresholded on its own
    return _soft(v, _hybrid_threshold(v / sigma) * sigma)


def _blockjs(v, sigma, n, config):
    # scale contiguous blocks of length floor(ln n) by (1 - c L sigma^2 / S^2)+,
    # S^2 the block's sum of squares; a trailing partial block is padded
    # cyclically from the start of its level when computing S^2, but only the
    # real coefficients are scaled; an S^2 that overflows to inf scales by 1
    block_len = math.floor(math.log(n))
    if block_len < 1:
        raise ValueError(f"n must be at least 3 for a nonempty block, got {n}")
    kill = BLOCK_CRITICAL * block_len * sigma * sigma
    m, d = v.shape
    out = np.empty_like(v)
    full = (d // block_len) * block_len
    if full:
        blocks = v[:, :full].reshape(m, -1, block_len)
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.maximum(1.0 - kill / (blocks * blocks).sum(axis=-1), 0.0)
        out[:, :full] = (factor[..., None] * blocks).reshape(m, full)
    if full < d:
        padded = v.take(np.arange(full, full + block_len) % d, axis=-1)
        with np.errstate(divide="ignore", over="ignore"):
            s2 = (padded[:, None, :] @ padded[:, :, None])[:, 0]  # each row's padded @ padded, same bits
            factor = np.where(s2 > 0, np.maximum(1.0 - kill / s2, 0.0), 0.0)
        out[:, full:] = factor * v[:, full:]
    return out


def _js(v, sigma, n, config):
    # levelwise positive-part James-Stein, the canonical beta=2, a=d-2 path;
    # levels with fewer than 3 coefficients pass through unchanged
    if v.shape[-1] < 3:
        return v.copy()
    return batch_estimate(v, sigma, 2.0, float(v.shape[-1] - 2))


def _zh(v, sigma, n, config):
    # the canonical thresholding estimator, with the constant a resolved
    # against each level's own coefficient count
    return batch_estimate(v, sigma, config.beta, resolve_a(config, v.shape[-1]))


def _zh_sure(v, sigma, n, config):
    # like zh, but beta (and its finite-rule a) is tuned per level and row by
    # unbiased risk; all-zero rows pass through.  The live rows are shrunk in
    # one call with beta and a as per-row columns, except those that picked
    # beta = 2: they share one scalar call, as a scalar exponent 2 is numpy's
    # exact square while a column exponent runs pow
    s = sigma if np.ndim(sigma) else np.full((len(v), 1), sigma)
    out = v.copy()
    live = np.flatnonzero(v.any(axis=-1))
    if live.size:
        betas, a = select_beta_by_sure(CanonicalSample(v[live], s[live]), DEFAULT_BETA_GRID)
        two = betas == 2.0
        if two.any():
            rows = live[two]
            out[rows] = batch_estimate(v[rows], s[rows], 2.0, float(a[two][0]))
        if not two.all():
            rows = live[~two]
            out[rows] = batch_estimate(v[rows], s[rows], betas[~two, None], a[~two, None])
    return out


_RULES = {
    "identity": lambda v, sigma, n, config: v.copy(),
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
        if self.config is not None and self.name != "zh":
            raise ValueError("config is only meaningful for method 'zh'")
        if self.name == "zh" and self.config is None:
            object.__setattr__(self, "config", ShrinkConfig())  # frozen, so set directly


make_method = LevelwiseMethod


def apply_method(method, decomp, sigma, cutoff_level):
    """Apply a LevelwiseMethod to every detail level at or above ``cutoff_level``; sigma may be per row.

    Each treated level goes to the method's rule ``rule(v, sigma, n, config)``
    as (m, d) rows, a 1-d level being m = 1; below-cutoff levels and the
    coarse block are copied bit-identical.
    """
    rule, n = _RULES[method.name], decomp.n
    if method.name != "identity":
        sigma = _per_row(sigma, decomp.coarse, "sigma")
    details = [(j, rule(np.atleast_2d(v), sigma, n, method.config).reshape(v.shape) if j >= cutoff_level
                else v.copy()) for j, v in decomp.details]
    return WaveletDecomposition(coarse=decomp.coarse.copy(), details=details, n=n)
