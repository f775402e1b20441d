"""Levelwise wavelet-domain shrinkage methods.

Every method maps a decomposition to a new decomposition of identical shape,
touching only detail levels at or above a resolution cutoff; the coarse block
and coarser details pass through bit-identical.  Coefficients stay in raw
units where each has standard deviation sigma (the transform is orthonormal),
so unit-variance thresholds are multiplied by sigma.

Methods are addressed by short tokens, the keys of one rule table that also
supplies the CLI method names:

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
    batch_estimate,
    resolve_a,
    select_beta_by_sure,
)
from .dwt import WaveletDecomposition

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


def soft_threshold(x, lam):
    """sign(x) * (|x| - lam)+ elementwise; lam must be nonnegative."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _map_levels(decomp, cutoff_level, fn):
    # below-cutoff levels and the coarse block are copied bit-identical
    details = [(j, fn(v) if j >= cutoff_level else v.copy()) for j, v in decomp.details]
    return WaveletDecomposition(coarse=decomp.coarse.copy(), details=details, n=decomp.n)


def _hybrid_threshold(w):
    # per-level hybrid rule of Donoho-Johnstone (1995): if the standardized
    # level looks sparse, take the universal threshold sqrt(2 ln d); otherwise
    # minimize SURE(t) = d - 2#{|w|<=t} + sum min(w^2, t^2) over t in
    # {0} u {|w_i| <= universal}.  Sparsity test: (sum w^2 - d)/d <= (log2 d)^{3/2}/sqrt(d).
    d = w.size
    universal = math.sqrt(2.0 * math.log(d)) if d > 1 else 0.0
    energy_excess = (w @ w - d) / d
    if energy_excess <= math.log2(d) ** 1.5 / math.sqrt(d):
        return universal
    aw = np.sort(np.abs(w))
    cand = np.concatenate([[0.0], aw[aw <= universal]])
    counts = np.searchsorted(aw, cand, side="right")
    cum = np.concatenate([[0.0], np.cumsum(aw * aw)])
    risks = d - 2.0 * counts + cum[counts] + cand * cand * (d - counts)
    return float(cand[np.argmin(risks)])


# A rule takes (sigma, n, method), n the global sample size, does its set-up
# once per call and returns the map that is applied to every treated level.


def _visu(sigma, n, method):
    # soft thresholding at the universal level sigma*sqrt(2 ln n), with n the
    # global size (not the level size) as in the classical implementation
    lam = sigma * math.sqrt(2.0 * math.log(n))
    return lambda v: soft_threshold(v, lam)


def _sure(sigma, n, method):
    # per-level hybrid soft thresholding: sparse levels get the universal threshold
    def shrink(v):
        if not np.any(v):
            return v.copy()
        return soft_threshold(v, _hybrid_threshold(v / sigma) * sigma)

    return shrink


def _blockjs(sigma, n, method):
    # scale contiguous blocks of length floor(ln n) by (1 - c L sigma^2 / S^2)+,
    # S^2 the block's sum of squares; a trailing partial block is padded
    # cyclically from the start of its level when computing S^2, but only the
    # real coefficients are scaled
    block_len = math.floor(math.log(n))
    if block_len < 1:
        raise ValueError(f"n must be at least 3 for a nonempty block, got {n}")
    kill = BLOCK_CRITICAL * block_len * sigma * sigma

    def shrink(v):
        d = v.size
        out = np.empty_like(v)
        full = (d // block_len) * block_len
        if full:
            blocks = v[:full].reshape(-1, block_len)
            with np.errstate(divide="ignore"):
                factor = np.maximum(1.0 - kill / (blocks * blocks).sum(axis=1), 0.0)
            out[:full] = (factor[:, None] * blocks).ravel()
        if full < d:
            padded = np.resize(np.roll(v, -full), block_len)
            s2 = padded @ padded
            factor = max(1.0 - kill / s2, 0.0) if s2 > 0 else 0.0
            out[full:] = factor * v[full:]
        return out

    return shrink


def _js(sigma, n, method):
    # levelwise positive-part James-Stein, the canonical beta=2, a=d-2 path;
    # levels with fewer than 3 coefficients pass through unchanged
    def shrink(v):
        if v.size < 3:
            return v.copy()
        return batch_estimate(v[None, :], sigma, 2.0, float(v.size - 2))[0]

    return shrink


def _zh(sigma, n, method):
    # the canonical thresholding estimator, with the constant a resolved
    # against each level's own coefficient count
    config = method.config or ShrinkConfig()

    def shrink(v):
        return batch_estimate(v[None, :], sigma, config.beta, resolve_a(config, v.size))[0]

    return shrink


def _zh_sure(sigma, n, method):
    # like zh, but beta (and its finite-rule a) is tuned per level by unbiased risk
    def shrink(v):
        if not np.any(v):
            return v.copy()
        beta, a = select_beta_by_sure(CanonicalSample(v, sigma), method.beta_grid)
        return batch_estimate(v[None, :], sigma, beta, a)[0]

    return shrink


_RULES = {
    "identity": lambda sigma, n, method: np.copy,
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
    """A named levelwise method plus its method-specific parameters."""

    name: str
    config: ShrinkConfig | None = None
    beta_grid: tuple | None = None

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; known: {METHOD_NAMES}")
        if self.config is not None and self.name != "zh":
            raise ValueError("config is only meaningful for method 'zh'")
        if self.beta_grid is not None:
            if self.name != "zh-sure":
                raise ValueError("beta_grid is only meaningful for method 'zh-sure'")
            if not any(1.0 < b <= 2.0 for b in self.beta_grid):
                raise ValueError("beta_grid has no entries in (1, 2]")


def make_method(name, config=None, beta_grid=None):
    """Build a LevelwiseMethod, filling in the default config for 'zh'."""
    if name == "zh" and config is None:
        config = ShrinkConfig()
    return LevelwiseMethod(name=name, config=config, beta_grid=beta_grid)


def apply_method(method, decomp, sigma, cutoff_level):
    """Apply a LevelwiseMethod to every detail level at or above ``cutoff_level``."""
    if method.name != "identity" and not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return _map_levels(decomp, cutoff_level, _RULES[method.name](sigma, decomp.n, method))
