"""Levelwise wavelet-domain shrinkage methods.

Every method maps a decomposition to a new decomposition of identical shape,
touching only detail levels at or above a resolution cutoff; the coarse block
and coarser details pass through bit-identical.  Coefficients stay in raw
units where each has standard deviation sigma (the transform is orthonormal),
so unit-variance thresholds are multiplied by sigma.  On a decomposition of
rows (one signal each, sigma a scalar or one per row) each row's output is
that of the row on its own.

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
    _row_sigma,
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
    return _soft(np.asarray(x, dtype=float), lam)


def _soft(x, lam):  # lam: a scalar, or an (m, 1) column with one value per row
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
    return lambda v: _soft(v, lam)


def _sure(sigma, n, method):
    # per-level hybrid soft thresholding: sparse levels get the universal
    # threshold; each row is thresholded on its own
    def shrink(v, s=sigma):
        if v.ndim == 2:
            return np.array([shrink(row, rs) for row, rs in zip(v, np.broadcast_to(s, (len(v), 1)))])
        if not np.any(v):
            return v.copy()
        return _soft(v, _hybrid_threshold(v / s) * s)

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
        lead, d = v.shape[:-1], v.shape[-1]
        out = np.empty_like(v)
        full = (d // block_len) * block_len
        if full:
            blocks = v[..., :full].reshape(lead + (-1, block_len))
            with np.errstate(divide="ignore"):
                factor = np.maximum(1.0 - kill / (blocks * blocks).sum(axis=-1), 0.0)
            out[..., :full] = (factor[..., None] * blocks).reshape(lead + (full,))
        if full < d:
            padded = v.take(np.arange(full, full + block_len) % d, axis=-1)
            s2 = (padded[..., None, :] @ padded[..., None])[..., 0]  # each row's padded @ padded, same bits
            with np.errstate(divide="ignore"):
                factor = np.where(s2 > 0, np.maximum(1.0 - kill / s2, 0.0), 0.0)
            out[..., full:] = factor * v[..., full:]
        return out

    return shrink


def _js(sigma, n, method):
    # levelwise positive-part James-Stein, the canonical beta=2, a=d-2 path;
    # levels with fewer than 3 coefficients pass through unchanged
    def shrink(v):
        if v.shape[-1] < 3:
            return v.copy()
        return batch_estimate(v, sigma, 2.0, float(v.shape[-1] - 2))

    return shrink


def _zh(sigma, n, method):
    # the canonical thresholding estimator, with the constant a resolved
    # against each level's own coefficient count
    config = method.config or ShrinkConfig()

    def shrink(v):
        return batch_estimate(v, sigma, config.beta, resolve_a(config, v.shape[-1]))

    return shrink


def _zh_sure(sigma, n, method):
    # like zh, but beta (and its finite-rule a) is tuned per level and row by
    # unbiased risk; all-zero rows pass through, and the rows that share a
    # pick are shrunk together
    def shrink(v, s=sigma):
        z = np.atleast_2d(v)
        live = z.any(axis=-1)
        if not live.all():
            out = z.copy()
            if live.any():
                out[live] = shrink(z[live], s if np.ndim(s) == 0 else s[live])
            return out.reshape(v.shape)
        betas, a = select_beta_by_sure(CanonicalSample(z, s), method.beta_grid)
        picks = set(betas.tolist())
        if len(picks) == 1:
            return batch_estimate(v, s, picks.pop(), float(a[0]))
        out = np.empty_like(z)
        for beta in picks:
            pick = betas == beta
            out[pick] = batch_estimate(z[pick], s if np.ndim(s) == 0 else s[pick], beta, float(a[pick][0]))
        return out

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
    """Apply a LevelwiseMethod to every detail level at or above ``cutoff_level``; sigma may be per row."""
    if method.name != "identity":
        sigma = _row_sigma(sigma, decomp.coarse)
    return _map_levels(decomp, cutoff_level, _RULES[method.name](sigma, decomp.n, method))
