"""Monte Carlo risk engine for the canonical problem and the wavelet pipeline.

Determinism contract: every replicate r draws from an independent substream
keyed by (seed, r) (batches of replicates for the canonical engine), and
per-replicate squared errors are written into a preallocated array that is
reduced in index order.  Results are therefore bit-identical for a given seed
no matter how replicates are chunked or how many workers run them.  Calling
the wavelet engine for several methods with the same seed gives common random
numbers: every method sees exactly the same noisy data, which is what makes
paired risk comparisons sharp at a few hundred replicates.  A sweep cell
shares one analysis per replicate (noise, forward transform, estimated sigma)
among its methods, and each method's errors equal a single-method call's.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .baselines import apply_method, make_method, resolution_cutoff
from .canonical import batch_estimate, resolve_a
from .dwt import dwt_forward, dwt_inverse, max_levels
from .testbed import generate_signal

__all__ = [
    "CanonicalRiskReport",
    "RiskReport",
    "canonical_risk",
    "estimate_sigma",
    "risk_sweep",
    "wavelet_risk",
    "wavelet_risk_replicates",
]

_BATCH = 256  # canonical replicates per substream; fixed so chunking never shifts draws


@dataclass
class RiskReport:
    method: str
    signal: str
    n: int
    snr: float
    reps: int
    mean_risk: float
    std_error: float
    relative_risk: float


@dataclass
class CanonicalRiskReport:
    theta: str
    d: int
    beta: float | None
    a: float | None
    reps: int
    mean_risk: float
    std_error: float


def _run_chunks(njobs, workers, body):
    # body(j) writes into disjoint output slices, so execution order is irrelevant
    if workers <= 1:
        for j in range(njobs):
            body(j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(body, range(njobs)))


def canonical_risk(theta, config, sigma, reps, seed, positive_part=True, workers=1, label=None):
    """Monte Carlo risk E||estimate - theta||^2 in the canonical normal-means model.

    ``config=None`` measures the raw observation Z itself (risk d * sigma^2),
    which is the natural calibration check for the engine.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("theta must be a nonempty 1-d vector")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    reps = int(reps)
    if reps < 100:
        raise ValueError("canonical_risk needs reps >= 100")
    d = theta.size
    beta = a = None
    if config is not None:
        beta = config.beta
        a = resolve_a(config, d)
    errs = np.empty(reps)
    nbatches = (reps + _BATCH - 1) // _BATCH

    def body(b):
        lo = b * _BATCH
        hi = min(lo + _BATCH, reps)
        z = theta + sigma * substream(seed, b).standard_normal((hi - lo, d))
        est = z if config is None else batch_estimate(z, sigma, beta, a, positive_part)
        errs[lo:hi] = ((est - theta) ** 2).sum(axis=1)

    _run_chunks(nbatches, workers, body)
    return CanonicalRiskReport(
        theta=label or f"vector of length {d}",
        d=d,
        beta=beta,
        a=a,
        reps=reps,
        mean_risk=float(errs.mean()),
        std_error=float(errs.std(ddof=1) / math.sqrt(reps)),
    )


def estimate_sigma(decomp):
    """Noise scale from the finest detail level: median absolute deviation / 0.6745.

    On m pure-noise coefficients the estimate is asymptotically normal around
    sigma with sd 1.1664/sqrt(m) * sigma (37% Gaussian efficiency), about 5.2%
    of sigma at m = 512.  A degenerate finest level (all values equal) yields
    0 with a warning.
    """
    finest = decomp.details[-1][1]
    if finest.size < 2:
        raise ValueError("finest detail level needs at least 2 coefficients")
    mad = np.median(np.abs(finest - np.median(finest)))
    if mad == 0.0:
        warnings.warn("degenerate finest detail level; sigma estimate is 0", stacklevel=2)
        return 0.0
    return float(mad) / 0.6745


def _pipeline_depth(n):
    levels = max_levels(n) - resolution_cutoff(n)
    if levels < 1:
        raise ValueError(f"n={n} leaves no detail level above the resolution cutoff")
    return levels


def _cell_errors(methods, signal, sigma_mode, reps, seed, workers):
    # (len(methods), reps) squared errors; one analysis per replicate serves every method
    if sigma_mode not in ("known", "estimated"):
        raise ValueError(f"sigma_mode must be 'known' or 'estimated', got {sigma_mode!r}")
    reps = int(reps)
    if reps < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    f = signal.samples
    n = f.size
    cutoff = resolution_cutoff(n)
    levels = _pipeline_depth(n)
    errs = np.empty((len(methods), reps))
    chunk = 32
    nchunks = (reps + chunk - 1) // chunk

    def body(c):
        for r in range(c * chunk, min((c + 1) * chunk, reps)):
            decomp = dwt_forward(f + substream(seed, r).standard_normal(n), levels)
            sigma = 1.0 if sigma_mode == "known" else estimate_sigma(decomp)
            for i, method in enumerate(methods):
                fhat = dwt_inverse(apply_method(method, decomp, sigma, cutoff))
                errs[i, r] = ((fhat - f) ** 2).sum()

    _run_chunks(nchunks, workers, body)
    return errs


def wavelet_risk_replicates(method, signal, sigma_mode="known", reps=500, seed=0, workers=1):
    """Per-replicate squared errors ||fhat - f||^2 of the full denoising pipeline.

    Noise for replicate r depends only on (seed, r), so calls with different
    methods but one seed are paired.  Model noise scale is sigma = 1; the
    signal-to-noise ratio lives in the signal scaling.
    """
    return _cell_errors([method], signal, sigma_mode, reps, seed, workers)[0]


def _report(method, signal, errs):
    reps = errs.size
    n = signal.samples.size
    mean = float(errs.mean())
    return RiskReport(
        method=method.name,
        signal=signal.name,
        n=n,
        snr=signal.snr,
        reps=reps,
        mean_risk=mean,
        std_error=float(errs.std(ddof=1) / math.sqrt(reps)),
        relative_risk=mean / n,
    )


def wavelet_risk(method, signal, sigma_mode="known", reps=500, seed=0, workers=1):
    """RiskReport for one method on one signal (mean risk, std error, risk / n)."""
    errs = wavelet_risk_replicates(method, signal, sigma_mode, reps, seed, workers)
    return _report(method, signal, errs)


def risk_sweep(methods, signals, n_values, snr, reps, seed, sigma_mode="known", workers=1):
    """Cartesian sweep over (signal, n, method) with common random numbers.

    ``methods`` may hold LevelwiseMethod objects or bare method names;
    ``signals`` holds registry names.  Within one (signal, n) cell every
    method consumes identical noise draws, and each replicate's forward
    transform is computed once for all of them.  Reports are ordered by
    signal, then n, then method.
    """
    methods = [make_method(m) if isinstance(m, str) else m for m in methods]
    reports = []
    for name in signals:
        for n in n_values:
            sig = generate_signal(name, int(n), snr)
            errs = _cell_errors(methods, sig, sigma_mode, reps, seed, workers)
            reports += [_report(method, sig, e) for method, e in zip(methods, errs)]
    return reports
