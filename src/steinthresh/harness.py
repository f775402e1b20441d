"""Monte Carlo risk engine for the canonical problem and the wavelet pipeline.

Determinism contract: every replicate r draws from an independent substream
keyed by (seed, r) (batches of replicates for the canonical engine), so
results are bit-identical for a given seed.  The wavelet engine runs
replicates in blocks of consecutive indices, one row each from the noise draw
to the error; every step works row by row, so no replicate's error depends on
the block size or on the other rows of its block.  The ``workers`` argument
is still accepted and has no effect on results or execution.  Calling the
wavelet engine for several methods with the same seed gives common random
numbers: every method sees exactly the same noisy data, which is what makes
paired risk comparisons sharp at a few hundred replicates.

``wavelet_risk_replicates`` runs the full denoising pipeline: it adds the
noise to the signal, transforms, shrinks, reconstructs and scores the
reconstruction against the signal.  ``risk_sweep`` runs no transform per
replicate.  The transform is orthonormal, so white noise on the signal is
white noise on its coefficients, and the squared error of a reconstruction
is that of its coefficients (Parseval).  So a sweep draws each replicate's
noise straight onto the clean signal's coefficients, computed once per
cell, shrinks, and scores the shrunk coefficients against the clean
ones.  Its errors therefore equal the pipeline's in distribution, not
replicate by replicate: one seed gives each replicate other noise in the
two engines.  A sweep cell shares one noisy block (and its estimated sigma)
among its methods, so common random numbers hold across a sweep's methods,
and each method's errors equal a one-method sweep's.  Either engine keeps
each replicate's bits independent of its block.

A sweep's block arrays (its noisy rows, the work array each method shrinks
in place and one scratch array the rules write their temporaries to) are
views of one per-thread workspace that later sweeps on that thread reuse,
so a call does not fault its block arrays back in after the allocator has
trimmed the heap.  Each use overwrites its view before reading it, so no
result depends on what ran before, and sweeps on two threads never share
it.  A thread keeps at most the workspace of an n = 16384 block, three
arrays of 2 x 16384 doubles (768 KiB); a block of a larger n gets one that
is freed with the call.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .baselines import LevelwiseMethod, _pipeline, _shrink_levels, apply_method, make_method
from .canonical import _count, _data, _real, batch_estimate, resolve_a
from .dwt import WaveletDecomposition, dwt_forward, dwt_inverse
from .testbed import generate_signal

__all__ = [
    "CanonicalRiskReport",
    "RiskReport",
    "canonical_risk",
    "estimate_sigma",
    "risk_sweep",
    "wavelet_risk_replicates",
]

_BATCH = 256  # canonical replicates per substream; fixed so the draws depend only on the seed
# signal values per block of wavelet replicates, with at least 2 rows a block
# up to n = _BLOCK_VALUES: 16 rows at n = 1024, so a 16-replicate cell is one
# block and zh-sure pays its per-level cost once, and 2 rows at n = 8192 and
# 16384, so a 2-replicate cell is one block there; above 16384 a block is one
# row, since a second row's memory was measured only at 16384.  It bounds the
# block's arrays and does not change any result, and it bounds the sweep
# workspace a thread keeps: three arrays of at most 2 * _BLOCK_VALUES values
_BLOCK_VALUES = 2**14
_held = threading.local()  # .buffer: this thread's sweep workspace, kept across calls


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


def canonical_risk(theta, config, sigma, reps, seed, positive_part=True, workers=1, label=None):
    """Monte Carlo risk E||estimate - theta||^2 in the canonical normal-means model.

    ``config=None`` measures the raw observation Z itself (risk d * sigma^2),
    which is the natural calibration check for the engine.  ``sigma`` is one
    positive finite real, as ``theta`` is one vector.  ``workers`` has no
    effect on results or execution.  ``reps`` must be an integer (Python
    or numpy) of at least 100 and ``seed`` one of at least 0; a float, even
    an integral one, raises ValueError rather than being truncated, as does
    a bool or a sequence seed.
    """
    theta = _data(theta, "theta", (1,))
    sigma = _real(sigma, "sigma")
    reps = _count(reps, "reps", 100)
    seed = _count(seed, "seed", 0)
    d = theta.size
    beta = a = None
    if config is not None:
        a = resolve_a(config, d)  # checks that config is a ShrinkConfig
        beta = config.beta
    errs = np.empty(reps)
    for b, lo in enumerate(range(0, reps, _BATCH)):
        hi = min(lo + _BATCH, reps)
        z = substream(seed, b).standard_normal((hi - lo, d))
        z *= sigma
        z += theta
        est = z if config is None else batch_estimate(z, sigma, beta, a, positive_part)
        errs[lo:hi] = _squared_errors(est, theta)
        del z, est  # free this batch before the next one is drawn
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

    The finest level is the last half, columns [n/2, n), of the dyadic
    array.  On m pure-noise coefficients the estimate is asymptotically
    normal around sigma with sd 1.1664/sqrt(m) * sigma (37% Gaussian
    efficiency), about 5.2% of sigma at m = 512.  A degenerate finest level
    (a MAD of 0, as when all its values are equal) raises ValueError, in any
    row.  A decomposition of rows gets one estimate per row, as an (m, 1)
    column.
    """
    finest = decomp.values[..., decomp.n // 2:]
    if finest.shape[-1] < 2:
        raise ValueError("finest detail level needs at least 2 coefficients")
    k = finest.shape[-1] // 2  # even length: the median is the mean of ranks k - 1 and k, as in np.median
    # a full sort of each row is faster than np.partition at two ranks here
    mid = lambda x: np.sort(x, axis=-1)[..., k - 1:k + 1].sum(axis=-1, keepdims=True) / 2
    mad = mid(np.abs(finest - mid(finest)))
    if not mad.all():
        raise ValueError("could not estimate sigma: degenerate finest detail level")
    sigma = mad / 0.6745
    return float(sigma[0]) if finest.ndim == 1 else sigma


def _block(n):
    # replicate rows per block at signal length n, read from _BLOCK_VALUES at call time
    return max(2 if n <= _BLOCK_VALUES else 1, _BLOCK_VALUES // n)


def _cell_args(sigma_mode, reps, seed):
    # a cell's checked (reps, seed), the sigma mode checked too, before any noise is drawn
    if sigma_mode not in ("known", "estimated"):
        raise ValueError(f"sigma_mode must be 'known' or 'estimated', got {sigma_mode!r}")
    return _count(reps, "reps", 2), _count(seed, "seed", 0)  # a standard error needs two replicates


def _cell_errors(methods, signal, sigma_mode, reps, seed):
    # (len(methods), reps) squared coefficient errors of one sweep cell.  The
    # clean signal is transformed once; each block's noise is drawn as
    # coefficients onto the clean ones; each method copies the block into
    # one work array, shrinks it in place, with the scratch array for its
    # temporaries, and is scored in place against the clean coefficients;
    # the three arrays are the thread's workspace
    reps, seed = _cell_args(sigma_mode, reps, seed)
    n = signal.samples.size
    levels, cutoff = _pipeline(n)
    coarse = n >> levels
    clean = dwt_forward(signal.samples, levels).values
    errs = np.empty((len(methods), reps))
    block = _block(n)
    for lo in range(0, reps, block):
        hi = min(lo + block, reps)
        rows, work, scratch = _workspace(hi - lo, n)
        _noisy_rows(clean, seed, lo, hi, rows)
        sigma = 1.0 if sigma_mode == "known" else estimate_sigma(WaveletDecomposition(rows, coarse))
        for i, method in enumerate(methods):
            np.copyto(work, rows)
            _shrink_levels(method, work, sigma, coarse, cutoff, scratch)
            errs[i, lo:hi] = _squared_errors(work, clean)
    return errs


def _workspace(m, n):
    # a sweep block's three (m, n) arrays, views of the front of this
    # thread's buffer, which grows to the largest block seen; a block of
    # n > _BLOCK_VALUES (one row) gets a buffer that is not kept
    buffer = getattr(_held, "buffer", None)
    if buffer is None or buffer.size < 3 * m * n:
        buffer = np.empty(3 * m * n)
        if n <= _BLOCK_VALUES:
            _held.buffer = buffer
    return buffer[:3 * m * n].reshape(3, m, n)


# At n = 16384 a row is 128 KiB, just above glibc's default mmap threshold
# and top pad, and a 2-row block is 256 KiB.  An array of that size freed at
# the top of the heap lets glibc trim it, and the next call faults it back
# in, so a sweep block's arrays live in the thread's workspace across calls
# and the rules take their block-wide temporaries from its scratch; the
# pipeline, whose draws and transforms make their own arrays, frees a
# block's noisy rows once the forward transform has read them, and each
# method's reconstruction before the next block's is made.


def _noisy_rows(f, seed, lo, hi, out=None):
    # replicates lo .. hi - 1 of f (a signal or its coefficients) plus unit
    # noise, one row each, assigned into out, an (hi - lo, f.size) array, or
    # a new one, which is returned
    y = np.empty((hi - lo, f.size)) if out is None else out
    for i, r in enumerate(range(lo, hi)):
        y[i] = substream(seed, r).standard_normal(f.size)
    y += f
    return y


def _squared_errors(fhat, f):
    # each row's squared distance from f (a signal or its coefficients), computed in place on fhat
    fhat -= f
    fhat *= fhat
    return fhat.sum(axis=-1)


def _axis(values, name):
    # one sweep axis as a list; a bare string would be read letter by letter, and a single value,
    # a 0-d array among them, is no axis (an iterator has no ndim, so it passes)
    if isinstance(values, str) or not hasattr(values, "__iter__") or getattr(values, "ndim", 1) == 0:
        raise ValueError(f"{name} must be a collection of items, not a single {type(values).__name__}: {values!r}")
    return list(values)


def _as_methods(methods):
    # LevelwiseMethod objects for methods given as objects or bare names; any
    # other value fails make_method's name check, before any noise is drawn
    return [m if isinstance(m, LevelwiseMethod) else make_method(m) for m in methods]


def wavelet_risk_replicates(method, signal, sigma_mode="known", reps=500, seed=0, workers=1):
    """Per-replicate squared errors ||fhat - f||^2 of the full denoising pipeline.

    Each replicate's estimate is reconstructed by ``dwt_inverse`` and scored
    against the signal, as ``denoise`` would return it; ``risk_sweep`` draws
    its noise as coefficients instead, so its errors have the same
    distribution but other realizations.  ``method``
    is a LevelwiseMethod or a bare method name; any other value raises
    ValueError before any noise is drawn.  Noise for
    replicate r depends only on (seed, r), so calls with different methods
    but one seed are paired.  Model noise scale is sigma = 1; the
    signal-to-noise ratio lives in the signal scaling.  ``workers`` has no
    effect on results or execution.  ``reps`` must be an integer (Python or
    numpy) of at least 2 and ``seed`` one of at least 0; a float, even an
    integral one, raises ValueError rather than being truncated, as does a
    bool or a sequence seed.
    """
    [method] = _as_methods([method])
    reps, seed = _cell_args(sigma_mode, reps, seed)
    f = signal.samples
    levels, cutoff = _pipeline(f.size)
    errs = np.empty(reps)
    block = _block(f.size)
    for lo in range(0, reps, block):
        decomp = dwt_forward(_noisy_rows(f, seed, lo, min(lo + block, reps)), levels)
        sigma = 1.0 if sigma_mode == "known" else estimate_sigma(decomp)
        errs[lo:lo + block] = _squared_errors(dwt_inverse(apply_method(method, decomp, sigma, cutoff)), f)
    return errs


def risk_sweep(methods, signals, n_values, snr, reps, seed, sigma_mode="known", workers=1):
    """Cartesian sweep over (signal, n, method) with common random numbers.

    ``methods`` may hold LevelwiseMethod objects or bare method names, and
    any other item raises ValueError before any noise is drawn; ``signals``
    holds names from ``SIGNAL_NAMES``.  Within one (signal, n) cell every
    method shrinks identical noisy coefficients.  Replicate r's noise is
    drawn from ``substream(seed, r)`` straight onto the clean signal's
    coefficients, which are transformed once per cell, and
    each method's error is scored against those clean coefficients, so a
    sweep runs no transform per replicate.  The transform is orthonormal,
    so the errors have the distribution of ``wavelet_risk_replicates``'s,
    though not its realizations: the two agree in their means within
    standard errors, not within roundoff.  ``methods``, ``signals`` and
    ``n_values`` are each a collection of items; a bare string or a single
    value raises ValueError naming the argument, before any cell runs.  Every (signal, n) is fetched, and
    every n checked against the pipeline's depth, before any cell runs, so
    a bad name or size costs no run; a bad seed fails in the first cell,
    before it draws any noise.  Signals come from ``generate_signal``, so
    each (signal, n, snr) is generated once per process, not once per call,
    and shared read-only.  A cell's means and
    standard errors are taken in one pass over its (methods, reps) errors.
    Each n, ``reps`` and ``seed`` must be an integer (Python or numpy), the
    seed at least 0; a float, even an integral one, raises ValueError
    rather than being truncated, as does a bool or a sequence seed.
    Reports are ordered by signal, then n, then method.
    """
    methods = _as_methods(_axis(methods, "methods"))
    n_values = _axis(n_values, "n_values")  # a list, so every signal reads all of an iterator's sizes
    cells = [generate_signal(name, n, snr) for name in _axis(signals, "signals") for n in n_values]
    for sig in cells:
        _pipeline(sig.samples.size)  # an n too small for the pipeline fails before any cell runs
    reports = []
    for sig in cells:
        errs = _cell_errors(methods, sig, sigma_mode, reps, seed)
        n, count = sig.samples.size, errs.shape[1]
        # each row's values equal that row's own mean() and std(ddof=1)
        means = errs.mean(axis=1).tolist()
        ses = (errs.std(axis=1, ddof=1) / math.sqrt(count)).tolist()
        reports += [RiskReport(method=method.name, signal=sig.name, n=n, snr=sig.snr, reps=count,
                               mean_risk=mean, std_error=se, relative_risk=mean / n)
                    for method, mean, se in zip(methods, means, ses)]
    return reports
