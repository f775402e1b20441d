"""Benchmark regression functions on a dyadic grid.

Signals are sampled at t_i = (i-1)/n for i = 1..n (so t starts at 0) and then
scaled so the sample standard deviation equals ``snr`` under the sigma = 1
noise convention.  No mean-centering is applied, matching the classical
wavelet simulation setup.  Blocks, Bumps, HeaviSine, and Doppler follow the
standard Donoho-Johnstone definitions; Spikes and Corner are documented
stand-ins rounding out six signals.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .canonical import _data, _real
from .dwt import max_levels

__all__ = [
    "CANONICAL_SIGNALS",
    "SIGNAL_NAMES",
    "TestSignal",
    "generate_signal",
]


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: one cached object per signal
class TestSignal:
    name: str
    samples: np.ndarray
    snr: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _data(self.samples, "samples", (1,)))
        max_levels(self.samples.size)  # a power of two >= 2
        _real(self.snr, "snr")


_JUMP_POINTS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCK_HEIGHTS = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMP_HEIGHTS = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_WIDTHS = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def _blocks(t):
    f = np.zeros_like(t)
    for t0, h in zip(_JUMP_POINTS, _BLOCK_HEIGHTS):
        f += h * (1.0 + np.sign(t - t0)) / 2.0
    return f


def _bumps(t):
    f = np.zeros_like(t)
    for t0, h, w in zip(_JUMP_POINTS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
        f += h / (1.0 + np.abs((t - t0) / w)) ** 4
    return f


def _heavisine(t):
    return 4.0 * np.sin(4.0 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)


def _doppler(t):
    return np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * 1.05 / (t + 0.05))


def _spikes(t):
    # stand-in: a train of narrow Gaussian peaks (sharp local features)
    centers = (0.2, 0.35, 0.5, 0.65, 0.78, 0.9)
    heights = (4.0, 5.0, 3.0, 4.4, 2.8, 4.1)
    f = np.zeros_like(t)
    for c, h in zip(centers, heights):
        f += h * np.exp(-0.5 * ((t - c) / 0.008) ** 2)
    return f


def _corner(t):
    # stand-in: continuous piecewise curve with slope breaks at 0.25 and 0.5
    return np.where(t < 0.25, 4.0 * t, np.where(t < 0.5, 2.0 - 4.0 * t, 8.0 * (t - 0.5) ** 2))


_SIGNALS = {
    "blocks": _blocks,
    "bumps": _bumps,
    "heavisine": _heavisine,
    "doppler": _doppler,
    "spikes": _spikes,
    "corner": _corner,
}

CANONICAL_SIGNALS = ("blocks", "bumps", "heavisine", "doppler")
SIGNAL_NAMES = tuple(_SIGNALS)


def generate_signal(name, n, snr):
    """Sample the named function on the dyadic grid and scale sd to ``snr``.

    Each (name, n, snr) is generated once per process: the result is a
    shared, frozen ``TestSignal`` whose ``samples`` array is read-only, so a
    caller who needs a writable array takes ``.samples.copy()``.  The cache
    keeps the 32 most recently used signals, at most 32 * 8n bytes at the
    largest n in use.  ``n`` must be an integer (Python or numpy); a float,
    even an integral one, raises ValueError.  ``snr`` must be a positive
    finite real number (Python or numpy); a bool or a string raises
    ValueError.
    """
    if name not in _SIGNALS:
        raise ValueError(f"unknown signal {name!r}; known: {sorted(_SIGNALS)}")
    # checked before the cache is keyed on int(n) and float(snr): 64.0 hashes
    # like 64, np.arange takes a float n and float() takes True or "3", so
    # neither the key nor the samples would reject them
    max_levels(n)
    return _signal(name, int(n), float(_real(snr, "snr")))


# 32 holds the benchmark's largest working set (6 signals at 3 sizes); an LRU
# smaller than a cyclic working set never hits
@functools.lru_cache(maxsize=32)
def _signal(name, n, snr):
    # checked before it scales the samples, so an infinite snr makes no nan
    sig = TestSignal(name=name, samples=_SIGNALS[name](np.arange(n, dtype=float) / n), snr=snr)
    samples = sig.samples  # scaled in place: the frozen signal holds this array
    sd = samples.std(ddof=1)
    if not sd > 0:
        raise ValueError(f"signal {name!r} is constant on this grid; cannot scale to an snr")
    samples *= snr / sd
    samples.flags.writeable = False
    return sig
