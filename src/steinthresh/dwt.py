"""Orthonormal discrete wavelet transform with periodic boundary handling.

The filter is the 16-tap least-asymmetric orthonormal pair with 8 vanishing
moments.  The taps are embedded as constants below; the test suite checks the
quadrature-mirror conditions (sum = sqrt(2), orthonormal even shifts, zero
highpass moments) rather than trusting the table, and an independent spectral
factorization reproduces the same values to ~1e-11.

Conventions: input length must be a power of two; one analysis step maps a
block of length m to approximation and detail blocks of length m/2 via
``a_k = sum_t h_t x[(2k+t) mod m]``.  Periodization keeps the map exactly
orthonormal at every block size, so Parseval holds and the inverse is the
adjoint.

Each step is one product of a strided (m/2, 16) window with a (16, 2)
polyphase filter.  Analysis windows x, extended periodically by 14 values,
with [lowpass | highpass].  Synthesis windows interleaved (approx, detail)
pairs, extended periodically by 7 pairs in front, with the time-reversed even
and odd taps; the flattened product is the interleaved output.  Extensions
come from a cached index, so blocks down to m = 2 take the same path.  A 2-d
input holds one signal per row, and each step windows all rows at once.

A detail block of length 2**j sits at resolution level j; decompositions
store the coarse block first, then details from coarsest to finest.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["HIGHPASS", "LOWPASS", "WaveletDecomposition", "dwt_forward", "dwt_inverse", "max_levels"]

LOWPASS = np.array(
    [
        0.0018899503327718694,
        -0.00030292051472800006,
        -0.014952258337091488,
        0.003808752013867508,
        0.049137179673675674,
        -0.02721902991730454,
        -0.05194583810818521,
        0.36444189483597145,
        0.7771857516996268,
        0.4813596512592779,
        -0.06127335906747935,
        -0.14329423835106067,
        0.007607487325023004,
        0.03169508781152587,
        -0.0005421323317936929,
        -0.0033824159510018113,
    ]
)
LOWPASS.setflags(write=False)

HIGHPASS = ((-1.0) ** np.arange(LOWPASS.size)) * LOWPASS[::-1]
HIGHPASS.setflags(write=False)


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def max_levels(n):
    """Number of analysis steps available for a length-n signal (n = 2**J gives J)."""
    if not _is_pow2(n) or n < 2:
        raise ValueError(f"signal length must be a power of two >= 2, got {n}")
    return int(n).bit_length() - 1


_ANALYSIS = np.column_stack((LOWPASS, HIGHPASS))
# row 2j pairs lowpass taps (14 - 2j, 15 - 2j) and row 2j + 1 the highpass ones
_SYNTHESIS = np.hstack((LOWPASS.reshape(8, 2)[::-1], HIGHPASS.reshape(8, 2)[::-1])).reshape(16, 2)


@lru_cache(maxsize=128)
def _periodic_index(size, lo, hi):
    idx = np.arange(lo, hi) % size
    idx.setflags(write=False)
    return idx


def _windows(buf, lead, count):
    # (*lead, count, 16) view of a C-contiguous float64 buffer; per row, window k is values 2k .. 2k + 15
    strides = buf.strides[:len(lead)] + (16, 8)
    return np.ndarray(lead + (count, LOWPASS.size), buffer=buf, strides=strides)


def _analysis_step(x):
    lead, m = x.shape[:-1], x.shape[-1]
    out = _windows(x.take(_periodic_index(m, 0, m + 14), axis=-1), lead, m // 2) @ _ANALYSIS
    return out[..., 0], out[..., 1]


def _synthesis_step(approx, detail):
    lead, h = approx.shape[:-1], approx.shape[-1]
    idx = _periodic_index(h, -7, h)
    pairs = np.empty(lead + (h + 7, 2))
    pairs[..., 0] = approx.take(idx, axis=-1)
    pairs[..., 1] = detail.take(idx, axis=-1)
    return (_windows(pairs, lead, h) @ _SYNTHESIS).reshape(lead + (2 * h,))


@dataclass
class WaveletDecomposition:
    """Coarse block plus detail blocks keyed by level (ascending); 2-d blocks hold one signal per row."""

    coarse: np.ndarray
    details: list  # [(level, values)] with values.shape[-1] == 2**level, coarsest first
    n: int  # the length of one signal

    def __post_init__(self):
        self.coarse = np.asarray(self.coarse, dtype=float)
        if not _is_pow2(self.n):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if self.coarse.ndim not in (1, 2) or not self.details:
            raise ValueError("malformed decomposition: need 1-d or 2-d coarse block, >= 1 detail block")
        self.details = [(int(j), np.asarray(v, dtype=float)) for j, v in self.details]
        base = self.details[0][0]
        if self.coarse.shape[-1] != 2**base:
            raise ValueError("malformed decomposition: coarse block must match the coarsest detail level")
        total = self.coarse.shape[-1]
        for offset, (j, v) in enumerate(self.details):
            if j != base + offset or v.shape != self.coarse.shape[:-1] + (2**j,):
                raise ValueError(f"malformed decomposition at level {j}")
            total += 2**j
        if total != self.n:
            raise ValueError(f"malformed decomposition: blocks sum to {total}, expected {self.n}")


def dwt_forward(signal, levels):
    """Decompose a length-2**J signal, or (m, 2**J) rows of them, through ``levels`` analysis steps."""
    x = np.asarray(signal, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("signal must be 1-d, or 2-d with one signal per row")
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite")
    n = x.shape[-1]
    depth = max_levels(n)
    if not 1 <= levels <= depth:
        raise ValueError(f"levels must be in [1, {depth}] for n={n}, got {levels}")
    details = []
    for _ in range(levels):
        x, d = _analysis_step(x)
        details.append((x.shape[-1].bit_length() - 1, d))
    details.reverse()
    return WaveletDecomposition(coarse=x, details=details, n=n)


def dwt_inverse(decomp):
    """Reconstruct the signal; exact inverse of :func:`dwt_forward` up to roundoff."""
    x = decomp.coarse
    for _, v in decomp.details:
        x = _synthesis_step(x, v)
    return x
