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

Each step is one BLAS matrix product.  A cached periodic index gathers the
step's input into a contiguous (Q, 32) operand, and a fixed (32, 16) bank
maps each operand row to 8 outputs in each of 2 channels; the bank is block
banded, so half of its entries are zero.  Analysis row q holds
x[(16q + s) mod m] for s < 32, Q = ceil(m/16), and its 16 outputs are the
interleaved (approx, detail) pairs 8q .. 8q + 7.  Synthesis row q holds
approx[(8q - 7 + s) mod h] for s < 16, then detail at the same positions,
Q = ceil(h/8), and its 16 outputs are the output values 16q .. 16q + 15.
The step keeps the first m/2 pairs or 2h values, so blocks down to m = 2
take the same path.  A 2-d input holds one signal per row.  numpy runs a
stacked product as one BLAS call per row, so a row's bytes do not depend on
the other rows; a single flattened product would not keep that, since a
one-row operand goes to a matrix-vector kernel with its own summation order.

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
# row s < 8 pairs lowpass taps (14 - 2s, 15 - 2s) and row 16 + s the highpass ones
_SYNTHESIS = np.vstack((LOWPASS.reshape(8, 2)[::-1], np.zeros((8, 2)), HIGHPASS.reshape(8, 2)[::-1]))


def _bank(taps, shift):
    # (32, 16) block-banded bank: column pair r holds the taps moved down by shift * r rows
    bank = np.zeros((32, 16))
    for r in range(8):
        bank[shift * r:shift * r + len(taps), 2 * r:2 * r + 2] = taps
    bank.setflags(write=False)
    return bank


_ANALYSIS_BANK = _bank(_ANALYSIS, 2)
_SYNTHESIS_BANK = _bank(_SYNTHESIS, 1)


@lru_cache(maxsize=128)
def _gather_index(size, stride, offset, channels):
    # row q: (stride * q + offset + s) mod size for s < 32 / channels, once per channel of length size
    pos = (stride * np.arange(-(-size // stride))[:, None] + offset + np.arange(32 // channels)) % size
    idx = np.hstack([pos + c * size for c in range(channels)])
    idx.setflags(write=False)
    return idx


def _analysis_step(x):
    m = x.shape[-1]
    out = x.take(_gather_index(m, 16, 0, 1), axis=-1) @ _ANALYSIS_BANK
    out = out.reshape(x.shape[:-1] + (-1, 2))[..., :m // 2, :]
    return out[..., 0], out[..., 1]


def _synthesis_step(approx, detail):
    h = approx.shape[-1]
    pairs = np.concatenate((approx, detail), axis=-1)
    out = pairs.take(_gather_index(h, 8, -7, 2), axis=-1) @ _SYNTHESIS_BANK
    return out.reshape(approx.shape[:-1] + (-1,))[..., :2 * h]


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
