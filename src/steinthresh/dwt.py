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

Each step is one BLAS matrix product of a contiguous (Q, 32) operand and a
fixed (32, 16) bank, which maps each operand row to 8 outputs in each of 2
channels; the bank is block banded, so half of its entries are zero.
Analysis row q holds x[(16q + s) mod m] for s < 32, Q = ceil(m/16), and its
16 outputs are the interleaved (approx, detail) pairs 8q .. 8q + 7.  That
row is rows q and q + 1 (mod Q) of the block viewed as (Q, 16), a view even
of the strided approximation the previous step returns, so analysis fills
its operand with three slice copies and keeps no index; a block shorter
than 16 is tiled to 16 first.  Synthesis row q holds
approx[(8q - 7 + s) mod h] for s < 16, then detail at the same positions,
Q = ceil(h/8), and its 16 outputs are the output values 16q .. 16q + 15.
That row is rows q - 1 and q of each channel viewed from position 1 as
(Q - 1, 8), except where it wraps: row 0 starts, and row Q - 1 ends, with
positions h - 7 .. h - 1 then 0.  So synthesis fills its operand with five
slice copies, every row of the block at once, and keeps no index either; a
block shorter than 8 is tiled to 8 first.
An analysis step keeps the first m/2 pairs, so blocks down to m = 2 take the
same path.  A synthesis step from h = 8 up writes its product straight into
its output block, viewed as (Q, 16); a smaller one keeps the first 2h of its
one operand row's outputs.  A 2-d input holds one signal per row.  numpy runs a
stacked product as one BLAS call per row, so a row's bytes do not depend on
the other rows; a single flattened product would not keep that, since a
one-row operand goes to a matrix-vector kernel with its own summation order.

A detail block of length 2**j sits at resolution level j.  A decomposition
keeps every coefficient of a signal (or of each row) in one array of the
signal's length, in WaveLab's dyadic layout: the coarse block of length
2**b at [0, 2**b), then level j at [2**j, 2**(j+1)) for j = b .. J-1.
That layout fixes where every level sits, so the one constructor,
``WaveletDecomposition(values, coarse_size)``, wraps such an array with
nothing more than 2**b.  The forward transform writes each step's detail
block into its slice of that array.  The inverse runs in place on a copy of
it: before the step that rebuilds a block of length 2h, the prefix [0, 2h)
holds exactly that step's approximation and detail blocks side by side,
which is the synthesis step's input, and the step writes its output over
the same prefix.  So no step concatenates blocks, and the prefix is
copied into the operand before it is overwritten.
"""

from functools import cached_property

import numpy as np

from .canonical import _count, _data, _real

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
    # an int or numpy integer; _real, which takes it as its test, rejects a bool first
    return isinstance(n, (int, np.integer)) and n >= 1 and (n & (n - 1)) == 0


def max_levels(n):
    """Number of analysis steps available for a length-n signal (n = 2**J gives J)."""
    _real(n, "signal length", lambda v: _is_pow2(v) and v >= 2, "a power of two >= 2")
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


def _analysis_step(x):
    # operand row q is rows q and q + 1 (mod Q) of x viewed as (Q, 16); a block
    # shorter than 16 is tiled to 16 first, so its one row wraps onto itself
    m = x.shape[-1]
    rows = (np.tile(x, 16 // m) if m < 16 else x).reshape(x.shape[:-1] + (-1, 16))
    operand = np.empty(rows.shape[:-1] + (32,))
    operand[..., :16] = rows
    operand[..., :-1, 16:] = rows[..., 1:, :]
    operand[..., -1, 16:] = rows[..., 0, :]
    out = (operand @ _ANALYSIS_BANK).reshape(x.shape[:-1] + (-1, 2))[..., :m // 2, :]
    return out[..., 0], out[..., 1]


def _synthesis_step(x):
    # x holds an approximation block then a detail block, h values each, and
    # is overwritten with the block of length 2h they synthesize, then
    # returned; the operand is filled before x is written.  Operand row q
    # takes rows q - 1 and q of each half viewed from position 1 as (Q - 1, 8),
    # and the wrap, positions h - 7 .. h - 1 then 0, is row 0's first 8 and
    # row Q - 1's last 8.  A block shorter than 8 is tiled to 8 first and
    # keeps the first 2h of its one row's outputs; from h = 8 up the product
    # lands in x directly.
    h = x.shape[-1] // 2
    lead = x.shape[:-1]
    halves = x.reshape(lead + (2, h))
    if h < 8:
        halves = np.tile(halves, 8 // h)
    k = halves.shape[-1]
    # axes: operand row, half of x, first or last 8 of that half's 16 positions
    operand = np.empty(lead + (k // 8, 2, 2, 8))
    rows = halves[..., 1:k - 7].reshape(lead + (2, -1, 8)).swapaxes(-3, -2)
    operand[..., 1:, :, 0, :] = rows
    operand[..., :-1, :, 1, :] = rows
    operand[..., 0, :, 0, :7] = halves[..., k - 7:]
    operand[..., 0, :, 0, 7] = halves[..., 0]
    operand[..., -1, :, 1, :] = operand[..., 0, :, 0, :]
    operand = operand.reshape(lead + (-1, 32))
    if h < 8:
        x[...] = (operand @ _SYNTHESIS_BANK)[..., 0, :2 * h]
    else:
        np.matmul(operand, _SYNTHESIS_BANK, out=x.reshape(lead + (-1, 16)))
    return x


class WaveletDecomposition:
    """All coefficients of a signal, or of (m, n) rows of them, in one array in dyadic layout.

    ``WaveletDecomposition(values, coarse_size)`` wraps ``values``, a float64
    array of one signal or of one signal per row, without copying it: the
    coarse block is its first ``coarse_size`` columns, and every further
    power of two 2**j marks the start of level j.  ``coarse`` and
    ``details`` (the (level, block) pairs, coarsest first) are views of
    ``values``, and ``n`` is the length of one signal.  The layout fixes
    where every level sits, so the constructor checks only the dtype, the
    shape and ``coarse_size``, and never reads a value.
    """

    def __init__(self, values, coarse_size):
        n = values.shape[-1] if values.ndim in (1, 2) else 0
        if not (_is_pow2(n) and n >= 2 and values.dtype == np.float64):
            raise ValueError(f"values must be float64, 1-d or 2-d, with a power-of-two length >= 2, "
                             f"got {values.dtype} {values.shape}")
        _real(coarse_size, "coarse_size", lambda v: _is_pow2(v) and v < n, f"an int power of two below {n}")
        self.values = values
        self.coarse = values[..., :coarse_size]

    @property
    def n(self):
        return self.values.shape[-1]

    @cached_property
    def details(self):
        h, n = self.coarse.shape[-1], self.n
        return [(j, self.values[..., 2**j:2**(j + 1)]) for j in range(h.bit_length() - 1, n.bit_length() - 1)]


def dwt_forward(signal, levels):
    """Decompose a length-2**J signal, or (m, 2**J) rows of them, through ``levels`` analysis steps."""
    x = _data(signal, "signal")
    n = x.shape[-1]
    depth = max_levels(n)
    if _count(levels, "levels", 1) > depth:
        raise ValueError(f"levels must be in [1, {depth}] for n={n}, got {levels}")
    # the output is allocated after the first step, once that step's operand,
    # the largest transient, is freed
    h = n // 2
    x, first = _analysis_step(x)
    values = np.empty(x.shape[:-1] + (n,))
    values[..., h:] = first
    for _ in range(levels - 1):
        h //= 2
        x, values[..., h:2 * h] = _analysis_step(x)
    values[..., :h] = x
    return WaveletDecomposition(values, h)


def dwt_inverse(decomp):
    """Reconstruct the signal; exact inverse of :func:`dwt_forward` up to roundoff."""
    x = decomp.values.copy()
    h = decomp.coarse.shape[-1]
    while h < decomp.n:
        _synthesis_step(x[..., :2 * h])
        h *= 2
    return x
