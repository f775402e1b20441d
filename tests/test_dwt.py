"""Orthonormal periodized wavelet transform: filter checks and transform laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from steinthresh import dwt
from steinthresh.dwt import (
    HIGHPASS,
    LOWPASS,
    WaveletDecomposition,
    dwt_forward,
    dwt_inverse,
    max_levels,
)

BLOCK_SIZES = [2**k for k in range(1, 15)]


def oracle_analysis(x):
    """Gather every (2k + t) mod m window, then filter it: the definition, row by row."""
    m = x.size
    win = x[(2 * np.arange(m // 2)[:, None] + np.arange(16)[None, :]) % m]
    return win @ LOWPASS, win @ HIGHPASS


def oracle_synthesis(approx, detail):
    """Adjoint of the oracle analysis: scatter-add each window's contributions."""
    m = 2 * approx.size
    idx = (2 * np.arange(m // 2)[:, None] + np.arange(16)[None, :]) % m
    contrib = approx[:, None] * LOWPASS[None, :] + detail[:, None] * HIGHPASS[None, :]
    return np.bincount(idx.ravel(), weights=contrib.ravel(), minlength=m)


def gathered_step(x, stride, offset, channels, bank):
    """One step through a periodic index gather: the byte reference for both steps.

    Operand row q holds channel c's values at (stride * q + offset + s) mod size
    for s < 32 / channels, where size is the channel length; the product with
    the same (32, 16) bank then fixes every output byte.
    """
    size = x.shape[-1] // channels
    pos = (stride * np.arange(-(-size // stride))[:, None] + offset + np.arange(32 // channels)) % size
    idx = np.hstack([pos + c * size for c in range(channels)])
    return x.take(idx, axis=-1) @ bank


def gathered_forward(x):
    """dwt_forward's dyadic array at every depth, each analysis step gathered by index.

    Yields (levels, values): a depth-L decomposition is the full-depth one's L
    finest levels under the approximation that L steps leave.
    """
    values = np.empty(x.shape)
    for levels in range(1, max_levels(x.shape[-1]) + 1):
        h = x.shape[-1] // 2
        out = gathered_step(x, 16, 0, 1, dwt._ANALYSIS_BANK).reshape(x.shape[:-1] + (-1, 2))[..., :h, :]
        x, values[..., h:2 * h] = out[..., 0], out[..., 1]
        values[..., :h] = x
        yield levels, values


def gathered_inverse(values, coarse_size):
    """dwt_inverse with each synthesis operand gathered here, not copied from rows as dwt does."""
    x = values.copy()
    h = coarse_size
    while h < x.shape[-1]:
        x[..., :2 * h] = gathered_step(x[..., :2 * h], 8, -7, 2, dwt._SYNTHESIS_BANK).reshape(
            x.shape[:-1] + (-1,))[..., :2 * h]
        h *= 2
    return x


class TestFilterBank:
    """The embedded taps are data; these checks are what make them trustworthy."""

    def test_length_and_normalization(self):
        assert LOWPASS.shape == (16,)
        assert abs(LOWPASS.sum() - math.sqrt(2.0)) < 1e-12
        assert abs(LOWPASS @ LOWPASS - 1.0) < 1e-12

    def test_even_shift_orthogonality(self):
        for k in range(1, 8):
            assert abs(LOWPASS[2 * k :] @ LOWPASS[: 16 - 2 * k]) < 1e-12

    def test_highpass_mirror_and_cross_orthogonality(self):
        signs = (-1.0) ** np.arange(16)
        np.testing.assert_allclose(HIGHPASS, signs * LOWPASS[::-1], rtol=0, atol=0)
        for k in range(0, 8):
            assert abs(HIGHPASS[2 * k :] @ LOWPASS[: 16 - 2 * k]) < 1e-12
            assert abs(LOWPASS[2 * k :] @ HIGHPASS[: 16 - 2 * k]) < 1e-12

    def test_highpass_vanishing_moments(self):
        # eight vanishing moments; normalize t^m so the check is scale-honest
        t = np.arange(16)
        for m in range(8):
            assert abs(HIGHPASS @ (t / 15.0) ** m) < 1e-12


class TestStepsMatchDefinition:
    """One analysis and one synthesis step against their definitions at every block size."""

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_analysis_is_the_direct_formula(self, m):
        # a_k = sum_t h_t x[(2k+t) mod m], summed term by term; a shifted phase fails here
        x = np.random.default_rng(m).standard_normal(m)
        approx, detail = dwt._analysis_step(x)
        for k in range(m // 2):
            a = sum(LOWPASS[t] * x[(2 * k + t) % m] for t in range(16))
            d = sum(HIGHPASS[t] * x[(2 * k + t) % m] for t in range(16))
            assert abs(approx[k] - a) <= 1e-13 * np.abs(x).max()
            assert abs(detail[k] - d) <= 1e-13 * np.abs(x).max()

    def test_analysis_impulse_response_is_the_taps(self):
        # x = e_0 at m = 32: a_k picks h_t at t = -2k mod 32, which is h_0 for k = 0
        # and h_{32-2k} for 2k >= 18; every other output is 0
        x = np.zeros(32)
        x[0] = 1.0
        approx, detail = dwt._analysis_step(x)
        want_a, want_d = np.zeros(16), np.zeros(16)
        for k in range(16):
            t = (-2 * k) % 32
            if t < 16:
                want_a[k], want_d[k] = LOWPASS[t], HIGHPASS[t]
        np.testing.assert_array_equal(approx, want_a)
        np.testing.assert_array_equal(detail, want_d)

    @pytest.mark.parametrize("m", BLOCK_SIZES)
    def test_steps_match_the_oracle(self, m):
        rng = np.random.default_rng(1000 + m)
        x = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
        tol = 1e-13 * np.abs(x).max()
        approx, detail = dwt._analysis_step(x)
        want_a, want_d = oracle_analysis(x)
        assert np.abs(approx - want_a).max() <= tol
        assert np.abs(detail - want_d).max() <= tol
        a, d = rng.standard_normal(m // 2), rng.standard_normal(m // 2)
        got = dwt._synthesis_step(np.concatenate((a, d)))  # the step reads (approx, detail) side by side
        assert got.shape == (m,)
        assert np.abs(got - oracle_synthesis(a, d)).max() <= 1e-13 * max(np.abs(a).max(), np.abs(d).max())

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_full_depth_matches_the_oracle(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        tol = 1e-13 * np.abs(x).max()
        dec = dwt_forward(x, max_levels(n))
        approx, want = x, []
        for _ in range(max_levels(n)):
            approx, detail = oracle_analysis(approx)
            want.append(detail)
        assert np.abs(dec.coarse - approx).max() <= tol
        for (_, got), d in zip(dec.details, reversed(want)):
            assert np.abs(got - d).max() <= tol
        back = dec.coarse
        for _, v in dec.details:
            back = oracle_synthesis(back, v)
        assert np.abs(dwt_inverse(dec) - back).max() <= tol


class TestBytesMatchTheIndexGather:
    """Both steps copy rows instead of gathering through an index; no output byte may move."""

    @pytest.mark.parametrize("n", [2**k for k in range(1, 18)])
    def test_forward_and_inverse_bytes_at_every_depth(self, n):
        rng = np.random.default_rng(n)
        inputs = [rng.standard_normal(n)] + [rng.standard_normal((rows, n)) for rows in (1, 3, 16)]
        wide = rng.standard_normal((3, 2 * n))
        inputs += [wide[:, ::2], wide[0, 1::2]]  # strided rows and a strided 1-d signal
        for x in inputs:
            for levels, want in gathered_forward(x):
                dec = dwt_forward(x, levels)
                assert dec.values.tobytes() == want.tobytes(), (x.shape, x.strides, levels)
                h = dec.coarse.shape[-1]
                assert dwt_inverse(dec).tobytes() == gathered_inverse(want, h).tobytes(), (x.shape, levels)

    def test_forward_keeps_no_index(self):
        # one forward transform holds nothing beyond its own output once it returns
        x = np.random.default_rng(3).standard_normal(2**16)
        tracemalloc.start()
        try:
            dec = dwt_forward(x, max_levels(x.size))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, the first step's (n/16, 32) operand and its product: 4 x the
        # input's bytes, where an int64 index would add 2 x more
        assert peak < 4.5 * x.nbytes
        assert held < dec.values.nbytes + 64 * 1024

    def test_inverse_holds_nothing_once_it_returns(self):
        # a full-depth transform at n = 2**17 runs synthesis steps h = 1 .. 2**16,
        # and none of them leaves an index or an operand behind
        dec = dwt_forward(np.random.default_rng(5).standard_normal(2**17), 17)
        tracemalloc.start()
        try:
            out = dwt_inverse(dec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= out.nbytes + 64 * 1024

    def test_inverse_peak_is_its_last_operand(self):
        # at (2, 16384) the largest transient is the last step's (2, 1024, 32)
        # operand, 512 KiB, filled for both rows at once
        dec = dwt_forward(np.random.default_rng(6).standard_normal((2, 16384)), 14)
        tracemalloc.start()
        try:
            out = dwt_inverse(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 528 * 1024


class TestRoundTrip:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_reconstruction_and_energy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n)
            for levels in (1, max_levels(n) // 2, max_levels(n)):
                dec = dwt_forward(x, levels)
                back = dwt_inverse(dec)
                scale = np.abs(x).max()
                assert np.abs(back - x).max() < 1e-10 * scale
                energy = dec.coarse @ dec.coarse + sum(v @ v for _, v in dec.details)
                assert abs(energy - x @ x) < 1e-10 * (x @ x)

    def test_linearity(self):
        rng = np.random.default_rng(77)
        x, y = rng.standard_normal(128), rng.standard_normal(128)
        dx, dy, dz = (dwt_forward(v, 3) for v in (x, y, 2.5 * x - y))
        np.testing.assert_allclose(dz.coarse, 2.5 * dx.coarse - dy.coarse, atol=1e-11)
        for (_, vx), (_, vy), (_, vz) in zip(dx.details, dy.details, dz.details):
            np.testing.assert_allclose(vz, 2.5 * vx - vy, atol=1e-11)

    def test_constant_signal_has_no_detail(self):
        x = np.full(512, 100.0)
        dec = dwt_forward(x, max_levels(512))
        for _, v in dec.details:
            assert np.abs(v).max() < 1e-10
        # all energy sits in the coarse block
        assert abs(dec.coarse @ dec.coarse - x @ x) < 1e-10 * (x @ x)

    def test_impulse_energy(self):
        x = np.zeros(256)
        x[100] = 1.0
        dec = dwt_forward(x, 4)
        energy = dec.coarse @ dec.coarse + sum(v @ v for _, v in dec.details)
        assert abs(energy - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hst.sampled_from([16, 64, 128]),
            elements=hst.floats(-1e6, 1e6),
        ),
        hst.integers(1, 4),
    )
    def test_round_trip_property(self, x, levels):
        back = dwt_inverse(dwt_forward(x, levels))
        tol = 1e-9 * max(1.0, np.abs(x).max())
        assert np.abs(back - x).max() < tol


class TestStructure:
    def test_level_layout(self):
        n, levels = 1024, 6
        dec = dwt_forward(np.random.default_rng(1).standard_normal(n), levels)
        base = 10 - levels
        assert dec.n == n
        assert dec.coarse.size == 2**base
        assert [j for j, _ in dec.details] == list(range(base, 10))
        assert all(v.size == 2**j for j, v in dec.details)

    def test_level_values_accessor(self):
        # a level's values are looked up by level number through dict(details)
        dec = dwt_forward(np.arange(64.0), 2)
        levels = dict(dec.details)
        assert list(levels) == [4, 5]
        assert levels[5] is dec.details[-1][1]
        with pytest.raises(KeyError):
            levels[2]

    def test_max_levels(self):
        assert max_levels(1024) == 10
        assert max_levels(16) == 4
        with pytest.raises(ValueError):
            max_levels(48)
        with pytest.raises(ValueError):
            max_levels(1)

    def test_forward_validation(self):
        x = np.zeros(64)
        with pytest.raises(ValueError):
            dwt_forward(x, 0)
        with pytest.raises(ValueError):
            dwt_forward(x, 7)
        with pytest.raises(ValueError):
            dwt_forward(np.zeros(65), 1)
        with pytest.raises(ValueError):
            dwt_forward(np.array([1.0, np.inf] + [0.0] * 62), 2)

    def test_float_levels_rejected(self):
        for levels in (2.0, 2.5):
            with pytest.raises(ValueError):
                dwt_forward(np.zeros(64), levels)

    def test_decomposition_validation(self):
        # the array's dtype and shape and the coarse size are all there is to
        # check: a level's place and length follow from the dyadic layout
        for shape in [(), (48,), (15,), (1,), (2, 2, 32)]:
            with pytest.raises(ValueError):
                WaveletDecomposition(np.zeros(shape), 1)
        with pytest.raises(ValueError):
            WaveletDecomposition(np.zeros(32, dtype=int), 8)  # a method shrinks the array in place
        for coarse_size in (0, 3, 7, 32, 64, -8):
            with pytest.raises(ValueError):
                WaveletDecomposition(np.zeros(32), coarse_size)
        for rows in (1, 3):
            dec = WaveletDecomposition(np.zeros((rows, 32)), 8)
            assert dec.coarse.shape == (rows, 8) and [j for j, _ in dec.details] == [3, 4]

    @pytest.mark.parametrize("coarse_size", [8.0, 8.5, "8", None])
    def test_coarse_size_must_be_an_int(self, coarse_size):
        with pytest.raises(ValueError):
            WaveletDecomposition(np.zeros(32), coarse_size)
