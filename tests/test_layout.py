"""One dyadic array per decomposition: its layout contract, and one-pass rules against per-level oracles."""

import math

import numpy as np
import pytest

from steinthresh import baselines, dwt
from steinthresh.baselines import METHOD_NAMES, _pipeline, apply_method, make_method
from steinthresh.canonical import (
    CanonicalSample,
    batch_estimate,
    resolve_a,
    select_beta_by_sure,
)
from steinthresh.dwt import WaveletDecomposition, dwt_forward, dwt_inverse
from steinthresh.testbed import generate_signal


def old_soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def old_blockjs(v, sigma, n, config):
    # Cai's block James-Stein on one level, into a new array, tail block last
    block_len = math.floor(math.log(n))
    kill = baselines.BLOCK_CRITICAL * block_len * sigma * sigma
    m, d = v.shape
    out = np.empty_like(v)
    full = (d // block_len) * block_len
    with np.errstate(divide="ignore", over="ignore"):
        if full:
            blocks = v[:, :full].reshape(m, -1, block_len)
            factor = np.maximum(1.0 - kill / (blocks * blocks).sum(axis=-1), 0.0)
            out[:, :full] = (factor[..., None] * blocks).reshape(m, full)
        if full < d:
            padded = v.take(np.arange(full, full + block_len) % d, axis=-1)
            s2 = (padded * padded).sum(axis=-1, keepdims=True)
            out[:, full:] = np.where(s2 > 0, np.maximum(1.0 - kill / s2, 0.0), 0.0) * v[:, full:]
    return out


def old_zh_sure(v, sigma, n, config):
    # zh-sure on one level, into a copy: one scalar beta = 2 call, one column call for the other picks
    s = sigma if np.ndim(sigma) else np.full((len(v), 1), sigma)
    out = v.copy()
    live = np.flatnonzero(v.any(axis=-1))
    if live.size:
        betas, a = select_beta_by_sure(CanonicalSample(v[live], s[live]))
        two = betas == 2.0
        if two.any():
            rows = live[two]
            out[rows] = batch_estimate(v[rows], s[rows], 2.0, float(a[two][0]))
        if not two.all():
            rows = live[~two]
            out[rows] = batch_estimate(v[rows], s[rows], betas[~two, None], a[~two, None])
    return out


# every method's rule as it was written for one level's (m, d) rows, each
# returning a new array; the package's rules shrink all treated levels of a
# slice in place
OLD_LEVEL_RULES = {
    "identity": lambda v, sigma, n, config: v.copy(),
    "visu": lambda v, sigma, n, config: old_soft(v, sigma * math.sqrt(2.0 * math.log(n))),
    "sure": lambda v, sigma, n, config: old_soft(v, baselines._hybrid_threshold(v / sigma) * sigma),
    "blockjs": old_blockjs,
    "js": lambda v, sigma, n, config: (
        v.copy() if v.shape[-1] < 3 else batch_estimate(v, sigma, 2.0, float(v.shape[-1] - 2))),
    "zh": lambda v, sigma, n, config: batch_estimate(v, sigma, config.beta, resolve_a(config, v.shape[-1])),
    "zh-sure": old_zh_sure,
}


def per_level_reference(method, decomp, sigma, cutoff):
    """Coarse block and levels after ``method``, each treated level shrunk on its own by its old rule."""
    rule = OLD_LEVEL_RULES[method.name]
    blocks = [decomp.coarse.copy()]
    for j, v in decomp.details:
        level = np.atleast_2d(v)
        level = rule(level, sigma, decomp.n, method.config) if j >= cutoff else level.copy()
        blocks.append(level.reshape(v.shape))
    return blocks


def stepwise_inverse(blocks):
    """The inverse one synthesis step at a time, each step's input joined from its two blocks."""
    x = blocks[0]
    for v in blocks[1:]:
        x = dwt._synthesis_step(np.concatenate((x, v), axis=-1))
    return x


def noisy_rows(n, m, seed, zero_row=True):
    rng = np.random.default_rng(seed)
    f = generate_signal("bumps", n, 3.0).samples
    y = f + rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, (m, 1))
    if m > 1 and zero_row:
        y[-1] = 0.0  # an all-zero row: zh-sure scores it and picks beta = 2, which zeroes it as zh does
    return y[0] if m == 1 else y


class TestOnePassMatchesPerLevelOracle:
    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n", [256, 1024, 16384])
    def test_every_method_bit_for_bit(self, n, m):
        self.check_every_method(noisy_rows(n, m, 10 * n + m), n, m)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_every_method_bit_for_bit_with_every_row_live(self, n):
        # no all-zero row, so the old rule selects on the level in place too
        y = noisy_rows(n, 16, 10 * n + 16, zero_row=False)
        assert y.any(axis=-1).all()
        self.check_every_method(y, n, 16)

    @staticmethod
    def check_every_method(y, n, m):
        levels, cutoff = _pipeline(n)
        dec = dwt_forward(y, levels)
        sigmas = [1.3] if m == 1 else [1.3, np.linspace(0.8, 1.6, m)[:, None]]
        for sigma in sigmas:
            for name in METHOD_NAMES:
                method = make_method(name)
                got = apply_method(method, dec, sigma, cutoff)
                want = per_level_reference(method, dec, sigma, cutoff)
                assert got.coarse.tobytes() == want[0].tobytes(), name
                for (_, v), w in zip(got.details, want[1:]):
                    assert v.tobytes() == w.tobytes(), name
                assert dwt_inverse(got).tobytes() == stepwise_inverse(want).tobytes(), name


class TestSegmentedEstimate:
    SEGMENTS = ((0, 4), (4, 12), (12, 28))

    @pytest.mark.parametrize("positive_part", [True, False])
    def test_each_segment_matches_its_own_call(self, positive_part):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((3, 28)) * 2.0
        a = [2.5, 6.0, 14.0]
        for sigma in (1.5, rng.uniform(0.5, 2.0, (3, 1))):
            got = batch_estimate(z, sigma, 4.0 / 3.0, a, positive_part, self.SEGMENTS)
            for (lo, hi), a_k in zip(self.SEGMENTS, a):
                want = batch_estimate(z[:, lo:hi], sigma, 4.0 / 3.0, a_k, positive_part)
                assert got[:, lo:hi].tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", [[1.0, 2.0], [1.0, 0.0, 2.0], [1.0, math.inf, 2.0]])
    def test_needs_one_positive_finite_a_per_segment(self, a):
        with pytest.raises(ValueError):
            batch_estimate(np.ones((2, 28)), 1.0, 1.5, a, True, self.SEGMENTS)


class TestDyadicLayout:
    @pytest.mark.parametrize("shape", [(1024,), (3, 1024)])
    def test_blocks_are_views_of_one_array_in_dyadic_order(self, shape):
        x = np.random.default_rng(5).standard_normal(shape)
        dec = dwt_forward(x, 6)
        assert dec.values.shape == shape and dec.values.flags.c_contiguous
        assert dec.coarse.base is dec.values and dec.coarse.shape[-1] == 16
        assert [j for j, _ in dec.details] == list(range(4, 10))
        for j, v in dec.details:
            assert v.base is dec.values
            assert v.tobytes() == dec.values[..., 2**j:2**(j + 1)].tobytes()

    def test_attributes_the_tracer_reads(self):
        # the tracer names spans by d.n and counts zeros over (j, v) in details
        dec = dwt_forward(np.arange(256.0), 4)
        assert type(dec.n) is int and dec.n == 256
        assert all(type(j) is int and isinstance(v, np.ndarray) for j, v in dec.details)
        shrunk = apply_method(make_method("visu"), dec, 1.0, 5)
        treated = sum(v.size for j, v in shrunk.details if j >= 5)
        assert treated == 256 - 32

    @pytest.mark.parametrize("shape", [(8,), (3, 8)])
    def test_constructor_wraps_values_without_a_copy(self, shape):
        values = np.zeros(shape)
        values[...] = np.arange(8.0)
        dec = WaveletDecomposition(values, 2)
        assert dec.values is values and dec.n == 8
        assert dec.coarse.base is values and [j for j, _ in dec.details] == [1, 2]
        values[..., 0] = values[..., 3] = 99.0
        assert (dec.coarse[..., 0] == 99.0).all() and (dec.details[0][1][..., 1] == 99.0).all()

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_apply_method_never_aliases_its_input(self, name):
        dec = dwt_forward(noisy_rows(256, 2, 7), 4)
        before = dec.values.copy()
        out = apply_method(make_method(name), dec, 1.0, 4)
        assert not np.shares_memory(out.values, dec.values)
        out.values[...] = 99.0
        assert dec.values.tobytes() == before.tobytes()

    def test_inverse_leaves_its_input_alone(self):
        dec = dwt_forward(noisy_rows(1024, 2, 8), 6)
        before = dec.values.copy()
        dwt_inverse(dec)
        assert dec.values.tobytes() == before.tobytes()
