"""One dyadic array per decomposition: its layout contract, and one-pass rules against per-level oracles."""

import math

import numpy as np
import pytest

from steinthresh import baselines, dwt
from steinthresh.baselines import METHOD_NAMES, _pipeline_depth, apply_method, make_method, resolution_cutoff
from steinthresh.canonical import batch_estimate, resolve_a
from steinthresh.dwt import WaveletDecomposition, dwt_forward, dwt_inverse
from steinthresh.testbed import generate_signal


def old_soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


# the per-level rules of the methods that now shrink all treated levels in
# one pass, as they were written for one level's (m, d) rows
OLD_LEVEL_RULES = {
    "visu": lambda v, sigma, n, config: old_soft(v, sigma * math.sqrt(2.0 * math.log(n))),
    "sure": lambda v, sigma, n, config: old_soft(v, baselines._hybrid_threshold(v / sigma) * sigma),
    "js": lambda v, sigma, n, config: (
        v.copy() if v.shape[-1] < 3 else batch_estimate(v, sigma, 2.0, float(v.shape[-1] - 2))),
    "zh": lambda v, sigma, n, config: batch_estimate(v, sigma, config.beta, resolve_a(config, v.shape[-1])),
}


def per_level_reference(method, decomp, sigma, cutoff):
    """Coarse block and levels after ``method``, each treated level shrunk on its own copy.

    The one-pass methods use their old per-level rules; the others run their
    ``_RULES`` entry with the level as the whole treated slice.
    """
    rule = baselines._RULES[method.name]
    blocks = [decomp.coarse.copy()]
    for j, v in decomp.details:
        level = np.atleast_2d(v).copy()
        if j >= cutoff and method.name in OLD_LEVEL_RULES:
            level = OLD_LEVEL_RULES[method.name](level, sigma, decomp.n, method.config)
        elif j >= cutoff:
            rule(level, sigma, decomp.n, method.config, ((0, level.shape[-1]),))
        blocks.append(level.reshape(v.shape))
    return blocks


def stepwise_inverse(blocks):
    """The inverse one synthesis step at a time, each step's input joined from its two blocks."""
    x = blocks[0]
    for v in blocks[1:]:
        x = dwt._synthesis_step(np.concatenate((x, v), axis=-1))
    return x


def noisy_rows(n, m, seed):
    rng = np.random.default_rng(seed)
    f = generate_signal("bumps", n, 3.0).samples
    y = f + rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, (m, 1))
    if m > 1:
        y[-1] = 0.0  # an all-zero row: zh-sure passes it through, blockjs and zh zero it
    return y[0] if m == 1 else y


class TestOnePassMatchesPerLevelOracle:
    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n", [256, 1024, 16384])
    def test_every_method_bit_for_bit(self, n, m):
        y = noisy_rows(n, m, 10 * n + m)
        dec = dwt_forward(y, _pipeline_depth(n))
        cutoff = resolution_cutoff(n)
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

    def test_constructor_packs_a_copy(self):
        coarse, level = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        dec = WaveletDecomposition(coarse, [(1, level)], 4)
        np.testing.assert_array_equal(dec.values, [1.0, 2.0, 3.0, 4.0])
        coarse[0] = level[0] = 99.0
        np.testing.assert_array_equal(dec.values, [1.0, 2.0, 3.0, 4.0])
        assert dec.details[0][1].base is dec.values

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
