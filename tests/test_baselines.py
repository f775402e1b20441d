"""Levelwise denoising rules: thresholds, block scaling, and dispatch."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steinthresh import baselines, canonical
from steinthresh.baselines import (
    BLOCK_CRITICAL,
    METHOD_NAMES,
    LevelwiseMethod,
    apply_method,
    make_method,
    resolution_cutoff,
    soft_threshold,
)
from steinthresh.canonical import CanonicalSample, ShrinkConfig, batch_estimate, resolve_a
from steinthresh.dwt import WaveletDecomposition, dwt_forward
from steinthresh.testbed import generate_signal


def fixed(beta, a):
    return ShrinkConfig(beta=beta, a_rule=a)


def est(z, cfg, sigma=1.0):
    # one sample through the canonical estimator, with a resolved for its dimension
    z = np.asarray(z, dtype=float)
    return batch_estimate(z, sigma, cfg.beta, resolve_a(cfg, z.size))


def run(name, decomp, sigma, cutoff, **params):
    """Apply the named method, built by make_method with ``params``."""
    return apply_method(make_method(name, **params), decomp, sigma, cutoff)


def small_decomp(level2=(1.0, -2.0, 0.5, 3.0)):
    """n=8 container: coarse(2) + detail levels 1 (d=2) and 2 (d=4)."""
    return WaveletDecomposition(np.concatenate(([5.0, -1.0], [0.3, -0.7], level2)), 2)


def mid_decomp(level4):
    """n=32 container: coarse(4) + detail levels 2 (d=4), 3 (d=8), 4 (d=16)."""
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(8), level4]
    return WaveletDecomposition(np.concatenate(blocks), 4)


def wide_decomp(level4):
    """n=1024 container: coarse(16) + detail levels 4 (d=16, given) through 9."""
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal(16), level4] + [rng.standard_normal(2**j) for j in range(5, 10)]
    return WaveletDecomposition(np.concatenate(blocks), 16)


class TestResolutionCutoff:
    def test_frozen_values(self):
        expect = {4: 2, 8: 3, 16: 3, 64: 4, 256: 4, 1024: 4, 2048: 4, 4096: 5, 8192: 5}
        for n, j in expect.items():
            assert resolution_cutoff(n) == j

    def test_validation(self):
        with pytest.raises(ValueError):
            resolution_cutoff(48)
        with pytest.raises(ValueError):
            resolution_cutoff(1)


class TestPipeline:
    @pytest.mark.parametrize("n", [2**k for k in range(1, 21)])
    def test_levels_stop_at_the_cutoff(self, n):
        if n <= 8:
            with pytest.raises(ValueError, match=f"n={n} leaves no detail level above the resolution cutoff"):
                baselines._pipeline(n)
        else:
            levels, cutoff = baselines._pipeline(n)
            assert levels >= 1
            assert levels + cutoff == math.log2(n)
            assert cutoff == resolution_cutoff(n)


class TestSoftThreshold:
    def test_hand_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        np.testing.assert_array_equal(
            soft_threshold(np.array([-3.0, 0.2, 4.0]), 1.5), [-1.5, 0.0, 2.5]
        )

    def test_zero_lambda_is_identity(self):
        x = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)

    def test_x_of_integers_or_floats_of_any_rank_is_taken_and_left_unmodified(self):
        want = np.array([-1.5, 0.0, 2.5])
        for form in ([-3, 0, 4], np.array([-3, 0, 4]), np.array([-3.0, 0.2, 4.0], dtype=np.float32),
                     [-3.0, 0.2, 4.0], (-3.0, 0.2, 4.0)):
            assert soft_threshold(form, 1.5).tobytes() == want.tobytes()
        x = np.array([[-3.0, np.inf], [-np.inf, 0.5]])
        before = x.copy()
        out = soft_threshold(x, 1.0)
        np.testing.assert_array_equal(out, [[-2.0, np.inf], [-np.inf, 0.0]])
        np.testing.assert_array_equal(x, before)
        assert out is not x
        zero_d = np.array(3.0)
        assert soft_threshold(zero_d, 1.0) == 2.0 and zero_d == 3.0
        assert soft_threshold(np.float32(-3.0), 1.0) == -2.0
        assert soft_threshold(np.arange(-4, 4).reshape(2, 2, 2), 1).shape == (2, 2, 2)

    def test_message_names_a_lists_first_bool_or_string_item(self):
        # numpy makes [True, 2.0] float64, so its dtype would name no fault
        for bad, got in (([True, 2.0], "bool item True"), ([2.0, "3", True], "str item '3'"),
                         ([[1.0], [np.True_]], "bool item np.True_"), ("3", "str item '3'"),
                         (np.array([True, False]), "bool"), (np.ones(2, dtype=object), "object")):
            with pytest.raises(ValueError, match=rf"not bools or strings, got {re.escape(got)}$"):
                soft_threshold(bad, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(hst.floats(-1e8, 1e8), hst.floats(0, 1e8))
    def test_shrinks_toward_zero(self, x, lam):
        y = float(soft_threshold(x, lam))
        assert abs(y) <= abs(x)
        assert y * x >= 0.0


class TestVisuShrink:
    def test_universal_threshold_value(self):
        lam = math.sqrt(2.0 * math.log(1024))
        assert lam == pytest.approx(3.723297411059034, rel=1e-11)

    def test_treated_levels_soft_thresholded(self):
        dec = wide_decomp([4.0, -4.0, 1.0, -1.0] * 4)
        out = run("visu", dec, 1.0, 4)
        lam = math.sqrt(2.0 * math.log(1024))
        np.testing.assert_array_equal(out.details[0][1], soft_threshold(dec.details[0][1], lam))
        # support matches exceedance of the threshold
        np.testing.assert_array_equal(out.details[0][1] != 0.0, np.abs(dec.details[0][1]) > lam)

    def test_below_cutoff_untouched(self):
        dec = mid_decomp(np.zeros(16))
        out = run("visu", dec, 2.0, 4)
        for k in range(2):
            np.testing.assert_array_equal(out.details[k][1], dec.details[k][1])
        np.testing.assert_array_equal(out.coarse, dec.coarse)

    def test_sigma_scales_threshold(self):
        dec = wide_decomp([10.0] * 16)
        out = run("visu", dec, 2.0, 4)
        lam = 2.0 * math.sqrt(2.0 * math.log(1024))
        np.testing.assert_allclose(out.details[0][1], 10.0 - lam, rtol=1e-14)

    def test_validation(self):
        dec = mid_decomp(np.zeros(16))
        with pytest.raises(ValueError):
            run("visu", dec, 0.0, 4)
        with pytest.raises(ValueError):
            run("visu", dec, math.inf, 4)


class TestSureShrink:
    def test_sparse_level_gets_universal_threshold(self):
        v = np.random.default_rng(2).standard_normal(16)
        dec = mid_decomp(v)
        out = run("sure", dec, 1.0, 4)
        lam = math.sqrt(2.0 * math.log(16))
        np.testing.assert_array_equal(out.details[2][1], soft_threshold(v, lam))

    def test_dense_loud_level_kept_verbatim(self):
        # every |w| is far above the universal level, so the only SURE
        # candidate is t=0 and the level passes through unchanged
        v = np.array([10.0, -10.0] * 8)
        out = run("sure", mid_decomp(v), 1.0, 4)
        np.testing.assert_array_equal(out.details[2][1], v)

    def test_dense_branch_matches_brute_force(self):
        rng = np.random.default_rng(8)
        v = np.concatenate([rng.normal(0, 0.4, 8), rng.normal(0, 9.0, 8)])
        d = v.size
        universal = math.sqrt(2.0 * math.log(d))
        assert (v @ v - d) / d > math.log2(d) ** 1.5 / math.sqrt(d)
        aw = np.abs(v)
        cands = np.concatenate([[0.0], np.sort(aw[aw <= universal])])
        risks = [d - 2 * np.sum(aw <= t) + np.minimum(v**2, t**2).sum() for t in cands]
        best = cands[int(np.argmin(risks))]
        out = run("sure", mid_decomp(v), 1.0, 4)
        np.testing.assert_array_equal(out.details[2][1], soft_threshold(v, best))

    def test_all_zero_level_unchanged(self):
        out = run("sure", mid_decomp(np.zeros(16)), 1.0, 4)
        np.testing.assert_array_equal(out.details[2][1], np.zeros(16))

    def test_sigma_standardization(self):
        v = np.random.default_rng(3).standard_normal(16) * 5.0
        out1 = run("sure", mid_decomp(v), 5.0, 4)
        out2 = run("sure", mid_decomp(v / 5.0), 1.0, 4)
        np.testing.assert_allclose(out1.details[2][1], 5.0 * out2.details[2][1], rtol=1e-13)

    @pytest.mark.parametrize("sigma", [1.0, 0.5])  # every level scored sparse at 1.0, the finest dense at 0.5
    def test_working_set_is_one_levels_scoring_or_the_soft_pass(self, sigma):
        # the rule standardizes each level where it scores it, so what it
        # holds on top of its output copy is the larger of one level's scoring
        # (the standardized level and the hybrid rule's temporaries) and the
        # soft pass over the slice (its spread thresholds and signs), with no
        # standardized copy of the whole slice under either
        n, m = 16384, 2
        x = generate_signal("doppler", n, 3.0).samples + np.random.default_rng(n).standard_normal((m, n))
        levels, cutoff = baselines._pipeline(n)
        decomp = dwt_forward(x, levels)
        method = make_method("sure")
        apply_method(method, decomp, sigma, cutoff)  # fill the caches first
        t = decomp.values[:, 2**cutoff:]
        tracemalloc.start()
        try:
            scoring = 0
            for j in range(cutoff, n.bit_length() - 1):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                baselines._hybrid_threshold(decomp.values[:, 2**j:2**(j + 1)] / sigma)
                scoring = max(scoring, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            out = apply_method(method, decomp, sigma, cutoff)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.shape == (m, n)
        assert peak - held <= max(scoring, 2 * t.nbytes) + 2**14


def oracle_hybrid_threshold(w):
    # the one-row hybrid rule: counts of |w| <= t by searchsorted over the
    # sorted level, candidates 0 and every |w_i| up to the universal level
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


def hybrid_rows(kind, d, rng):
    # one standardized row of the named kind
    if kind == "sparse":
        return rng.standard_normal(d)
    if kind == "dense":
        return rng.standard_normal(d) * 3.0
    if kind in ("mixed", "tied"):
        w = np.concatenate([rng.normal(0, 0.6, d - d // 2), rng.normal(0, 9.0, d // 2)])
        # on a half-integer grid: tied |w| and exact (signed) zeros
        return np.round(w * 2.0) * 0.5 if kind == "tied" else w
    return np.zeros(d)


class TestHybridThreshold:
    KINDS = ("sparse", "dense", "mixed", "tied", "zero")

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 512])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_rows_match_one_row_oracle_bitwise(self, m, d):
        rng = np.random.default_rng(1000 * m + d)
        for offset in range(len(self.KINDS)):
            w = np.array([hybrid_rows(self.KINDS[(offset + i) % len(self.KINDS)], d, rng) for i in range(m)])
            got = baselines._hybrid_threshold(w)
            assert got.shape == (m, 1)
            want = np.array([oracle_hybrid_threshold(row) for row in w])
            np.testing.assert_array_equal(got[:, 0].view(np.uint64), want.view(np.uint64))

    def test_oracle_cases_reach_the_sure_search_on_ties(self):
        # the tied rows must pick an interior candidate shared by several |w|
        rng = np.random.default_rng(16)
        w = np.array([hybrid_rows("tied", 512, rng) for _ in range(4)])
        universal = math.sqrt(2.0 * math.log(512))
        for row, t in zip(w, baselines._hybrid_threshold(w)[:, 0]):
            assert 0.0 < t < universal
            assert np.sum(np.abs(row) == t) > 1


class TestBlockJS:
    # wide_decomp has n=1024, so the block length is floor(ln 1024) = 6
    KILL = BLOCK_CRITICAL * 6.0

    def test_block_at_kill_boundary_zeroed(self):
        c = math.sqrt(self.KILL / 6.0)
        v = np.concatenate([np.full(6, c), np.full(6, 100.0), [1.0, 2.0, 3.0, 4.0]])
        out = run("blockjs", wide_decomp(v), 1.0, 4)
        np.testing.assert_array_equal(out.details[0][1][:6], np.zeros(6))

    def test_half_shrink_block(self):
        c = math.sqrt(2.0 * self.KILL / 6.0)
        v = np.concatenate([np.full(6, c), np.full(6, 100.0), [1.0, 2.0, 3.0, 4.0]])
        out = run("blockjs", wide_decomp(v), 1.0, 4)
        np.testing.assert_allclose(out.details[0][1][:6], 0.5 * c, rtol=1e-12)

    def test_loud_block_barely_shrunk(self):
        v = np.concatenate([np.full(6, 1000.0), np.full(6, 1000.0), [1.0, 2.0, 3.0, 4.0]])
        out = run("blockjs", wide_decomp(v), 1.0, 4)
        np.testing.assert_allclose(out.details[0][1][:12], 1000.0, rtol=1e-4)
        factor = 1.0 - self.KILL / (6.0 * 1000.0**2)
        np.testing.assert_allclose(out.details[0][1][:12], 1000.0 * factor, rtol=1e-13)

    def test_partial_tail_padded_cyclically(self):
        v = np.concatenate([np.full(6, 9.0), np.full(6, 100.0), [1.0, 2.0, 3.0, 4.0]])
        out = run("blockjs", wide_decomp(v), 1.0, 4)
        # tail S^2 pads with the first two level coefficients (both 9.0)
        s2 = 1.0 + 4.0 + 9.0 + 16.0 + 81.0 + 81.0
        factor = max(1.0 - self.KILL / s2, 0.0)
        np.testing.assert_allclose(out.details[0][1][12:], factor * v[12:], rtol=1e-13)

    def test_zero_level_stays_zero(self):
        out = run("blockjs", wide_decomp(np.zeros(16)), 1.0, 4)
        np.testing.assert_array_equal(out.details[0][1], np.zeros(16))
        assert np.isfinite(out.details[0][1]).all()

    def test_factor_never_amplifies(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16) * 3.0
        out = run("blockjs", wide_decomp(v), 1.0, 4)
        w = out.details[0][1]
        assert np.all(np.abs(w) <= np.abs(v) + 1e-12)
        assert np.all(w * v >= 0.0)

    def test_tiny_n_rejected(self):
        # n=2 gives floor(ln 2) = 0, an empty block
        dec = WaveletDecomposition(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError):
            run("blockjs", dec, 1.0, 0)

    @staticmethod
    def hand_factors(level, sigma, block_len):
        # each coefficient's factor, S^2 summed one term at a time over its
        # block of the level padded cyclically from its start
        d = len(level)
        kill = BLOCK_CRITICAL * block_len * sigma * sigma
        factors = []
        for start in range(0, d, block_len):
            s2 = sum(float(level[k % d]) ** 2 for k in range(start, start + block_len))
            factors += [max(1.0 - kill / s2, 0.0) if s2 > 0 else 0.0] * min(block_len, d - start)
        return np.array(factors)

    def assert_hand_factors(self, decomp, sigma, cutoff, block_len):
        # every detail level of ``decomp`` is at or above ``cutoff``
        out = run("blockjs", decomp, sigma, cutoff)
        sigmas = np.broadcast_to(sigma, (len(np.atleast_2d(decomp.values)), 1))[:, 0]
        for (_, v), (_, w) in zip(decomp.details, out.details):
            for row, new, s in zip(np.atleast_2d(v), np.atleast_2d(w), sigmas):
                np.testing.assert_allclose(new, self.hand_factors(row, s, block_len) * row, rtol=1e-12, atol=0)

    def test_levels_shorter_than_a_block_wrap_more_than_once(self):
        # n = 1024, L = 6: levels of 1, 2 and 4 coefficients pad to one block
        # by repeating themselves 6, 3 and 1.5 times
        values = np.random.default_rng(21).standard_normal(1024) * 3.0
        values[1:4] = [0.0, 1.0, -1.0]  # level 0 all zero, level 1 below the kill line
        self.assert_hand_factors(WaveletDecomposition(values, 1), 1.0, 0, 6)

    def test_levels_of_whole_blocks(self):
        # n = 4096, L = floor(ln 4096) = 8 divides every level from 8 up
        values = np.random.default_rng(22).standard_normal(4096) * 2.0
        assert math.floor(math.log(4096)) == 8
        self.assert_hand_factors(WaveletDecomposition(values, 8), 1.0, 3, 8)

    def test_sigma_column_scales_each_row_by_its_own_sigma(self):
        values = np.random.default_rng(23).standard_normal((3, 1024)) * 3.0
        self.assert_hand_factors(WaveletDecomposition(values, 16), np.array([[0.5], [1.0], [2.0]]), 4, 6)

    @pytest.mark.parametrize(("n", "m"), [(16384, 1), (1024, 16)])
    def test_transient_peak_is_within_three_finest_levels(self, n, m):
        # the rule gathers one padded level at a time, so what it holds on top
        # of the output copy (still referenced by ``out`` when the memory is
        # read) stays near two copies of the finest level
        x = generate_signal("doppler", n, 3.0).samples + np.random.default_rng(n).standard_normal((m, n))
        levels, cutoff = baselines._pipeline(n)
        decomp = dwt_forward(x, levels)
        method = make_method("blockjs")
        apply_method(method, decomp, 1.0, cutoff)  # fill the caches first
        tracemalloc.start()
        try:
            out = apply_method(method, decomp, 1.0, cutoff)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 3 * m * (n // 2) * 8


class TestLevelwiseThresholding:
    def test_matches_canonical_estimator_on_treated_level(self):
        z = (0.01, 5.0, 5.0, 5.0)
        cfg = fixed(4.0 / 3.0, 10.0 / 3.0)
        out = run("zh", small_decomp(z), 1.0, 2, config=cfg)
        expect = est(z, cfg)
        np.testing.assert_array_equal(out.details[1][1], expect)
        assert out.details[1][1][0] == 0.0
        np.testing.assert_array_equal(out.details[0][1], small_decomp(z).details[0][1])

    def test_a_resolved_per_level_size(self):
        dec = mid_decomp(np.random.default_rng(5).standard_normal(16) * 4.0)
        cfg = ShrinkConfig(beta=4.0 / 3.0, a_rule="finite")
        out = run("zh", dec, 1.0, 3, config=cfg)
        for idx, d in ((1, 8), (2, 16)):
            v = dec.details[idx][1]
            cfg_d = fixed(4.0 / 3.0, float(0.97 * (d - 2) * 1.7207043598936434))
            np.testing.assert_allclose(
                out.details[idx][1],
                est(v, cfg_d),
                rtol=1e-12,
            )

    def test_cutoff_above_everything_is_identity(self):
        dec = mid_decomp(np.random.default_rng(6).standard_normal(16))
        out = run("zh", dec, 1.0, 9, config=ShrinkConfig())
        for (j1, v1), (j2, v2) in zip(out.details, dec.details):
            assert j1 == j2
            np.testing.assert_array_equal(v1, v2)


class TestJSPlus:
    def test_delegates_to_quadratic_canonical_path(self):
        dec = mid_decomp(np.random.default_rng(7).standard_normal(16) * 2.0)
        js = run("js", dec, 1.3, 4)
        zh = run("zh", dec, 1.3, 4, config=fixed(2.0, 14.0))
        np.testing.assert_array_equal(js.details[2][1], zh.details[2][1])

    def test_small_levels_pass_through(self):
        dec = small_decomp((8.0, -7.0, 6.0, 5.0))
        out = run("js", dec, 1.0, 1)
        np.testing.assert_array_equal(out.details[0][1], dec.details[0][1])  # d=2 < 3
        v = dec.details[1][1]
        shrunk = (1.0 - 2.0 / (v @ v)) * v  # d=4, a=d-2=2, nothing clips
        np.testing.assert_allclose(out.details[1][1], shrunk, rtol=1e-13)


class TestSureTuned:
    def test_all_zero_level_unchanged(self):
        out = run("zh-sure", mid_decomp(np.zeros(16)), 1.0, 4)
        np.testing.assert_array_equal(out.details[2][1], np.zeros(16))

    def test_deterministic_and_shaped(self):
        dec = mid_decomp(np.random.default_rng(9).standard_normal(16) * 3.0)
        out1 = run("zh-sure", dec, 1.0, 4)
        out2 = run("zh-sure", dec, 1.0, 4)
        np.testing.assert_array_equal(out1.details[2][1], out2.details[2][1])
        assert out1.details[2][1].shape == (16,)


class TestMethodDispatch:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            LevelwiseMethod("wavelet-magic")
        with pytest.raises(ValueError):
            LevelwiseMethod("visu", config=ShrinkConfig())

    @pytest.mark.parametrize("bad", ["zh", None, ShrinkConfig()], ids=["name", "None", "ShrinkConfig"])
    def test_apply_method_takes_only_a_levelwise_method(self, bad):
        # a bare name once raised AttributeError
        with pytest.raises(ValueError, match=r"^method must be a LevelwiseMethod, got "):
            apply_method(bad, mid_decomp(np.ones(16)), 1.0, 3)

    def test_make_method_fills_default_config(self):
        m = make_method("zh")
        assert m.config == ShrinkConfig()
        assert LevelwiseMethod("zh").config == ShrinkConfig()
        assert make_method("visu").config is None

    def test_identity_returns_independent_copy(self):
        dec = mid_decomp(np.ones(16))
        out = apply_method(make_method("identity"), dec, 1.0, 4)
        np.testing.assert_array_equal(out.details[2][1], dec.details[2][1])
        out.details[2][1][0] = 99.0
        assert dec.details[2][1][0] == 1.0

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_method_rejects_a_bad_sigma(self, name):
        dec = mid_decomp(np.ones(16))
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                apply_method(make_method(name), dec, bad, 3)
        rows = dwt_forward(np.ones((3, 32)), 3)
        with pytest.raises(ValueError, match="one sigma per row"):
            apply_method(make_method(name), rows, np.ones((2, 1)), 3)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_method_preserves_structure(self, name):
        sig = generate_signal("blocks", 64, 3.0)
        noisy = sig.samples + np.random.default_rng(12).standard_normal(64)
        dec = dwt_forward(noisy, 4)  # detail levels 2..5; cutoff 4 leaves 2,3 alone
        out = apply_method(make_method(name), dec, 1.0, 4)
        assert out.n == dec.n
        assert [j for j, _ in out.details] == [j for j, _ in dec.details]
        np.testing.assert_array_equal(out.coarse, dec.coarse)
        for (j, vin), (_, vout) in zip(dec.details, out.details):
            assert vout.shape == vin.shape
            if j < 4:
                np.testing.assert_array_equal(vout, vin)
            elif name != "identity":
                assert np.all(np.abs(vout) <= np.abs(vin) + 1e-12)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_rule_shrinks_its_slice_in_place(self, name):
        # one shape for every rule: rule(t, sigma, n, config, levels, scratch)
        # writes into t (levels 3 and 4 here) and returns None, with scratch
        # None or an array of t's shape whose values it never reads
        rule = baselines._RULES[name]
        assert list(inspect.signature(rule).parameters) == ["t", "sigma", "n", "config", "levels", "scratch"]
        dec = mid_decomp(np.random.default_rng(15).standard_normal(16) * 3.0)
        want = run(name, dec, 1.0, 3).values[8:].tobytes()
        for scratch in (None, np.full((1, 24), np.nan), np.full((1, 24), -7.0)):
            t = dec.values[None, 8:].copy()
            assert rule(t, 1.0, 32, make_method(name).config, ((0, 8), (8, 24)), scratch) is None
            assert t[0].tobytes() == want

    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
    def test_cutoff_level_must_be_finite(self, cutoff):
        with pytest.raises(ValueError):
            run("visu", mid_decomp(np.ones(16)), 1.0, cutoff)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_coefficient_is_rejected_by_every_method(self, name, bad):
        # the rules shrink in place with no check of their own; zh and js once
        # rejected it through batch_estimate, and visu returned nan
        level4 = np.ones(16)
        level4[5] = bad
        with pytest.raises(ValueError, match="decomposition values must be finite"):
            run(name, mid_decomp(level4), 1.0, 3)

    def test_quadratic_config_reproduces_james_stein_when_a_matches(self):
        dec = mid_decomp(np.random.default_rng(13).standard_normal(16) * 2.0)
        zh = apply_method(make_method("zh", config=fixed(2.0, 14.0)), dec, 1.0, 4)
        js = apply_method(make_method("js"), dec, 1.0, 4)
        np.testing.assert_array_equal(zh.details[2][1], js.details[2][1])

    @pytest.mark.parametrize("name, hooks, estimates", [
        ("zh", {"_shrink"}, 1),  # one in-place pass over both treated levels
        ("js", {"_shrink"}, 1),
        ("zh-sure", {"_shrink", "select_beta_by_sure"}, 2),  # one per treated level, of one row each
    ], ids=["zh-hooks0", "js-hooks1", "zh-sure-hooks2"])
    def test_rules_look_up_canonical_calls_at_call_time(self, monkeypatch, name, hooks, estimates):
        # a wrapper swapped into the baselines module after import must see
        # every call: zh and js run the estimator's kernel on their slice in
        # place, zh-sure on each level's rows, and none runs the checked
        # batch_estimate, which baselines does not import
        calls = {"_shrink": [], "select_beta_by_sure": []}
        checked = []

        def counting(fn, seen):
            def wrapper(*args, **kwargs):
                seen.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for attr, seen in calls.items():
            monkeypatch.setattr(baselines, attr, counting(getattr(baselines, attr), seen))
        monkeypatch.setattr(canonical, "batch_estimate", counting(canonical.batch_estimate, checked))
        dec = mid_decomp(np.random.default_rng(14).standard_normal(16) * 3.0)
        out = apply_method(make_method(name), dec, 1.0, 3)
        monkeypatch.undo()
        np.testing.assert_array_equal(out.details[2][1], run(name, dec, 1.0, 3).details[2][1])
        assert {attr for attr, seen in calls.items() if seen} == hooks
        assert len(calls["_shrink"]) == estimates and not checked
        assert not hasattr(baselines, "batch_estimate")
        for (sample,) in calls["select_beta_by_sure"]:
            assert isinstance(sample, CanonicalSample)
