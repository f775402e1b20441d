"""Canonical normal-means estimators: worked examples, oracles, and properties."""

import math
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steinthresh import canonical
from steinthresh._rng import substream
from steinthresh.canonical import (
    DEFAULT_BETA_GRID,
    CanonicalSample,
    ShrinkConfig,
    batch_estimate,
    batch_sure,
    c_beta,
    moment_constant,
    monte_carlo_a_beta,
    resolve_a,
    select_beta_by_sure,
)


def fixed(beta, a):
    return ShrinkConfig(beta=beta, a_rule="fixed", fixed_a=a)


def est(z, cfg, sigma=1.0, positive_part=True):
    # one sample through the batched estimator, with a resolved for its dimension
    z = np.asarray(z, dtype=float)
    return batch_estimate(z, sigma, cfg.beta, resolve_a(cfg, z.size), positive_part)


def oracle_sure(z, sigma, beta, a):
    # per-coordinate SURE of one level at one beta, by pow and masked indexing
    w = np.asarray(z, dtype=float) / sigma
    absw = np.abs(w)
    dnm = (absw**beta).sum()
    if beta == 2.0:
        clip = np.full(w.shape, a > dnm)
    else:
        with np.errstate(divide="ignore"):
            clip = math.log(a) + (beta - 2.0) * np.log(absw) > math.log(dnm)
    keep = ~clip
    val = np.empty_like(w)
    val[clip] = w[clip] ** 2 - 1.0
    small = absw[keep] ** (beta - 2.0) / dnm
    big = absw[keep] ** (2.0 * beta - 2.0) / dnm**2
    val[keep] = 1.0 + a * a * big - 2.0 * a * (beta - 1.0) * small + 2.0 * a * beta * big
    return sigma**2 * val


def oracle_select(z, sigma, grid):
    # one SURE evaluation per beta in increasing order; ties go to the later beta
    best = None
    for beta in sorted(float(b) for b in grid if 1.0 < b <= 2.0):
        a = resolve_a(ShrinkConfig(beta=beta), z.size)
        total = oracle_sure(z, sigma, beta, a).sum()
        if best is None or total <= best[2]:
            best = (beta, a, total)
    return best[:2]


@lru_cache(maxsize=None)
def oracle_monte_carlo_a_beta(beta, d, reps, seed):
    # the kernel before row chunking, block threads and the single pow per
    # value: one 16 MiB draw per block
    if not (0.5 < beta <= 2.0):
        raise ValueError(f"simulated constant requires beta in (1/2, 2], got {beta}")
    if d < 3:
        raise ValueError("d must be at least 3")
    reps = int(reps)
    if reps < 1000:
        raise ValueError("need at least 1000 replicates")
    batch = max(1, 2**21 // int(d))
    s1 = 0.0
    s2 = 0.0
    done = 0
    block = 0
    while done < reps:
        take = min(batch, reps - done)
        xi = np.abs(substream(seed, block).standard_normal((take, d)))
        num = (xi ** (2.0 * beta - 2.0)).sum(axis=1)
        den = (xi**beta).sum(axis=1) ** 2
        ratio = num / den
        s1 += float(ratio.sum())
        s2 += float((ratio * ratio).sum())
        done += take
        block += 1
    mean = s1 / reps
    if not (math.isfinite(mean) and mean > 0):
        raise ArithmeticError(f"non-finite accumulation at beta={beta}, d={d}")
    var = max(0.0, (s2 - reps * mean * mean) / (reps - 1))
    se_mean = math.sqrt(var / reps)
    return 2.0 / mean, 2.0 * se_mean / mean**2


def assert_matches_oracle(got, beta, d, reps, seed):
    # |xi|**beta is formed as |xi|**(beta-1) * |xi|, which rounds differently
    # unless beta = 2, where pow(x, 1.0) is exact and the bytes must not move
    want = oracle_monte_carlo_a_beta(beta, d, reps, seed)
    if beta == 2.0:
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def seeded_levels(d, sigma, seed):
    # pure noise, a few large spikes, a weak signal everywhere, and sprinkled exact zeros
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal((4, d))
    noise[1, : max(1, d // 10)] += sigma * 6.0
    noise[2] += sigma * 0.8
    noise[3, rng.random(d) < 0.3] = 0.0
    return [v for v in noise if np.any(v)]


class TestThresholdEstimate:
    def test_equal_coordinates_hand_value(self):
        # D = 4*2^{4/3}; shrink fraction = (10/3)*2^{-2/3}/D = 5/24; 2*(19/24) = 19/12
        out = est([2.0, 2.0, 2.0, 2.0], fixed(4.0 / 3.0, 10.0 / 3.0))
        np.testing.assert_allclose(out, 19.0 / 12.0, rtol=1e-13)

    def test_small_coordinate_zeroed_large_ones_shrunk(self):
        z = np.array([0.01, 5.0, 5.0, 5.0])
        out = est(z, fixed(4.0 / 3.0, 10.0 / 3.0))
        assert out[0] == 0.0
        # independent brute-force evaluation of the positive-part formula
        dnm = (np.abs(z) ** (4.0 / 3.0)).sum()
        brute = np.maximum(1.0 - (10.0 / 3.0) * np.abs(z) ** (-2.0 / 3.0) / dnm, 0.0) * z
        np.testing.assert_allclose(out, brute, rtol=1e-13)
        assert np.all(out[1:] > 0) and np.all(out[1:] < 5.0)

    def test_james_stein_hand_value(self):
        out = est([3.0, 0.0, 0.0], fixed(2.0, 1.0))
        np.testing.assert_allclose(out, [8.0 / 3.0, 0.0, 0.0], rtol=1e-14)

    def test_all_zero_input_returns_zero_vector(self):
        assert np.all(est(np.zeros(6), fixed(1.5, 2.0)) == 0.0)

    def test_zero_coordinate_is_zeroed_for_beta_below_two(self):
        assert est([0.0, 8.0, -9.0], fixed(1.2, 0.5))[0] == 0.0

    def test_zero_characterization(self):
        # a coordinate is zeroed exactly when a*|z_i/sigma|**(beta-2) >= D
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(3, 12))
            z = rng.standard_normal(d) * rng.uniform(0.5, 4.0)
            sigma = rng.uniform(0.5, 2.0)
            beta = rng.uniform(1.01, 2.0)
            a = rng.uniform(0.2, 3.0) * d
            w = np.abs(z / sigma)
            dnm = (w**beta).sum()
            out = est(z, fixed(beta, a), sigma)
            should_be_zero = a * w ** (beta - 2.0) >= dnm
            np.testing.assert_array_equal(out == 0.0, should_be_zero)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(8)
        cfg = fixed(1.4, 3.0)
        for c in (0.25, 3.0, 117.0):
            a = est(c * z, cfg, sigma=c * 1.0)
            b = c * est(z, cfg, sigma=1.0)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        hst.lists(hst.floats(-50, 50), min_size=3, max_size=10),
        hst.floats(1.01, 2.0),
        hst.floats(0.1, 20.0),
    )
    def test_permutation_and_sign_equivariance(self, values, beta, a):
        z = np.asarray(values)
        cfg = fixed(beta, a)
        out = est(z, cfg)
        perm = np.random.default_rng(0).permutation(z.size)
        np.testing.assert_allclose(est(z[perm], cfg), out[perm], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(est(-z, cfg), -out, rtol=1e-12, atol=1e-12)

    def test_tiny_magnitudes_stay_finite(self):
        z = np.array([1e-300, 1e-12, 5.0, -6.0])
        out = est(z, fixed(1.1, 2.0))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_beta_out_of_range(self):
        for beta in (2.5, 0.0):
            for positive_part in (True, False):
                with pytest.raises(ValueError):
                    batch_estimate(np.ones(3), 1.0, beta, 1.0, positive_part)


class TestUntruncatedEstimate:
    def test_overshoot_past_zero(self):
        z = np.array([0.01, 5.0, 5.0, 5.0])
        out = est(z, fixed(4.0 / 3.0, 10.0 / 3.0), positive_part=False)
        dnm = (np.abs(z) ** (4.0 / 3.0)).sum()
        brute = z - (10.0 / 3.0) * np.sign(z) * np.abs(z) ** (1.0 / 3.0) / dnm
        np.testing.assert_allclose(out, brute, rtol=1e-13)
        assert out[0] < 0.0  # sign flip: shrinkage overshoots the small coordinate

    def test_agrees_with_threshold_when_nothing_clips(self):
        z = np.array([4.0, -5.0, 6.0, 7.0])
        cfg = fixed(1.8, 1.0)
        np.testing.assert_allclose(est(z, cfg, positive_part=False), est(z, cfg), rtol=1e-13)

    def test_all_zero_input_rejected(self):
        with pytest.raises(ValueError):
            est(np.zeros(4), fixed(1.5, 1.0), positive_part=False)


class TestMomentConstant:
    def test_exact_values(self):
        assert moment_constant(2.0) == pytest.approx(1.0, rel=1e-14)
        assert moment_constant(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert moment_constant(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        draws = np.abs(rng.standard_normal(400_000))
        for beta in (4.0 / 3.0, 0.7, 1.9):
            sample = draws**beta
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(moment_constant(beta) - sample.mean()) < 4.0 * se

    def test_divergent_moment_rejected(self):
        with pytest.raises(ValueError):
            moment_constant(-1.0)


class TestCBeta:
    def test_frozen_endpoints(self):
        assert c_beta(2.0) == pytest.approx(2.0, rel=1e-14)
        assert c_beta(1.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_against_plain_gamma_evaluation(self):
        for beta in (0.6, 1.0, 4.0 / 3.0, 1.7, 2.0):
            direct = 4.0 * math.gamma((beta + 1) / 2) ** 2 / (
                math.sqrt(math.pi) * math.gamma((2 * beta - 1) / 2)
            )
            assert c_beta(beta) == pytest.approx(direct, rel=1e-13)

    def test_published_decimal(self):
        assert c_beta(4.0 / 3.0) == pytest.approx(1.7207, abs=5e-5)

    def test_domain(self):
        for bad in (0.5, 0.2, 2.1):
            with pytest.raises(ValueError):
                c_beta(bad)


class TestResolveA:
    def test_finite_sample_rule(self):
        a = resolve_a(ShrinkConfig(beta=4.0 / 3.0, a_rule="finite"), 50)
        assert a == pytest.approx(0.97 * 48.0 * c_beta(4.0 / 3.0), rel=1e-14)
        # ~ (5/3)*(d-2): the 0.97 calibration makes this 80 to within ~0.15%
        assert a == pytest.approx(80.0, rel=2e-3)

    def test_asymptotic_rule(self):
        assert resolve_a(ShrinkConfig(beta=2.0, a_rule="asymptotic"), 17) == pytest.approx(17.0)
        d = 50
        expect = d * math.sqrt(2.0 * math.log(d)) * math.sqrt(2.0 / math.pi)
        assert resolve_a(ShrinkConfig(beta=1.0, a_rule="asymptotic"), d) == pytest.approx(expect, rel=1e-13)

    def test_empirical_bayes_rule(self):
        assert resolve_a(ShrinkConfig(beta=1.3, a_rule="eb"), 23) == 23.0

    def test_certified_bound_rule(self):
        assert resolve_a(ShrinkConfig(beta=2.0, a_rule="theorem"), 10) == pytest.approx(16.0)
        with pytest.raises(ValueError):
            resolve_a(ShrinkConfig(beta=1.1, a_rule="theorem"), 10)  # 2(0.1)(10) - 2.2 < 0

    def test_fixed_rule_and_validation(self):
        assert resolve_a(fixed(1.5, 7.5), 4) == 7.5
        with pytest.raises(ValueError):
            resolve_a(ShrinkConfig(beta=1.5, a_rule="finite"), 2)
        with pytest.raises(ValueError):
            resolve_a(ShrinkConfig(), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShrinkConfig(beta=2.5)
        with pytest.raises(ValueError):
            ShrinkConfig(a_rule="nope")
        with pytest.raises(ValueError):
            ShrinkConfig(a_rule="fixed")
        with pytest.raises(ValueError):
            ShrinkConfig(a_rule="finite", fixed_a=3.0)


class TestSure:
    def test_clipped_coordinate_hand_value(self):
        # coordinate 1 clips (a*0.01^{-2/3} ~ 71.8 > D ~ 25.65): contribution w^2 - 1
        per = batch_sure(np.array([0.01, 5.0, 5.0, 5.0]), 1.0, 4.0 / 3.0, 10.0 / 3.0)
        assert per[0] == pytest.approx(0.01**2 - 1.0, abs=1e-15)

    def test_james_stein_closed_forms(self):
        # beta=2, a=d-2: total is d - (d-2)^2/||w||^2 when nothing clips,
        # and ||w||^2 - d when everything clips
        z = np.array([2.0, -1.0, 3.0, 0.5, 1.5])
        d = z.size
        q = float(z @ z)
        total = batch_sure(z, 1.0, 2.0, float(d - 2)).sum()
        assert q > d - 2
        assert total == pytest.approx(d - (d - 2) ** 2 / q, rel=1e-13)

        z = np.array([0.1, 0.2, -0.3, 0.1, 0.05])
        q = float(z @ z)
        total = batch_sure(z, 1.0, 2.0, float(d - 2)).sum()
        assert q < d - 2
        assert total == pytest.approx(q - d, rel=1e-13)

    def test_sigma_rescaling(self):
        z = np.array([0.5, 4.0, -3.0, 2.0])
        base = batch_sure(z, 1.0, 1.5, 2.0)
        scaled = batch_sure(3.0 * z, 3.0, 1.5, 2.0)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_unbiasedness_at_origin(self):
        # mean total over draws should match the Monte Carlo risk of the estimator
        d, beta = 8, 4.0 / 3.0
        a = resolve_a(ShrinkConfig(beta=beta), d)
        rng = np.random.default_rng(21)
        z = rng.standard_normal((100_000, d))
        totals = batch_sure(z, 1.0, beta, a).sum(axis=1)
        errs = (batch_estimate(z, 1.0, beta, a) ** 2).sum(axis=1)
        diff = totals - errs
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 3.0 * se

    def test_degenerate_and_domain_errors(self):
        with pytest.raises(ValueError):
            batch_sure(np.zeros(4), 1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            batch_sure(np.ones(4), 1.0, 1.0, 1.0)  # needs beta > 1


class TestSelectBeta:
    def test_singleton_grid(self):
        s = CanonicalSample(np.array([4.0, -3.0, 0.2, 5.0]))
        beta, a = select_beta_by_sure(s, [1.5])
        assert beta == 1.5
        assert a == pytest.approx(resolve_a(ShrinkConfig(beta=1.5), 4), rel=1e-14)

    def test_default_grid_minimizes_measured_risk_estimate(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(32)
        z[:3] += 7.0
        s = CanonicalSample(z)
        beta, a = select_beta_by_sure(s)
        totals = {
            b: batch_sure(z, 1.0, b, resolve_a(ShrinkConfig(beta=b), 32)).sum()
            for b in [1.0 + 0.05 * k for k in range(1, 21)]
        }
        assert totals[beta] == min(totals.values())
        assert a == pytest.approx(resolve_a(ShrinkConfig(beta=beta), 32), rel=1e-14)

    def test_out_of_range_entries_ignored(self):
        s = CanonicalSample(np.array([4.0, -3.0, 0.2, 5.0]))
        beta, _ = select_beta_by_sure(s, [0.4, 1.0, 1.5, 2.4])
        assert beta == 1.5
        with pytest.raises(ValueError):
            select_beta_by_sure(s, [0.4, 2.4])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        s = CanonicalSample(rng.standard_normal(16))
        assert select_beta_by_sure(s) == select_beta_by_sure(s)

    @pytest.mark.parametrize("d", [3, 16, 512, 2048])
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 3.0])
    def test_matches_per_beta_oracle(self, d, sigma):
        for seed in range(5):
            for z in seeded_levels(d, sigma, 1000 * d + seed):
                got = select_beta_by_sure(CanonicalSample(z, sigma))
                assert got == oracle_select(z, sigma, DEFAULT_BETA_GRID)

    def test_exact_zeros_follow_pow(self):
        # log-space powers must give |0|**0 = 1 on the beta = 2 row, as pow does
        z = np.array([0.0] * 5 + [10.0] * 20)
        assert select_beta_by_sure(CanonicalSample(z), [1.5, 2.0]) == oracle_select(z, 1.0, [1.5, 2.0])
        assert select_beta_by_sure(CanonicalSample(z), [1.5, 2.0])[0] == 1.5
        rng = np.random.default_rng(17)
        for d in (3, 16, 512):
            for frac in (0.1, 0.5, 0.9):
                z = 2.0 * rng.standard_normal(d)
                z[rng.random(d) < frac] = 0.0
                if np.any(z):
                    got = select_beta_by_sure(CanonicalSample(z, 2.0))
                    assert got == oracle_select(z, 2.0, DEFAULT_BETA_GRID)

    def test_unsorted_duplicate_and_out_of_range_grid(self):
        grid = [2.0, 0.5, 1.5, 1.25, 1.5, 2.4, 1.0, 2.0, 1.25]
        rng = np.random.default_rng(23)
        picked = set()
        for d in (3, 16, 512, 2048):
            for z in seeded_levels(d, 1.0, d):
                got = select_beta_by_sure(CanonicalSample(z), grid)
                assert got == oracle_select(z, 1.0, grid)
                assert got == select_beta_by_sure(CanonicalSample(z), sorted(set(grid)))
                picked.add(got[0])
        assert picked <= {1.25, 1.5, 2.0}
        z = rng.standard_normal(16)
        assert select_beta_by_sure(CanonicalSample(z), grid) == oracle_select(z, 1.0, grid)

    def test_block_size_does_not_change_the_pick(self, monkeypatch):
        from steinthresh import canonical

        levels = [z for d in (16, 512, 2048) for z in seeded_levels(d, 1.0, 7 * d)]
        picks = [select_beta_by_sure(CanonicalSample(z)) for z in levels]
        for block in (1, 100, 10**9):
            monkeypatch.setattr(canonical, "_SURE_BLOCK", block)
            assert [select_beta_by_sure(CanonicalSample(z)) for z in levels] == picks

    def test_all_clipped_level_ties_go_to_largest_beta(self):
        # every coordinate is zeroed at every beta, so every total is sum(w**2 - 1)
        z = np.array([1e-3, -2e-3, 5e-4])
        for beta in DEFAULT_BETA_GRID:
            a = resolve_a(ShrinkConfig(beta=beta), 3)
            np.testing.assert_array_equal(oracle_sure(z, 1.0, beta, a), z**2 - 1.0)
        assert select_beta_by_sure(CanonicalSample(z)) == oracle_select(z, 1.0, DEFAULT_BETA_GRID)
        assert select_beta_by_sure(CanonicalSample(z))[0] == 2.0
        assert select_beta_by_sure(CanonicalSample(z), [1.5, 1.25, 1.75])[0] == 1.75


class TestBatchSureColumn:
    @pytest.mark.parametrize("d", [3, 16, 512])
    def test_column_matches_stacked_scalar_calls(self, d):
        rng = np.random.default_rng(d)
        z = 1.5 * rng.standard_normal(d)
        z[:2] = 0.0
        z[-1] += 9.0
        betas = np.array([1.05, 1.25, 4.0 / 3.0, 1.5, 1.9, 2.0])
        a = np.array([resolve_a(ShrinkConfig(beta=b), d) for b in betas])
        got = batch_sure(z[None, :], 1.5, betas[:, None], a[:, None])
        stacked = np.vstack([batch_sure(z[None, :], 1.5, b, c) for b, c in zip(betas, a)])
        assert got.shape == (betas.size, d)
        np.testing.assert_allclose(got, stacked, rtol=1e-12)
        oracle = np.vstack([oracle_sure(z, 1.5, b, c) for b, c in zip(betas, a)])
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)

    def test_beta_two_row_clips_by_direct_comparison(self):
        # D = 3072 exactly; a one ulp above it has the same log, and the beta = 2 row must still clip
        z = np.ones(3072)
        above = np.nextafter(3072.0, np.inf)
        assert math.log(above) == math.log(3072.0)
        got = batch_sure(z[None, :], 1.0, np.array([[2.0], [2.0]]), np.array([[3072.0], [above]]))
        np.testing.assert_array_equal(got[1], np.zeros(3072))
        np.testing.assert_allclose(got[0], oracle_sure(z, 1.0, 2.0, 3072.0), rtol=1e-12)
        np.testing.assert_array_equal(got[1], oracle_sure(z, 1.0, 2.0, above))

    def test_column_domain_errors(self):
        z = np.array([[4.0, -3.0, 0.2, 5.0]])
        good_b, good_a = np.array([[1.5], [2.0]]), np.array([[2.0], [3.0]])
        batch_sure(z, 1.0, good_b, good_a)
        for bad in (1.0, 0.9, 2.1, np.nan):
            with pytest.raises(ValueError):
                batch_sure(z, 1.0, np.array([[1.5], [bad]]), good_a)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                batch_sure(z, 1.0, good_b, np.array([[2.0], [bad]]))
        with pytest.raises(ValueError):
            batch_sure(np.zeros((1, 4)), 1.0, good_b, good_a)
        with pytest.raises(ValueError):
            batch_sure(np.vstack([z[0], np.zeros(4)]), 1.0, 1.5, 2.0)


class TestMonteCarloConstant:
    def test_chi_square_closed_form(self):
        est, se = monte_carlo_a_beta(2.0, 10, 30_000, seed=7)
        assert se > 0
        assert abs(est - 16.0) < 4.0 * se

    def test_deterministic_per_seed(self):
        assert monte_carlo_a_beta(1.5, 5, 2000, seed=3) == monte_carlo_a_beta(1.5, 5, 2000, seed=3)
        a1, _ = monte_carlo_a_beta(1.5, 5, 2000, seed=3)
        a2, _ = monte_carlo_a_beta(1.5, 5, 2000, seed=4)
        assert a1 != a2

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_a_beta(0.5, 10, 2000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_a_beta(2.1, 10, 2000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_a_beta(1.5, 2, 2000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_a_beta(1.5, 10, 999, seed=0)


class TestMonteCarloBlocks:
    # 3.5 blocks: four blocks, the last one ragged (3 * 1048 + 524 rows at d = 2000)
    D = 2000
    BLOCK_ROWS = 2**21 // D
    REPS = 3 * BLOCK_ROWS + BLOCK_ROWS // 2

    @pytest.mark.parametrize("beta", [4.0 / 3.0, 2.0])
    @pytest.mark.parametrize("chunk_rows", [1, 7, BLOCK_ROWS])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_the_unchunked_serial_kernel(self, monkeypatch, beta, chunk_rows, cpus):
        monkeypatch.setattr(canonical, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(canonical, "_MC_CHUNK", chunk_rows * self.D)
        got = monte_carlo_a_beta(beta, self.D, self.REPS, seed=17)
        assert_matches_oracle(got, beta, self.D, self.REPS, 17)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_bound_a_shape_with_a_ragged_last_block(self, monkeypatch, cpus):
        # d = 50: 3.5 blocks of 41943 rows, drawn in the default 2621-row chunks
        monkeypatch.setattr(canonical, "_cpu_count", lambda: cpus)
        reps = 7 * (2**21 // 50) // 2
        for beta in (4.0 / 3.0, 2.0):
            assert_matches_oracle(monte_carlo_a_beta(beta, 50, reps, seed=9), beta, 50, reps, 9)

    def test_single_block_starts_no_pool(self, monkeypatch):
        def no_pool(*_):
            raise AssertionError("a single block must not start a thread pool")

        monkeypatch.setattr(canonical, "_cpu_count", lambda: 3)
        monkeypatch.setattr(canonical, "ThreadPoolExecutor", no_pool)
        assert_matches_oracle(monte_carlo_a_beta(1.5, 50, 5000, seed=2), 1.5, 50, 5000, 2)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_worker_exception_propagates(self, monkeypatch, cpus):
        def failing(seed, *path):
            if path == (1,):
                raise RuntimeError("block 1 failed")
            return substream(seed, *path)

        monkeypatch.setattr(canonical, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(canonical, "substream", failing)
        caught = []

        def call():
            try:
                monte_carlo_a_beta(2.0, self.D, self.REPS, seed=1)
            except RuntimeError as exc:
                caught.append(exc)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [str(e) for e in caught] == ["block 1 failed"]


class TestSampleValidation:
    def test_rejects_bad_inputs(self):
        # 2-d input holds one sample per row; 3-d and empty inputs are rejected
        with pytest.raises(ValueError):
            CanonicalSample(np.ones((1, 2, 3)))
        with pytest.raises(ValueError):
            CanonicalSample(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            CanonicalSample(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            CanonicalSample(np.array([1.0]), sigma=0.0)
        # any row's sigma <= 0 is rejected, as is a sigma count that does not match the rows
        with pytest.raises(ValueError):
            CanonicalSample(np.ones((3, 4)), sigma=np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            CanonicalSample(np.ones((3, 4)), sigma=np.array([1.0, -1.0, 2.0]).reshape(3, 1))
        with pytest.raises(ValueError):
            CanonicalSample(np.ones((3, 4)), sigma=np.ones(2))
        rows = CanonicalSample(np.array([[1.0, 2.0]]), sigma=[2.0])
        assert rows.z.shape == (1, 2) and rows.sigma.shape == (1, 1)
