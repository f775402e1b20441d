"""Canonical normal-means estimators: worked examples, oracles, and properties."""

import itertools
import math
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steinthresh import baselines, canonical
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


def oracle_batch_estimate(z, sigma, beta, a, positive_part=True):
    # batch_estimate before its in-place rewrite: boolean indexing of the kept
    # (or nonzero) entries and np.where, so nothing overwritten passes inf or nan
    z = np.asarray(z, dtype=float)
    w = z / sigma
    absw = np.abs(w)
    dnm = (absw**beta).sum(axis=-1)
    wide = np.broadcast_to(dnm[..., None], w.shape)
    if positive_part:
        if beta == 2.0:
            clip = np.broadcast_to((a >= dnm)[..., None], absw.shape)
        else:
            with np.errstate(divide="ignore"):
                clip = math.log(a) + (beta - 2.0) * np.log(absw) >= np.log(dnm)[..., None]
        keep = ~clip
        frac = np.zeros_like(w)
        frac[keep] = a * absw[keep] ** (beta - 2.0) / wide[keep]
        est = np.where(clip, 0.0, (1.0 - frac) * w)
    else:
        gain = np.zeros_like(w)
        nz = absw > 0.0
        gain[nz] = a * np.sign(w[nz]) * absw[nz] ** (beta - 1.0) / wide[nz]
        est = w - gain
    return sigma * est


def oracle_batch_sure(z, sigma, beta, a):
    # batch_sure before its in-place rewrite: fresh arrays and a final np.where
    w = np.asarray(z, dtype=float) / sigma
    beta = np.asarray(beta, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logw = np.maximum(np.log(np.abs(w)), -1e300)
        pb = np.exp(beta * logw)
        dnm = pb.sum(axis=-1, keepdims=True)
        lead = (beta - 2.0) * logw
        cut = np.where(beta == 2.0, np.where(a > dnm, -np.inf, np.inf), np.log(dnm) - np.log(a))
        clip = lead > cut
        small = np.exp(lead) / dnm
        kept = 1.0 + small * ((a * a + 2.0 * a * beta) * (pb / dnm) - 2.0 * a * (beta - 1.0))
    return sigma**2 * np.where(clip, w * w - 1.0, kept)


def byte_cases(seed, count, zero_rows):
    # (z, sigma) with magnitudes over many decades, exact 0.0 and -0.0 entries,
    # optionally all-zero rows, and a scalar or one-per-row sigma
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, d = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 7, 50, 129]))
        z = rng.standard_normal((m, d)) * np.exp(rng.uniform(-8.0, 4.0, (m, 1)))
        z[:, : d // 4] *= 6.0
        z[rng.random((m, d)) < 0.2] = 0.0
        z[rng.random((m, d)) < 0.1] = -0.0
        z[rng.random((m, d)) < 0.05] = 1e-300
        if zero_rows and m > 1:
            z[rng.integers(m)] = rng.choice([0.0, -0.0], d)
        elif not zero_rows:
            z[np.abs(z).max(axis=1) < 1e-100, 0] = 1.0
        sigma = rng.uniform(0.3, 3.0, (m, 1)) if k % 2 else float(rng.uniform(0.3, 3.0))
        yield z, sigma


def oracle_select(z, sigma, grid):
    # one SURE evaluation per beta in increasing order; ties go to the later beta
    best = None
    for beta in sorted(float(b) for b in grid if 1.0 < b <= 2.0):
        a = resolve_a(ShrinkConfig(beta=beta), z.size)
        total = oracle_sure(z, sigma, beta, a).sum()
        if best is None or total <= best[2]:
            best = (beta, a, total)
    return best[:2]


def oracle_block_select(rows, sigma, grid=DEFAULT_BETA_GRID, block=2**14):
    # select_beta_by_sure before the shared log pass: one full batch_sure call,
    # checks, log|w| and w**2 - 1 included, per block of at most `block`
    # values; returns (betas, a, totals) for (m, d) rows
    betas, a = canonical._beta_candidates(tuple(grid), rows.shape[1])
    step = max(1, block // rows.size)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.concatenate([
            oracle_batch_sure(rows, sigma, betas[i:i + step], a[i:i + step]).sum(axis=-1)
            for i in range(0, betas.shape[0], step)
        ])
    best = betas.shape[0] - 1 - np.argmin(totals[::-1], axis=0)
    return betas[best, 0, 0], a[best, 0, 0], totals


def oracle_zh_sure(v, sigma):
    # the zh-sure rule before the single shrink call: one scalar-beta
    # batch_estimate per distinct pick, on the rows that share it
    s = np.broadcast_to(sigma, (len(v), 1))
    out = v.copy()
    live = np.flatnonzero(v.any(axis=-1))
    if live.size:
        betas, a, _ = oracle_block_select(v[live], s[live])
        for beta in set(betas.tolist()):
            pick = betas == beta
            rows = live[pick]
            out[rows] = oracle_batch_estimate(v[rows], s[rows], beta, float(a[pick][0]))
    return out


def shared_pass_levels(m, d, seed):
    # (v, sigma) rows as a zh-sure level sees them: noise with a few large
    # coefficients, exact zeros, a row built to pick beta = 2 (every
    # coordinate zeroed at every beta) and, for m > 1, an all-zero row;
    # sigma is a scalar and then one value per row
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, d)) * rng.uniform(0.5, 3.0, (m, 1))
    v[:, : max(1, d // 16)] += rng.uniform(0.0, 12.0, (m, 1))
    v[rng.random((m, d)) < 0.1] = 0.0
    v[0] = 1e-3 * rng.standard_normal(d)
    if m > 1:
        v[rng.integers(1, m)] = 0.0
    yield v, float(rng.uniform(0.5, 2.0))
    yield v, rng.uniform(0.5, 2.0, (m, 1))


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

    def test_beta_two_zeroes_exactly_when_a_reaches_d(self):
        # at beta = 2 the ratio a*|w|**0/D >= 1 is exactly a >= D: a = D zeroes
        # the row, and a one ulp below D keeps every coordinate with its sign
        rng = np.random.default_rng(41)
        rows = [np.ones(3072), np.array([3.0, 4.0])]
        rows += [rng.standard_normal(int(rng.integers(1, 60))) * 3.0 for _ in range(300)]
        for z in rows:
            dnm = (np.abs(z) ** 2.0).sum()
            assert not batch_estimate(z, 1.0, 2.0, dnm).any()
            kept = batch_estimate(z, 1.0, 2.0, np.nextafter(dnm, 0.0))
            np.testing.assert_array_equal(np.sign(kept), np.sign(z))

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

    def test_zero_coordinates_clip_where_d_overflows(self):
        # 1e200**1.9 overflows D to inf, yet a*|0|**(beta-2) = inf still
        # exceeds it: the zeros score (w**2 - 1) * sigma**2, not nan
        z = np.array([[0.0, -0.0, 1e200, 2.0]])
        with np.errstate(over="ignore"):
            sure, shrunk = batch_sure(z, 1.5, 1.9, 10.0), batch_estimate(z, 1.5, 1.9, 10.0)
        np.testing.assert_array_equal(sure[0, :2], [-2.25, -2.25])
        np.testing.assert_array_equal(shrunk[0, :2], [0.0, 0.0])

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

    def test_overflowing_total_is_an_error_not_a_nan_pick(self):
        # 1e200**2 overflows, so SURE totals come out inf or nan; an argmin
        # over them once picked beta = 2 for this level
        with pytest.raises(ValueError, match="overflow"):
            select_beta_by_sure(CanonicalSample([1e200, 2.0, 3.0, 0.5]))
        rows = np.array([[4.0, -3.0, 0.2, 5.0], [1e200, 2.0, 3.0, 0.5]])
        with pytest.raises(ValueError, match="overflow"):
            select_beta_by_sure(CanonicalSample(rows))
        # below the overflow every total is finite and the level is picked as before
        big = np.array([1e70, 2.0, 3.0, 0.5])
        assert select_beta_by_sure(CanonicalSample(big)) == oracle_select(big, 1.0, DEFAULT_BETA_GRID)
        big[0] = 1e150
        assert np.isfinite(select_beta_by_sure(CanonicalSample(big))).all()


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

    def test_beta_two_row_clips_one_ulp_above_any_d(self):
        # a = D keeps and a one ulp above D clips, also where 1/a and 1/D round
        # to the same double (about a sixth of all D), so no test on 1/a can do
        rng = np.random.default_rng(43)
        for _ in range(300):
            z = rng.standard_normal((1, int(rng.integers(1, 40)))) * rng.uniform(0.5, 4.0)
            dnm = np.exp(2.0 * np.log(np.abs(z))).sum()  # D as the kernel forms it
            clipped = z * z - 1.0
            assert (batch_sure(z, 1.0, 2.0, dnm) != clipped).all()
            assert (batch_sure(z, 1.0, 2.0, np.nextafter(dnm, np.inf)) == clipped).all()

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


class TestInPlaceKernelBytes:
    # the in-place kernels only swap operand order against the oracles above,
    # so every value, zeros and signs included, must keep its bits
    @pytest.mark.parametrize("beta", [1.05, 4.0 / 3.0, 1.5, 1.9, 2.0])
    def test_positive_part_matches_indexed_kernel(self, beta):
        rng = np.random.default_rng(int(100 * beta))
        # rows whose D overflows to inf from beta = 1.9 up; below beta = 2 a
        # zero's ratio there is inf/inf = nan, and it must still be zeroed
        overflow = np.array([[0.0, -0.0, 1e200], [1e200, 3.0, -0.0]])
        cases = [(overflow, 1.0), (overflow, np.array([[0.5], [2.0]]))]
        for z, sigma in itertools.chain(byte_cases(int(1000 * beta), 150, zero_rows=True), cases):
            a = float(z.shape[1] * np.exp(rng.uniform(-3.0, 2.0)))
            for rows in (z, z[0]) if np.ndim(sigma) == 0 else (z,):
                with np.errstate(over=("ignore" if z is overflow else "warn")):
                    got = batch_estimate(rows, sigma, beta, a)
                    want = oracle_batch_estimate(rows, sigma, beta, a)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("beta", [0.6, 1.05, 4.0 / 3.0, 1.5, 2.0])
    def test_untruncated_matches_indexed_kernel(self, beta):
        rng = np.random.default_rng(int(100 * beta))
        for z, sigma in byte_cases(int(1000 * beta) + 1, 150, zero_rows=False):
            a = float(z.shape[1] * np.exp(rng.uniform(-3.0, 2.0)))
            got = batch_estimate(z, sigma, beta, a, positive_part=False)
            want = oracle_batch_estimate(z, sigma, beta, a, positive_part=False)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_sure_matches_fresh_array_kernel(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.array([1.05, 4.0 / 3.0, 1.5, 2.0])
        for z, sigma in byte_cases(seed, 150, zero_rows=False):
            d = z.shape[1]
            a = d * np.exp(rng.uniform(-3.0, 2.0, grid.size))
            cases = [(grid[:, None, None], a[:, None, None])]
            cases += [(b, c) for b, c in zip(grid, a)]
            for beta, c in cases:
                got = batch_sure(z, sigma, beta, c)
                want = oracle_batch_sure(z, sigma, beta, c)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_sure_broadcasts_a_scalar_against_a_column(self):
        # a scalar beta against a column of a (and the reverse) gives the
        # broadcast (G, d) result, not an in-place shape error
        rng = np.random.default_rng(31)
        z = 2.0 * rng.standard_normal(40)
        z[:3] = [0.0, -0.0, 9.0]
        col_a = np.array([[5.0], [40.0], [400.0]])
        col_b = np.array([[1.05], [1.5], [2.0]])
        for rows, sigma in ((z, 1.5), (z[None, :], 1.5), (np.vstack([z, -z]), np.array([[1.5], [0.5]]))):
            # (G, 1) columns for one level, (G, 1, 1) for rows of levels
            shape = (-1,) + (1,) * rows.ndim
            for beta, a in ((1.5, col_a.reshape(shape)), (col_b.reshape(shape), 40.0)):
                got = batch_sure(rows, sigma, beta, a)
                want = oracle_batch_sure(rows, sigma, beta, a)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert batch_sure(z, 1.0, 1.5, col_a).shape == (3, 40)
        assert batch_sure(z, 1.0, col_b, 40.0).shape == (3, 40)


class TestSharedLogPass:
    # one batch_sure call per level, its kernel run per block of candidates,
    # and one shrink call for the rows off beta = 2, against the per-block
    # and per-pick code they replaced: every pick, total and row keeps its bits
    @pytest.mark.parametrize("m", [1, 8, 64])
    @pytest.mark.parametrize("d", [16, 512, 2048])
    def test_picks_totals_and_rows_match_the_per_block_oracles(self, m, d):
        for v, sigma in shared_pass_levels(m, d, 100 * m + d):
            live = np.flatnonzero(v.any(axis=-1))
            rows = v[live]
            s = np.broadcast_to(sigma, (m, 1))[live]
            want_b, want_a, want_totals = oracle_block_select(rows, s)
            betas, a = canonical._beta_candidates(DEFAULT_BETA_GRID, d)
            assert batch_sure(rows, s, betas, a, True).tobytes() == want_totals.tobytes()
            got_b, got_a = select_beta_by_sure(CanonicalSample(rows, s))
            assert got_b.tobytes() == want_b.tobytes() and got_a.tobytes() == want_a.tobytes()
            assert want_b[0] == 2.0
            got = baselines._zh_sure(v, sigma, 1024, None)
            assert got.tobytes() == oracle_zh_sure(v, sigma).tobytes()

    @pytest.mark.parametrize("d", [3, 16, 512])
    def test_exact_zeros_and_all_zero_rows(self, d):
        rng = np.random.default_rng(d)
        for frac in (0.1, 0.5, 0.9):
            v = 2.0 * rng.standard_normal((6, d))
            v[rng.random((6, d)) < frac] = -0.0
            v[:, 0] += 1.0  # each live row keeps a nonzero coordinate
            v[2] = 0.0
            v[4] = -0.0
            for sigma in (1.5, rng.uniform(0.5, 2.0, (6, 1))):
                got = baselines._zh_sure(v, sigma, 1024, None)
                assert got.tobytes() == oracle_zh_sure(v, sigma).tobytes()
                np.testing.assert_array_equal(got[[2, 4]], 0.0)

    def test_all_clipped_rows_pick_beta_two_in_their_own_call(self, monkeypatch):
        # rows like test_all_clipped_level_ties_go_to_largest_beta go to one
        # scalar beta = 2 call, the others to one column call
        rng = np.random.default_rng(8)
        v = rng.standard_normal((5, 64)) * 2.0
        v[:, :4] += 9.0
        v[[1, 3]] = 1e-3 * rng.standard_normal((2, 64))
        calls = []

        def counting(*args):
            calls.append(args)
            return batch_estimate(*args)

        monkeypatch.setattr(baselines, "batch_estimate", counting)
        got = baselines._zh_sure(v, 1.0, 1024, None)
        assert got.tobytes() == oracle_zh_sure(v, 1.0).tobytes()
        assert [np.ndim(beta) for _, _, beta, _ in calls] == [0, 2]
        assert calls[0][2] == 2.0 and calls[0][0].shape == (2, 64)
        assert calls[1][2].shape == (3, 1) and (calls[1][2] != 2.0).all()

    def test_total_without_a_candidate_axis_sums_the_scores(self):
        z = np.array([[4.0, -3.0, 0.2, 0.0], [1.0, 0.5, -2.0, 7.0]])
        for beta, a in ((1.5, 2.0), (np.array([[1.5], [2.0]]), np.array([[2.0], [3.0]]))):
            got = batch_sure(z, 1.5, beta, a, True)
            assert got.tobytes() == batch_sure(z, 1.5, beta, a).sum(axis=-1).tobytes()


class TestBatchEstimateColumns:
    @pytest.mark.parametrize("positive_part", [True, False])
    def test_columns_match_per_row_scalar_calls(self, positive_part):
        # a column exponent runs pow on every row, while a scalar 2, 0.5 or -1
        # takes numpy's exact shortcut: |w|**beta at beta = 2 or 0.5,
        # |w|**(beta-2) at beta = 1 and |w|**(beta-1) at beta = 1.5 differ
        rng = np.random.default_rng(12)
        grid = [b for b in DEFAULT_BETA_GRID if b not in (1.5, 2.0)] + [0.6, 4.0 / 3.0]
        for m, d in ((1, 16), (8, 64), (64, 512)):
            z = rng.standard_normal((m, d)) * 2.0
            z[:, 0] += 5.0
            z[rng.random((m, d)) < 0.1] = 0.0
            beta = rng.choice(grid, (m, 1))
            a = d * np.exp(rng.uniform(-2.0, 1.0, (m, 1)))
            for sigma in (1.3, rng.uniform(0.5, 2.0, (m, 1))):
                s = np.broadcast_to(sigma, (m, 1))
                got = batch_estimate(z, sigma, beta, a, positive_part)
                for k in range(m):
                    want = batch_estimate(z[k], s[k, 0], float(beta[k, 0]), float(a[k, 0]), positive_part)
                    assert got[k].tobytes() == want.tobytes()

    def test_bad_column_values_raise_like_scalars(self):
        z = np.array([[4.0, -3.0, 0.2, 5.0], [1.0, 2.0, 3.0, 4.0]])
        good_b, good_a = np.array([[1.5], [1.2]]), np.array([[2.0], [3.0]])
        batch_estimate(z, 1.0, good_b, good_a)
        for bad in (np.nan, 0.0, -1.0, np.inf, 2.1):
            with pytest.raises(ValueError, match="beta must be in"):
                batch_estimate(z, 1.0, np.array([[1.5], [bad]]), good_a)
            with pytest.raises(ValueError, match="beta must be in"):
                batch_estimate(z, 1.0, bad, 2.0)
        for bad in (np.nan, 0.0, -1.0, np.inf):
            with pytest.raises(ValueError, match="a must be positive"):
                batch_estimate(z, 1.0, good_b, np.array([[2.0], [bad]]))
            with pytest.raises(ValueError, match="a must be positive"):
                batch_estimate(z, 1.0, 1.5, bad)
        # a column needs one value per row of a 2-d input
        with pytest.raises(ValueError, match="per row"):
            batch_estimate(z, 1.0, np.array([[1.5], [1.2], [1.1]]), 2.0)
        with pytest.raises(ValueError, match="per row"):
            batch_estimate(z[0], 1.0, 1.5, np.array([[2.0]]))

    @pytest.mark.parametrize("beta", [1.5, 1.9, 2.0])
    def test_overflowing_d_leaves_the_row_unshrunk(self, beta):
        # |w|**beta overflows D to inf: no RuntimeWarning, the row comes back
        # as it went in, and only its exact zeros are zeroed
        z = np.array([[1e200, 2.0, -0.0, -3.0], [4.0, -3.0, 0.2, 5.0]])
        got = batch_estimate(z, 1.0, beta, 2.0)
        np.testing.assert_array_equal(got[0], z[0])
        assert got[1].tobytes() == batch_estimate(z[1], 1.0, beta, 2.0).tobytes()


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
