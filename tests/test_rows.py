"""Rows = signals: every batched call equals its row-by-row 1-d calls, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steinthresh.baselines import METHOD_NAMES, apply_method, make_method
from steinthresh.canonical import DEFAULT_BETA_GRID, CanonicalSample, select_beta_by_sure
from steinthresh.dwt import WaveletDecomposition, dwt_forward, dwt_inverse, max_levels
from steinthresh.harness import estimate_sigma

ROW_COUNTS = hst.sampled_from([1, 2, 5])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def row_of(decomp, k):
    """Row k of a decomposition of rows, as a 1-d decomposition."""
    return WaveletDecomposition(decomp.coarse[k], [(j, v[k]) for j, v in decomp.details], decomp.n)


@hst.composite
def signal_rows(draw, sizes=(64, 256), counts=ROW_COUNTS):
    """(m, n) noisy signals at mixed scales; for m > 1 one row is all zero."""
    m = draw(counts)
    n = draw(hst.sampled_from(sizes))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, n)) * rng.uniform(0.1, 20.0, (m, 1))
    x[:, :: n // 8] += 10.0  # a few loud coefficients, so not every level is sparse
    if m > 1:
        x[draw(hst.integers(0, m - 1))] = 0.0
    return x


class TestTransformRows:
    @settings(max_examples=30, deadline=None)
    @given(signal_rows(sizes=(16, 64, 256, 1024)), hst.integers(1, 4))
    def test_forward_and_inverse_match_row_calls(self, x, levels):
        self.check_rows(x, levels)

    @pytest.mark.parametrize("m", [8, 64])
    @pytest.mark.parametrize("n", [4096, 16384])
    @settings(max_examples=3, deadline=None)
    @given(data=hst.data())
    def test_large_blocks_match_row_calls(self, n, m, data):
        # the finest steps multiply a (n / 16, 32) operand per row
        x = data.draw(signal_rows(sizes=(n,), counts=hst.just(m)))
        self.check_rows(x, data.draw(hst.integers(1, max_levels(n))))

    @staticmethod
    def check_rows(x, levels):
        rows = dwt_forward(x, levels)
        assert rows.n == x.shape[1]
        back = dwt_inverse(rows)
        assert back.shape == x.shape
        for k in range(x.shape[0]):
            single = dwt_forward(x[k], levels)
            assert same_bytes(rows.coarse[k], single.coarse)
            for (j, v), (i, w) in zip(rows.details, single.details):
                assert j == i and same_bytes(v[k], w)
            assert same_bytes(back[k], dwt_inverse(single))

    def test_row_shapes_must_agree(self):
        good = dwt_forward(np.ones((3, 32)), 2)
        with pytest.raises(ValueError):
            WaveletDecomposition(good.coarse, [(3, np.zeros((3, 8))), (4, np.zeros((2, 16)))], 32)
        with pytest.raises(ValueError):
            WaveletDecomposition(good.coarse, [(3, np.zeros(8)), (4, np.zeros(16))], 32)
        with pytest.raises(ValueError):
            dwt_forward(np.ones((2, 2, 32)), 1)


class TestMethodRows:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(x=signal_rows(), scale=hst.floats(0.2, 5.0))
    def test_apply_method_matches_row_calls(self, name, x, scale):
        m, n = x.shape
        rows = dwt_forward(x, 4)
        sigma = scale * np.linspace(0.5, 2.0, m)[:, None]
        method = make_method(name)
        out = apply_method(method, rows, sigma, 3)
        for k in range(m):
            single = apply_method(method, row_of(rows, k), float(sigma[k, 0]), 3)
            assert same_bytes(out.coarse[k], single.coarse)
            for (_, v), (_, w) in zip(out.details, single.details):
                assert same_bytes(v[k], w)
        if name in ("sure", "zh-sure"):
            for k in np.flatnonzero(~x.any(axis=1)):  # all-zero rows pass through
                assert all(same_bytes(v[k], dict(rows.details)[j][k]) for j, v in out.details)

    def test_scalar_sigma_is_every_rows_sigma(self):
        rows = dwt_forward(np.random.default_rng(4).standard_normal((3, 256)) * 2.0, 4)
        for name in METHOD_NAMES:
            a = apply_method(make_method(name), rows, 1.7, 3)
            b = apply_method(make_method(name), rows, np.full((3, 1), 1.7), 3)
            assert all(same_bytes(v, w) for (_, v), (_, w) in zip(a.details, b.details))

    def test_any_row_sigma_not_positive_is_rejected(self):
        rows = dwt_forward(np.ones((3, 64)), 2)
        for bad in ([1.0, 0.0, 1.0], [1.0, -2.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0]):
            with pytest.raises(ValueError):
                apply_method(make_method("zh"), rows, np.array(bad), 4)
        with pytest.raises(ValueError):
            apply_method(make_method("zh"), dwt_forward(np.ones(64), 2), np.ones(1), 4)


class TestSigmaRows:
    @settings(max_examples=30, deadline=None)
    @given(signal_rows())
    def test_estimate_matches_row_calls(self, x):
        rows = dwt_forward(x, 3)
        degenerate = not all(np.any(r) for r in x)
        if degenerate:
            with pytest.warns(UserWarning):
                sigma = estimate_sigma(rows)
        else:
            sigma = estimate_sigma(rows)
        assert sigma.shape == (x.shape[0], 1)
        for k in range(x.shape[0]):
            if np.any(x[k]):
                assert same_bytes(sigma[k, 0], estimate_sigma(row_of(rows, k)))
                finest = rows.details[-1][1][k]
                assert sigma[k, 0] == np.median(np.abs(finest - np.median(finest))) / 0.6745
            else:
                with pytest.warns(UserWarning):
                    assert estimate_sigma(row_of(rows, k)) == 0.0
                assert sigma[k, 0] == 0.0


class TestSelectBetaRows:
    @settings(max_examples=30, deadline=None)
    @given(m=ROW_COUNTS, d=hst.sampled_from([3, 16, 128, 512]), seed=hst.integers(0, 2**32 - 1),
           tie_row=hst.booleans())
    def test_picks_match_row_calls(self, m, d, seed, tie_row):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((m, d)) * rng.uniform(0.5, 3.0, (m, 1))
        z[:, :2] += rng.uniform(0.0, 12.0, (m, 1))
        if tie_row:
            # every coordinate is zeroed at every beta: all totals tie
            z[-1] = 1e-3 * np.sign(z[-1])
        sigma = rng.uniform(0.5, 2.0, m)
        betas, a = select_beta_by_sure(CanonicalSample(z, sigma))
        assert betas.shape == a.shape == (m,)
        for k in range(m):
            assert (betas[k], a[k]) == select_beta_by_sure(CanonicalSample(z[k], sigma[k]))
        if tie_row:
            assert betas[-1] == max(DEFAULT_BETA_GRID)

    def test_block_size_does_not_change_row_picks(self, monkeypatch):
        # a (candidate, row) total is one sum along d, whichever candidates
        # share a kernel pass, so no block size moves a bit of a total or a
        # pick, and every total is the sum of the unblocked per-coordinate scores
        from steinthresh import canonical

        rng = np.random.default_rng(5)
        for m in (1, 4, 8):
            for d in (16, 64, 512):
                z = rng.standard_normal((m, d)) * 2.0
                z[:, : d // 8] += 9.0 * rng.random((m, 1))
                z[rng.random((m, d)) < 0.1] = 0.0
                sample = CanonicalSample(z, rng.uniform(0.5, 2.0, m))
                betas, a = canonical._beta_candidates(DEFAULT_BETA_GRID, d)
                whole = canonical.batch_sure(z, sample.sigma, betas, a).sum(axis=-1)
                monkeypatch.setattr(canonical, "_SURE_BLOCK", 1)
                picks = select_beta_by_sure(sample)
                for block in (1, 100, 8192, 2**14, 10**9):
                    monkeypatch.setattr(canonical, "_SURE_BLOCK", block)
                    assert same_bytes(canonical.batch_sure(z, sample.sigma, betas, a, True), whole)
                    got = select_beta_by_sure(sample)
                    assert same_bytes(got[0], picks[0]) and same_bytes(got[1], picks[1])
