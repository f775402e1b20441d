"""Synthetic benchmark curves."""

import numpy as np
import pytest

from steinthresh import testbed
from steinthresh.testbed import CANONICAL_SIGNALS, SIGNAL_NAMES, generate_signal


class TestRegistry:
    def test_expected_names(self):
        assert set(CANONICAL_SIGNALS) == {"blocks", "bumps", "heavisine", "doppler"}
        assert set(CANONICAL_SIGNALS) <= set(SIGNAL_NAMES)
        assert {"spikes", "corner"} <= set(SIGNAL_NAMES)
        assert len(SIGNAL_NAMES) == 6

    def test_constant_signal_rejected(self):
        # corner is 0 at both points of the n = 2 grid, t = 0 and t = 0.5
        with pytest.raises(ValueError, match="constant"):
            generate_signal("corner", 2, 3.0)


class TestGenerateSignal:
    @pytest.mark.parametrize("name", SIGNAL_NAMES)
    def test_sample_sd_equals_snr(self, name):
        for snr in (3.0, 7.5):
            sig = generate_signal(name, 1024, snr)
            assert sig.samples.size == 1024
            assert sig.samples.std(ddof=1) == pytest.approx(snr, rel=1e-9)

    def test_snr_change_is_a_pure_rescale(self):
        a = generate_signal("doppler", 512, 3.0).samples
        b = generate_signal("doppler", 512, 6.0).samples
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12, atol=1e-12)

    def test_blocks_is_piecewise_constant(self):
        # 11 jumps give at most 12 plateau values (up to roundoff in the sum)
        sig = generate_signal("blocks", 2048, 3.0)
        assert np.unique(np.round(sig.samples, 9)).size <= 12

    def test_heavisine_jump_locations(self):
        sig = generate_signal("heavisine", 1024, 3.0)
        steps = np.abs(np.diff(sig.samples))
        top2 = set(np.argsort(steps)[-2:] + 1)
        assert top2 == {308, 738}  # first grid points at or past t=0.3 and t=0.72

    def test_grid_starts_at_zero(self):
        # both curves vanish identically at t=0, pinning the grid convention
        assert generate_signal("heavisine", 256, 3.0).samples[0] == 0.0
        assert generate_signal("doppler", 256, 3.0).samples[0] == 0.0

    def test_bumps_nonnegative_and_peaked(self):
        sig = generate_signal("bumps", 1024, 3.0)
        assert sig.samples.min() >= 0.0
        assert sig.samples.max() > 5.0 * np.median(sig.samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_signal("nope", 64, 3.0)
        with pytest.raises(ValueError):
            generate_signal("blocks", 100, 3.0)
        with pytest.raises(ValueError):
            generate_signal("blocks", 64, 0.0)
        for snr in (np.inf, np.nan):  # an infinite snr scaled the samples to nan
            with pytest.raises(ValueError, match="snr must be positive and finite"):
                generate_signal("blocks", 64, snr)
            with pytest.raises(ValueError, match="snr must be positive and finite"):
                testbed.TestSignal("blocks", np.ones(64), snr)

