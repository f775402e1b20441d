"""Synthetic benchmark curves."""

import dataclasses

import numpy as np
import pytest

from steinthresh import testbed
from steinthresh.harness import risk_sweep
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


class TestSignalCache:
    """Each test clears the cache first, so its calls run in a fixed order."""

    def setup_method(self):
        testbed._signal.cache_clear()

    def test_float_n_raises_after_the_int_n_is_cached(self):
        # 64.0 == 64 and both hash alike, so the length check must run before the cache
        generate_signal("blocks", 64, 3.0)
        for bad in (64.0, np.float64(64.0)):
            with pytest.raises(ValueError):
                generate_signal("blocks", bad, 3.0)

    def test_numpy_and_python_n_share_one_signal(self):
        assert generate_signal("bumps", np.int64(64), 3.0) is generate_signal("bumps", 64, 3.0)

    def test_repeated_call_returns_the_same_object(self):
        first = generate_signal("doppler", 256, 3.0)
        assert generate_signal("doppler", 256, 3.0) is first
        assert generate_signal("doppler", 256, 6.0) is not first

    def test_shared_signal_is_read_only(self):
        sig = generate_signal("heavisine", 128, 3.0)
        with pytest.raises(ValueError, match="read-only"):
            sig.samples[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sig.samples *= 2.0
        for field, value in (("samples", np.zeros(128)), ("name", "blocks"), ("snr", 6.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sig, field, value)
        assert sig.samples.copy().flags.writeable

    def test_signals_compare_and_hash_by_identity(self):
        # an array field would make a generated __eq__ raise on a length or snr mismatch
        sig = generate_signal("blocks", 64, 3.0)
        others = (generate_signal("blocks", 128, 3.0), generate_signal("blocks", 64, 6.0))
        for other in others:
            assert sig != other and not sig == other
        assert sig == generate_signal("blocks", 64, 3.0)
        assert len({sig, *others, generate_signal("blocks", 64, 3.0)}) == 3
        testbed._signal.cache_clear()
        fresh = generate_signal("blocks", 64, 3.0)
        assert fresh != sig and hash(fresh) != hash(sig)

    def test_fresh_signal_after_cache_clear_has_the_same_bytes(self):
        cached = generate_signal("spikes", 1024, 3.0)
        testbed._signal.cache_clear()
        fresh = generate_signal("spikes", 1024, 3.0)
        assert fresh is not cached
        assert fresh.samples.tobytes() == cached.samples.tobytes()

    def test_risk_sweep_reports_equal_with_a_cold_and_a_warm_cache(self):
        args = (["zh", "visu"], ["blocks", "corner"], [64, 256], 3.0, 4, 11)
        cold = risk_sweep(*args)
        assert testbed._signal.cache_info().currsize == 4
        warm = risk_sweep(*args)
        assert testbed._signal.cache_info().hits == 4
        assert warm == cold
