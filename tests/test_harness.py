"""Monte Carlo engines: calibration, determinism, and the sigma estimator."""

import math

import numpy as np
import pytest

from steinthresh import harness
from steinthresh.baselines import make_method, resolution_cutoff
from steinthresh.canonical import ShrinkConfig
from steinthresh.dwt import WaveletDecomposition, dwt_forward, max_levels
from steinthresh.harness import (
    canonical_risk,
    estimate_sigma,
    risk_sweep,
    wavelet_risk,
    wavelet_risk_replicates,
)
from steinthresh.testbed import generate_signal


def fixed(beta, a):
    return ShrinkConfig(beta=beta, a_rule="fixed", fixed_a=a)


class TestCanonicalRisk:
    def test_raw_observation_calibration(self):
        # estimating by Z itself has risk exactly d * sigma^2
        rep = canonical_risk(np.linspace(-2, 2, 12), None, 1.3, 2000, seed=1)
        assert abs(rep.mean_risk - 12 * 1.3**2) < 3.0 * rep.std_error

    def test_untruncated_quadratic_risk_at_origin(self):
        # beta=2, a=d-2, theta=0: closed-form risk d - (d-2)^2 E[1/chi2_d] = 2
        rep = canonical_risk(
            np.zeros(10), fixed(2.0, 8.0), 1.0, 20_000, seed=2, positive_part=False
        )
        assert abs(rep.mean_risk - 2.0) < 3.0 * rep.std_error

    def test_positive_part_improves_at_origin(self):
        plus = canonical_risk(np.zeros(10), fixed(2.0, 8.0), 1.0, 20_000, seed=2)
        raw = canonical_risk(
            np.zeros(10), fixed(2.0, 8.0), 1.0, 20_000, seed=2, positive_part=False
        )
        # same seed means paired draws; the gap at the origin is large
        assert plus.mean_risk < raw.mean_risk - 3.0 * plus.std_error

    def test_deterministic_and_worker_invariant(self):
        args = (np.ones(6), fixed(1.5, 3.0), 2.0, 600)
        a = canonical_risk(*args, seed=5)
        b = canonical_risk(*args, seed=5)
        c = canonical_risk(*args, seed=5, workers=3)
        assert a.mean_risk == b.mean_risk == c.mean_risk
        assert a.std_error == c.std_error
        d = canonical_risk(*args, seed=6)
        assert d.mean_risk != a.mean_risk

    def test_report_fields(self):
        rep = canonical_risk(np.zeros(4), fixed(1.5, 2.0), 1.0, 500, seed=0, label="origin")
        assert rep.d == 4 and rep.reps == 500 and rep.beta == 1.5 and rep.a == 2.0
        assert rep.theta == "origin"
        assert rep.std_error > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_risk(np.zeros(4), None, 1.0, 99, seed=0)
        with pytest.raises(ValueError):
            canonical_risk(np.zeros(4), None, 0.0, 200, seed=0)


class TestEstimateSigma:
    def test_alternating_unit_coefficients(self):
        dec = WaveletDecomposition(
            np.array([3.0, 1.0]),
            [(1, np.array([0.2, 0.4])), (2, np.zeros(4)), (3, np.tile([1.0, -1.0], 4))],
            16,
        )
        assert estimate_sigma(dec) == 1.0 / 0.6745

    def test_median_centering(self):
        # a constant offset in the finest block is absorbed by the median
        dec = WaveletDecomposition(
            np.array([3.0, 1.0]),
            [(1, np.array([0.2, 0.4])), (2, np.zeros(4)), (3, 5.0 + np.tile([1.0, -1.0], 4))],
            16,
        )
        assert estimate_sigma(dec) == pytest.approx(1.0 / 0.6745, rel=1e-12)

    def test_degenerate_block_warns_and_returns_zero(self):
        dec = WaveletDecomposition(
            np.array([3.0, 1.0]),
            [(1, np.array([0.2, 0.4])), (2, np.zeros(4)), (3, np.zeros(8))],
            16,
        )
        with pytest.warns(UserWarning):
            assert estimate_sigma(dec) == 0.0

    def test_needs_two_coefficients(self):
        dec = WaveletDecomposition(np.array([1.0]), [(0, np.array([2.0]))], 2)
        with pytest.raises(ValueError):
            estimate_sigma(dec)

    def test_recovers_noise_scale_roughly(self):
        rng = np.random.default_rng(31)
        for k in range(3):
            dec = dwt_forward(2.0 * rng.standard_normal(1024), 6)
            assert estimate_sigma(dec) == pytest.approx(2.0, rel=0.2)


class TestWaveletRisk:
    def test_identity_relative_risk_is_one(self):
        sig = generate_signal("blocks", 64, 3.0)
        rep = wavelet_risk(make_method("identity"), sig, reps=400, seed=3)
        se_rel = rep.std_error / 64
        assert abs(rep.relative_risk - 1.0) < 3.0 * se_rel
        assert rep.n == 64 and rep.signal == "blocks" and rep.method == "identity"
        assert rep.mean_risk == pytest.approx(rep.relative_risk * 64, rel=1e-12)

    def test_replicates_are_paired_across_methods(self):
        sig = generate_signal("doppler", 128, 3.0)
        a = wavelet_risk_replicates(make_method("identity"), sig, reps=50, seed=9)
        b = wavelet_risk_replicates(make_method("identity"), sig, reps=50, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50,)

    def test_worker_invariance_bitwise(self):
        sig = generate_signal("bumps", 128, 3.0)
        m = make_method("zh")
        r1 = wavelet_risk_replicates(m, sig, reps=70, seed=11, workers=1)
        r4 = wavelet_risk_replicates(m, sig, reps=70, seed=11, workers=4)
        np.testing.assert_array_equal(r1, r4)

    def test_estimated_sigma_mode_runs(self):
        sig = generate_signal("heavisine", 256, 3.0)
        rep = wavelet_risk(make_method("zh"), sig, sigma_mode="estimated", reps=60, seed=4)
        assert math.isfinite(rep.relative_risk) and 0.0 < rep.relative_risk < 1.0

    def test_pipeline_error_matches_coefficient_error(self):
        # Parseval: squared error in signal space equals squared coefficient
        # error between the shrunk and the clean decompositions
        from steinthresh.baselines import apply_method
        from steinthresh.dwt import dwt_inverse
        from steinthresh.testbed import add_noise

        sig = generate_signal("bumps", 256, 3.0)
        levels = max_levels(256) - resolution_cutoff(256)
        y = add_noise(sig, 1.0, seed=13)
        dec = apply_method(make_method("zh"), dwt_forward(y, levels), 1.0, resolution_cutoff(256))
        fhat = dwt_inverse(dec)
        clean = dwt_forward(sig.samples, levels)
        coef_err = float(np.sum((dec.coarse - clean.coarse) ** 2)) + sum(
            float(np.sum((v - clean.level_values(j)) ** 2)) for j, v in dec.details
        )
        sig_err = float(np.sum((fhat - sig.samples) ** 2))
        assert coef_err == pytest.approx(sig_err, rel=1e-8)

    def test_validation(self):
        sig = generate_signal("blocks", 64, 3.0)
        with pytest.raises(ValueError):
            wavelet_risk(make_method("zh"), sig, sigma_mode="exact", reps=50, seed=0)
        with pytest.raises(ValueError):
            wavelet_risk(make_method("zh"), sig, reps=1, seed=0)


class TestRiskSweep:
    def test_single_cell(self):
        reports = risk_sweep(["identity"], ["blocks"], [64], snr=3.0, reps=30, seed=7)
        assert len(reports) == 1
        rep = reports[0]
        assert (rep.signal, rep.n, rep.reps) == ("blocks", 64, 30)
        assert rep.relative_risk == pytest.approx(rep.mean_risk / 64, rel=1e-12)

    def test_common_random_numbers(self):
        reports = risk_sweep(
            ["identity", "identity"], ["bumps"], [64], snr=3.0, reps=40, seed=8
        )
        assert reports[0].mean_risk == reports[1].mean_risk

    def test_ordering_and_method_objects(self):
        reports = risk_sweep(
            [make_method("identity"), "visu"],
            ["blocks", "doppler"],
            [64, 128],
            snr=3.0,
            reps=10,
            seed=1,
        )
        keys = [(r.signal, r.n, r.method) for r in reports]
        assert keys == [
            ("blocks", 64, "identity"),
            ("blocks", 64, "visu"),
            ("blocks", 128, "identity"),
            ("blocks", 128, "visu"),
            ("doppler", 64, "identity"),
            ("doppler", 64, "visu"),
            ("doppler", 128, "identity"),
            ("doppler", 128, "visu"),
        ]

    def test_doppler_relative_risk_improves_with_n(self):
        reports = risk_sweep(
            ["zh"], ["doppler"], [64, 256, 1024], snr=3.0, reps=150, seed=5
        )
        rel = [r.relative_risk for r in reports]
        se = [r.std_error / r.n for r in reports]
        for k in range(len(rel) - 1):
            slack = 3.0 * math.hypot(se[k], se[k + 1])
            assert rel[k + 1] < rel[k] + slack

    @pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_single_method_calls_bitwise(self, sigma_mode, workers):
        # the shared per-replicate analysis must not change any method's errors,
        # and the accepted workers argument must not change anything either
        names = ["zh", "zh-sure", "visu", "zh", "blockjs"]
        reports = risk_sweep(names, ["bumps"], [256], snr=3.0, reps=40, seed=12,
                             sigma_mode=sigma_mode, workers=workers)
        sig = generate_signal("bumps", 256, 3.0)
        methods = [make_method(name) for name in names]
        rows = harness._cell_errors(methods, sig, sigma_mode, 40, 12)
        assert rows.shape == (len(names), 40)
        for method, row, rep in zip(methods, rows, reports):
            errs = wavelet_risk_replicates(method, sig, sigma_mode, 40, 12, workers)
            assert row.tobytes() == errs.tobytes()
            assert rep == wavelet_risk(method, sig, sigma_mode, 40, 12, workers)
        assert rows[0].tobytes() == rows[3].tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            risk_sweep(["zh", "visu"], ["blocks"], [64], snr=3.0, reps=10, seed=0, sigma_mode="exact")
        with pytest.raises(ValueError):
            risk_sweep(["zh", "visu"], ["blocks"], [64], snr=3.0, reps=1, seed=0)
