"""Monte Carlo engines: calibration, determinism, and the sigma estimator."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from steinthresh import canonical, harness, testbed
from steinthresh._rng import substream
from steinthresh.baselines import METHOD_NAMES, apply_method, make_method, resolution_cutoff, soft_threshold
from steinthresh.canonical import (
    CanonicalSample,
    ShrinkConfig,
    batch_estimate,
    batch_sure,
    monte_carlo_a_beta,
    resolve_a,
)
from steinthresh.dwt import WaveletDecomposition, dwt_forward, dwt_inverse, max_levels
from steinthresh.harness import (
    canonical_risk,
    estimate_sigma,
    risk_sweep,
    wavelet_risk_replicates,
)
from steinthresh.testbed import generate_signal


def fixed(beta, a):
    return ShrinkConfig(beta=beta, a_rule=a)


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

    @pytest.mark.parametrize(("rule", "want"), [
        (None, (50.19809193853037, 0.30932828223563247)),
        ("finite", (60.44478975785961, 0.37159306875398546)),
        ("theorem", (47.70465369272434, 0.27885778337395817)),
    ])
    def test_pinned_results(self, rule, want):
        # exact results (numpy 2.4.6) at the canonical-risk bench's theta and
        # d, over four batches, the last one ragged; these allow no change
        config = None if rule is None else ShrinkConfig(a_rule=rule)
        rep = canonical_risk(np.full(50, 2.0), config, 1.0, 1000, seed=0)
        assert (rep.mean_risk, rep.std_error) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_risk(np.zeros(4), None, 1.0, 99, seed=0)
        with pytest.raises(ValueError):
            canonical_risk(np.zeros(4), None, 0.0, 200, seed=0)
        for bad in (np.nan, np.inf):  # a non-finite theta would give a nan mean_risk
            with pytest.raises(ValueError, match="theta"):
                canonical_risk([bad, 1.0, 2.0, 3.0], None, 1.0, 200, seed=0)


class TestEstimateSigma:
    def test_alternating_unit_coefficients(self):
        finest = np.tile([1.0, -1.0], 4)
        dec = WaveletDecomposition(np.concatenate(([3.0, 1.0, 0.2, 0.4], np.zeros(4), finest)), 2)
        assert estimate_sigma(dec) == 1.0 / 0.6745

    def test_median_centering(self):
        # a constant offset in the finest block is absorbed by the median
        finest = 5.0 + np.tile([1.0, -1.0], 4)
        dec = WaveletDecomposition(np.concatenate(([3.0, 1.0, 0.2, 0.4], np.zeros(4), finest)), 2)
        assert estimate_sigma(dec) == pytest.approx(1.0 / 0.6745, rel=1e-12)

    def test_degenerate_level_raises(self):
        # a constant finest level, alone and as one row of a block whose other row is fine
        dec = WaveletDecomposition(np.concatenate(([3.0, 1.0, 0.2, 0.4], np.zeros(4), np.full(8, 5.0))), 2)
        with pytest.raises(ValueError, match="could not estimate sigma: degenerate finest detail level"):
            estimate_sigma(dec)
        good = np.concatenate(([3.0, 1.0, 0.2, 0.4], np.zeros(4), np.tile([1.0, -1.0], 4)))
        rows = WaveletDecomposition(np.stack([good, dec.values]), 2)
        with pytest.raises(ValueError, match="could not estimate sigma: degenerate finest detail level"):
            estimate_sigma(rows)

    def test_needs_two_coefficients(self):
        dec = WaveletDecomposition(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError):
            estimate_sigma(dec)

    def test_recovers_noise_scale_roughly(self):
        rng = np.random.default_rng(31)
        for k in range(3):
            dec = dwt_forward(2.0 * rng.standard_normal(1024), 6)
            assert estimate_sigma(dec) == pytest.approx(2.0, rel=0.2)


class TestWaveletRisk:
    def test_identity_relative_risk_is_one(self):
        rep = risk_sweep(["identity"], ["blocks"], [64], snr=3.0, reps=400, seed=3)[0]
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
        rep = risk_sweep(["zh"], ["heavisine"], [256], snr=3.0, reps=60, seed=4, sigma_mode="estimated")[0]
        assert math.isfinite(rep.relative_risk) and 0.0 < rep.relative_risk < 1.0

    def test_pipeline_error_matches_coefficient_error(self):
        # Parseval: squared error in signal space equals squared coefficient
        # error between the shrunk and the clean decompositions
        sig = generate_signal("bumps", 256, 3.0)
        levels = max_levels(256) - resolution_cutoff(256)
        y = sig.samples + np.random.default_rng(13).standard_normal(256)
        dec = apply_method(make_method("zh"), dwt_forward(y, levels), 1.0, resolution_cutoff(256))
        fhat = dwt_inverse(dec)
        clean = dwt_forward(sig.samples, levels)
        coef_err = float(np.sum((dec.coarse - clean.coarse) ** 2)) + sum(
            float(np.sum((v - dict(clean.details)[j]) ** 2)) for j, v in dec.details
        )
        sig_err = float(np.sum((fhat - sig.samples) ** 2))
        assert coef_err == pytest.approx(sig_err, rel=1e-8)

    @pytest.mark.parametrize("name", ["zh", "zh-sure", "blockjs"])
    def test_a_method_name_gives_the_errors_of_its_method_object(self, name):
        # risk_sweep already took names; a name here once failed on .name
        sig = generate_signal("bumps", 128, 3.0)
        by_name = wavelet_risk_replicates(name, sig, "estimated", 12, 6)
        assert by_name.tobytes() == wavelet_risk_replicates(make_method(name), sig, "estimated", 12, 6).tobytes()

    def test_a_16_row_block_bounds_its_working_set(self, monkeypatch):
        # 16 replicates at n = 1024 run as one block; its traced peak (the finest
        # level's selection) may be at most 1.35x that of two 8-row blocks
        sig = generate_signal("doppler", 1024, 3.0)

        def peak():
            wavelet_risk_replicates("zh-sure", sig, "estimated", 16, 3)  # fill the caches first
            tracemalloc.start()
            try:
                wavelet_risk_replicates("zh-sure", sig, "estimated", 16, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert harness._BLOCK_VALUES // 1024 == 16
        one_block = peak()
        monkeypatch.setattr(harness, "_BLOCK_VALUES", 8 * 1024)
        assert one_block <= 1.35 * peak()

    @staticmethod
    def block_shapes(monkeypatch):
        # the shape of every block of noisy rows drawn from here on
        shapes = []
        noisy_rows = harness._noisy_rows

        def recorded(*args):
            rows = noisy_rows(*args)
            shapes.append(rows.shape)
            return rows

        monkeypatch.setattr(harness, "_noisy_rows", recorded)
        return shapes

    @staticmethod
    def forward_shapes(monkeypatch):
        # the shape of every array the harness transforms from here on
        shapes = []

        def forward(y, levels):
            shapes.append(y.shape)
            return dwt_forward(y, levels)

        monkeypatch.setattr(harness, "dwt_forward", forward)
        return shapes

    def test_two_replicates_at_16384_run_as_one_block(self, monkeypatch):
        # a block holds at least two rows up to n = 16384, so a 2-replicate cell
        # draws one (2, 16384) block of noisy coefficients there
        shapes = self.block_shapes(monkeypatch)
        risk_sweep(["zh", "visu"], ["doppler"], [16384], 3.0, 2, 4)
        assert shapes == [(2, 16384)]

    def test_replicates_above_16384_run_one_row_a_block(self, monkeypatch):
        # the second row's memory was measured only at n = 16384, so longer
        # signals keep one replicate row per block
        shapes = self.block_shapes(monkeypatch)
        risk_sweep(["visu"], ["doppler"], [32768], 3.0, 2, 4)
        assert shapes == [(1, 32768)] * 2

    def test_the_pipeline_transforms_two_replicates_at_16384_as_one_block(self, monkeypatch):
        # the pipeline blocks its replicates by the same rule, and transforms
        # each block: one (2, 16384) forward transform for 2 replicates
        shapes = self.forward_shapes(monkeypatch)
        wavelet_risk_replicates("zh", generate_signal("doppler", 16384, 3.0), reps=2, seed=4)
        assert shapes == [(2, 16384)]

    def test_the_pipeline_transforms_one_row_a_block_above_16384(self, monkeypatch):
        shapes = self.forward_shapes(monkeypatch)
        wavelet_risk_replicates("visu", generate_signal("doppler", 32768, 3.0), reps=2, seed=4)
        assert shapes == [(1, 32768)] * 2

    @pytest.mark.parametrize("name", ["zh", "js"])
    def test_a_two_row_block_bounds_the_segment_rules_transient(self, name):
        # zh and js scale each level in place with its own a and D, so their
        # traced peak on a (2, 16384) decomposition, the output copy included,
        # stays within 4.25 block sizes (5.75 with full-width a and D spreads)
        n = 16384
        x = generate_signal("doppler", n, 3.0).samples + np.random.default_rng(n).standard_normal((2, n))
        levels, cutoff = harness._pipeline(n)
        decomp = dwt_forward(x, levels)
        method = make_method(name)
        apply_method(method, decomp, 1.0, cutoff)  # fill the caches first
        tracemalloc.start()
        try:
            apply_method(method, decomp, 1.0, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * x.nbytes

    @pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
    def test_three_replicates_at_16384_match_one_row_runs_bitwise(self, sigma_mode):
        # reps = 3 at n = 16384 runs a 2-row block and a 1-row block; each
        # replicate's pipeline error, reconstruction against signal, has the
        # bits of that replicate run alone
        sig = generate_signal("bumps", 16384, 3.0)
        f, seed = sig.samples, 8
        levels, cutoff = harness._pipeline(f.size)
        methods = [make_method(m) for m in ("zh", "visu", "sure", "blockjs", "js", "zh-sure")]
        errs = [wavelet_risk_replicates(method, sig, sigma_mode, 3, seed) for method in methods]
        for r in range(3):
            decomp = dwt_forward(harness._noisy_rows(f, seed, r, r + 1), levels)
            sigma = 1.0 if sigma_mode == "known" else estimate_sigma(decomp)
            for method, row in zip(methods, errs):
                alone = harness._squared_errors(dwt_inverse(apply_method(method, decomp, sigma, cutoff)), f)
                assert row[r:r + 1].tobytes() == alone.tobytes(), (method.name, r)

    @pytest.mark.parametrize("block_values", [None, 1], ids=["default-blocks", "one-row-blocks"])
    @pytest.mark.parametrize("n", [256, 1024, 16384])
    @pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
    def test_sweep_rows_equal_the_per_replicate_oracle_bitwise(self, monkeypatch, sigma_mode, n, block_values):
        # replicate r of a sweep is the clean coefficients plus substream(seed, r)'s
        # draw as one row, shrunk by apply_method and scored against the clean
        # coefficients; 3 replicates run as one block up to n = 1024 and as a
        # 2-row and a 1-row block at 16384 by default, one row a block with 1
        if block_values is not None:
            monkeypatch.setattr(harness, "_BLOCK_VALUES", block_values)
        sig = generate_signal("doppler", n, 3.0)
        levels, cutoff = harness._pipeline(n)
        clean = dwt_forward(sig.samples, levels).values
        methods = [make_method(m) for m in METHOD_NAMES]
        rows = harness._cell_errors(methods, sig, sigma_mode, 3, 21)
        for r in range(3):
            decomp = WaveletDecomposition((clean + substream(21, r).standard_normal(n))[None], n >> levels)
            sigma = 1.0 if sigma_mode == "known" else estimate_sigma(decomp)
            for method, row in zip(methods, rows):
                shrunk = apply_method(method, decomp, sigma, cutoff).values
                assert row[r:r + 1].tobytes() == ((shrunk - clean) ** 2).sum(axis=-1).tobytes(), (method.name, r)

    def test_a_sweep_transforms_each_clean_signal_once_and_runs_no_inverse(self, monkeypatch):
        # each (signal, n) cell transforms its clean signal once and no block
        # of noisy rows, whatever the number of blocks (2 at n = 16384 here)
        def no_inverse(decomp):
            raise AssertionError("a sweep ran dwt_inverse")

        forward = self.forward_shapes(monkeypatch)
        monkeypatch.setattr(harness, "dwt_inverse", no_inverse)
        reports = risk_sweep(list(METHOD_NAMES), ["bumps", "spikes"], [256, 16384], 3.0, 3, 3, "estimated")
        assert len(reports) == 4 * len(METHOD_NAMES)
        assert forward == [(256,), (16384,)] * 2
        with pytest.raises(AssertionError, match="dwt_inverse"):
            wavelet_risk_replicates("zh", generate_signal("bumps", 256, 3.0), reps=2, seed=2)

    @pytest.mark.parametrize("sigma_mode", ["known", "estimated"])
    def test_sweep_means_agree_with_the_pipelines_within_4_standard_errors(self, sigma_mode):
        # the sweep draws its noise as coefficients and the pipeline as signal
        # values, so their errors agree in distribution, not replicate by replicate
        sig = generate_signal("doppler", 1024, 3.0)
        reports = risk_sweep(list(METHOD_NAMES), ["doppler"], [1024], 3.0, 200, 41, sigma_mode)
        for rep in reports:
            errs = wavelet_risk_replicates(rep.method, sig, sigma_mode, 200, 41)
            se = errs.std(ddof=1) / math.sqrt(errs.size)
            assert abs(rep.mean_risk - errs.mean()) < 4.0 * math.hypot(rep.std_error, se), rep.method

    def test_noisy_rows_are_drawn_into_one_block(self):
        # each row has the bits of its replicate's own draw, and the transient
        # is the block plus about one row, not a list of rows and then a copy
        f = generate_signal("doppler", 1024, 3.0).samples
        for m in (1, 2, 16):
            rows = np.array([substream(5, r).standard_normal(1024) for r in range(3, 3 + m)]) + f
            assert harness._noisy_rows(f, 5, 3, 3 + m).tobytes() == rows.tobytes()
        tracemalloc.start()
        try:
            block = harness._noisy_rows(f, 5, 0, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * block.nbytes

    def test_validation(self):
        sig = generate_signal("blocks", 64, 3.0)
        with pytest.raises(ValueError, match="unknown method"):
            wavelet_risk_replicates("nope", sig, reps=50, seed=0)
        with pytest.raises(ValueError):
            wavelet_risk_replicates(make_method("zh"), sig, sigma_mode="exact", reps=50, seed=0)
        with pytest.raises(ValueError):
            wavelet_risk_replicates(make_method("zh"), sig, reps=1, seed=0)


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

    def test_too_small_n_fails_before_any_cell_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_cell_errors", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="n=8 leaves no detail level"):
            risk_sweep(["zh"], ["blocks"], [1024, 8], 3.0, 50, 0)
        assert calls == []

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
        # the shared noisy block must not change any method's errors, and the
        # accepted workers argument must not change anything either
        names = ["zh", "zh-sure", "visu", "zh", "blockjs"]
        reports = risk_sweep(names, ["bumps"], [256], snr=3.0, reps=40, seed=12,
                             sigma_mode=sigma_mode, workers=workers)
        sig = generate_signal("bumps", 256, 3.0)
        methods = [make_method(name) for name in names]
        rows = harness._cell_errors(methods, sig, sigma_mode, 40, 12)
        assert rows.shape == (len(names), 40)
        for method, row, rep in zip(methods, rows, reports):
            alone = harness._cell_errors([method], sig, sigma_mode, 40, 12)[0]
            assert row.tobytes() == alone.tobytes()
            assert rep == risk_sweep([method], ["bumps"], [256], 3.0, 40, 12, sigma_mode, workers)[0]
        assert rows[0].tobytes() == rows[3].tobytes()

    @pytest.mark.parametrize("reps", [2, 16, 1001])
    def test_one_pass_summaries_equal_each_rows_own_bitwise(self, reps):
        # each report has the bits of its own row's summaries and of a one-method sweep
        methods = ["zh", "visu", "js"]
        reports = risk_sweep(methods, ["bumps"], [64], 3.0, reps, seed=8)
        sig = generate_signal("bumps", 64, 3.0)
        rows = harness._cell_errors([make_method(m) for m in methods], sig, "known", reps, 8)
        for rep, name, e in zip(reports, methods, rows):
            assert rep.reps == reps
            assert rep.mean_risk == float(e.mean())
            assert rep.std_error == float(e.std(ddof=1) / math.sqrt(reps))
            assert rep.relative_risk == float(e.mean()) / 64
            assert rep == risk_sweep([name], ["bumps"], [64], 3.0, reps, seed=8)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            risk_sweep(["zh", "visu"], ["blocks"], [64], snr=3.0, reps=10, seed=0, sigma_mode="exact")
        with pytest.raises(ValueError):
            risk_sweep(["zh", "visu"], ["blocks"], [64], snr=3.0, reps=1, seed=0)

    @pytest.mark.parametrize("argument, call", [
        ("methods", lambda: risk_sweep("zh", ["blocks"], [64], 3.0, 2, 0)),
        ("signals", lambda: risk_sweep(["zh"], "blocks", [64], 3.0, 2, 0)),
        ("n_values", lambda: risk_sweep(["zh"], ["blocks"], 64, 3.0, 2, 0)),
        ("n_values", lambda: risk_sweep(["zh"], ["blocks"], np.array(64), 3.0, 2, 0)),
        ("methods", lambda: risk_sweep(np.array("zh"), ["blocks"], [64], 3.0, 2, 0)),
    ], ids=["methods-str", "signals-str", "n_values-int", "n_values-0d-array", "methods-0d-array"])
    def test_a_bare_argument_is_named_before_any_cell_runs(self, monkeypatch, argument, call):
        # iterated, a bare string would be read letter by letter ("unknown
        # method 'z'") and a bare n or a 0-d array would raise TypeError
        calls = []
        monkeypatch.setattr(harness, "_cell_errors", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=rf"^{argument} must be a collection of items"):
            call()
        assert calls == []

    def test_an_iterator_of_sizes_serves_every_signal(self):
        # the sizes are read once, not once per signal, so an iterator of them
        # gives every signal its cells
        reports = risk_sweep(["zh"], ["blocks", "bumps"], iter([64, 128]), 3.0, 2, 0)
        assert [(r.signal, r.n) for r in reports] == [("blocks", 64), ("blocks", 128), ("bumps", 64), ("bumps", 128)]


FIXED_METHODS = ["zh", "visu", "sure", "blockjs", "js"]  # the sweep-fixed workload's methods, 2 replicates a call


def in_fresh_thread(call):
    # call() run in a new thread, which starts with no sweep workspace
    out = []
    thread = threading.Thread(target=lambda: out.append(call()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return out[0]


def kept_and_peak(*calls):
    # for each call in turn, in one fresh thread, the bytes it leaves allocated
    # and its traced peak above the heap held before it; calls run once in
    # this thread first, so caches filled on a first call are not counted
    for call in calls:
        call()

    def traced():
        tracemalloc.start()
        try:
            figures = []
            for call in calls:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                held, peak = tracemalloc.get_traced_memory()
                figures.append((held - base, peak - base))
            return figures
        finally:
            tracemalloc.stop()

    return in_fresh_thread(traced)


class TestSweepWorkspace:
    # a sweep's block arrays are views of one per-thread workspace that outlives the call
    SWEEPS = [
        lambda: risk_sweep(FIXED_METHODS, ["doppler", "bumps"], [16384], 3.0, 3, 11),
        lambda: risk_sweep(["zh-sure", "identity", "sure"], ["blocks"], [1024], 3.0, 20, 12),
        lambda: risk_sweep(list(METHOD_NAMES), ["spikes"], [256], 3.0, 40, 13, "estimated"),
    ]

    def test_a_sweeps_bytes_do_not_depend_on_the_calls_before_it(self):
        # each sweep, run after larger and other-shaped ones on one thread,
        # gives the reports of the same call in a thread of its own
        history = in_fresh_thread(lambda: [sweep() for sweep in self.SWEEPS])
        for sweep, got in zip(self.SWEEPS, history):
            assert got == in_fresh_thread(sweep)

    def test_concurrent_sweeps_keep_their_own_bytes(self):
        # more threads than cores, switching often, each running its sweep
        # four times; a workspace shared between threads would mix their rows
        alone = [in_fresh_thread(sweep) for sweep in self.SWEEPS]
        sweeps = [i % len(self.SWEEPS) for i in range(4)]
        start = threading.Barrier(len(sweeps))
        results = [[] for _ in sweeps]

        def run(i):
            start.wait()
            results[i] += [self.SWEEPS[sweeps[i]]() for _ in range(4)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sweeps))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, got in zip(sweeps, results):
            assert got == [alone[k]] * 4

    def test_a_thread_keeps_at_most_the_16384_blocks_workspace(self):
        # three 2 x 16384 arrays stay allocated after a sweep-fixed-shaped
        # call; a longer signal's one-row block gets a workspace freed with
        # its call, and the kept one does not grow
        fixed = lambda: risk_sweep(FIXED_METHODS, ["doppler"], [1024, 16384], 3.0, 2, 5)
        long = lambda: risk_sweep(["visu", "zh"], ["doppler"], [32768], 3.0, 2, 5)
        workspace = 3 * 2 * harness._BLOCK_VALUES * 8
        assert workspace == 768 * 1024
        [(kept, _)] = kept_and_peak(long)
        assert kept < 64 * 1024
        (kept, _), (more, _) = kept_and_peak(fixed, long)
        assert workspace <= kept < workspace + 64 * 1024
        assert more < 64 * 1024

    def test_a_second_call_allocates_no_block_arrays(self):
        # by traced peak above the held heap, a repeated sweep-fixed-shaped call
        # at n = 16384 allocates at least two (2, 16384) blocks less than the first
        block = 2 * 16384 * 8
        fixed = lambda: risk_sweep(FIXED_METHODS, ["doppler"], [16384], 3.0, 2, 5)
        (_, first), (_, second) = kept_and_peak(fixed, fixed)
        assert first - second >= 2 * block


# every entry point of the count and length rules, as (call of the one
# argument, a valid value); a float must raise ValueError even when it is
# integral, and a numpy integer must give what the Python int gives
# each engine as a call of its seed alone
SEED_ENGINES = {
    "monte_carlo_a_beta": lambda seed: monte_carlo_a_beta(1.5, 5, 1000, seed),
    "canonical_risk": lambda seed: canonical_risk(np.ones(5), ShrinkConfig(), 1.0, 100, seed),
    "wavelet_risk_replicates": lambda seed: wavelet_risk_replicates("zh", generate_signal("blocks", 64, 3.0),
                                                                    reps=2, seed=seed),
    "risk_sweep": lambda seed: risk_sweep(["zh"], ["blocks"], [64], 3.0, 2, seed),
}

INTEGER_ARGUMENTS = [
    pytest.param(lambda d: monte_carlo_a_beta(1.5, d, 1000, 0), 64, id="monte_carlo_a_beta-d"),
    pytest.param(lambda reps: monte_carlo_a_beta(1.5, 5, reps, 0), 1000, id="monte_carlo_a_beta-reps"),
    pytest.param(lambda reps: canonical_risk(np.ones(5), ShrinkConfig(), 1.0, reps, 0), 150,
                 id="canonical_risk-reps"),
    pytest.param(lambda reps: wavelet_risk_replicates(make_method("zh"), generate_signal("blocks", 64, 3.0),
                                                      reps=reps), 150, id="wavelet_risk_replicates-reps"),
    pytest.param(lambda n: risk_sweep(["zh"], ["blocks"], [n], 3.0, 20, 0), 64, id="risk_sweep-n"),
    pytest.param(lambda n: generate_signal("blocks", n, 3.0).samples, 64, id="generate_signal-n"),
    pytest.param(resolution_cutoff, 64, id="resolution_cutoff-n"),
    pytest.param(lambda d: resolve_a(ShrinkConfig(), d), 64, id="resolve_a-d"),
    *(pytest.param(engine, 7, id=f"{name}-seed") for name, engine in SEED_ENGINES.items()),
]


@pytest.mark.parametrize("call, value", INTEGER_ARGUMENTS)
def test_counts_and_lengths_must_be_integers(call, value):
    for bad in (value + 0.9, value + 0.7, float(value)):
        with pytest.raises(ValueError):
            call(bad)
    np.testing.assert_equal(call(np.int64(value)), call(value))


Z = np.array([[4.0, -3.0, 0.2, 5.0], [1.0, 2.0, 0.0, 4.0]])
REALS = (np.float32, np.float64, np.int64)
FLOATS = (np.float32, np.float64)
COUNTS = (np.int64,)

# every entry point of the real-number and count rules that a bool would
# otherwise pass as 1, as (call of the one argument, a valid value, the numpy types that
# must give what that value gives); a bool or a numeric string must raise
# ValueError, not run as its number or raise TypeError
NUMBER_ARGUMENTS = [
    pytest.param(lambda s: batch_estimate(Z, s, 1.5, 2.0), 2.0, REALS, id="batch_estimate-sigma"),
    pytest.param(lambda a: batch_estimate(Z, 1.0, 1.5, a), 2.0, REALS, id="batch_estimate-a"),
    pytest.param(lambda b: batch_estimate(Z, 1.0, b, 2.0), 1.5, FLOATS, id="batch_estimate-beta"),
    pytest.param(lambda s: batch_sure(Z, s, 1.5, 2.0), 2.0, REALS, id="batch_sure-sigma"),
    pytest.param(lambda s: CanonicalSample(Z, s).sigma, 2.0, REALS, id="CanonicalSample-sigma"),
    pytest.param(lambda d: resolve_a(ShrinkConfig(a_rule="eb"), d), 64, COUNTS, id="resolve_a-d"),
    pytest.param(lambda b: ShrinkConfig(beta=b), 2.0, REALS, id="ShrinkConfig-beta"),
    pytest.param(lambda b: monte_carlo_a_beta(b, 5, 1000, 0), 2.0, REALS, id="monte_carlo_a_beta-beta"),
    pytest.param(lambda s: canonical_risk(np.ones(5), ShrinkConfig(), s, 100, 0), 2.0, REALS,
                 id="canonical_risk-sigma"),
    pytest.param(lambda snr: generate_signal("blocks", 64, snr).samples, 3.0, REALS, id="generate_signal-snr"),
    pytest.param(lambda snr: risk_sweep(["zh"], ["blocks"], [64], snr, 2, 0), 3.0, REALS, id="risk_sweep-snr"),
    pytest.param(lambda snr: testbed.TestSignal("blocks", np.ones(64), snr).snr, 3.0, REALS, id="TestSignal-snr"),
    pytest.param(lambda k: dwt_forward(np.arange(64.0), k).values, 2, COUNTS, id="dwt_forward-levels"),
    pytest.param(lambda c: WaveletDecomposition(np.arange(32.0), c).coarse, 8, COUNTS,
                 id="WaveletDecomposition-coarse_size"),
    pytest.param(lambda lam: soft_threshold(Z, lam), 1.0, REALS, id="soft_threshold-lambda"),
    pytest.param(lambda c: apply_method(make_method("visu"), dwt_forward(np.arange(32.0), 3), 1.0, c).values,
                 3, REALS, id="apply_method-cutoff_level"),
    *(pytest.param(engine, 7, COUNTS, id=f"{name}-seed") for name, engine in SEED_ENGINES.items()),
]


@pytest.mark.parametrize("call, value, types", NUMBER_ARGUMENTS)
def test_no_bool_or_string_is_taken_for_a_number(call, value, types):
    for bad in (True, np.True_, "3"):
        with pytest.raises(ValueError):
            call(bad)
    want = call(value)
    for t in types:
        np.testing.assert_equal(call(t(value)), want)


@pytest.mark.parametrize("engine", SEED_ENGINES.values(), ids=SEED_ENGINES.keys())
def test_a_bad_seed_is_named_before_any_noise_is_drawn(monkeypatch, engine):
    # SeedSequence would run a bool as seed 1 and a list as entropy, and its
    # errors for the others name no argument
    def no_draw(seed, *path):
        raise AssertionError("noise drawn for a bad seed")

    monkeypatch.setattr(harness, "substream", no_draw)
    monkeypatch.setattr(canonical, "substream", no_draw)
    for bad in (True, np.True_, 1.5, -1, np.int64(-1), "3", [1, 2]):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            engine(bad)


@pytest.mark.parametrize("bad", [3, None, ShrinkConfig(), object()], ids=["int", "None", "ShrinkConfig", "object"])
def test_a_bad_method_is_named_before_any_noise_is_drawn(monkeypatch, bad):
    # each once raised AttributeError, after the first block's noise and forward transform
    def no_draw(seed, *path):
        raise AssertionError("noise drawn for a bad method")

    monkeypatch.setattr(harness, "substream", no_draw)
    sig = generate_signal("blocks", 64, 3.0)
    with pytest.raises(ValueError, match=r"^unknown method "):
        risk_sweep(["visu", bad], ["blocks"], [64], snr=3.0, reps=2, seed=0)
    with pytest.raises(ValueError, match=r"^unknown method "):
        wavelet_risk_replicates(bad, sig, reps=2, seed=0)


def test_sigma_columns_must_hold_reals():
    # a bool column would run as sigma = 1 per row, and string or object columns would be converted
    for bad in ([[True], [True]], [["2"], ["2"]], np.array([[2.0], [2.0]], dtype=object)):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            batch_estimate(Z, np.array(bad), 1.5, 2.0)
    want = batch_estimate(Z, np.full((2, 1), 2.0), 1.5, 2.0)
    for t in REALS:
        assert batch_estimate(Z, np.full((2, 1), 2, dtype=t), 1.5, 2.0).tobytes() == want.tobytes()


# every entry point of the rules for arrays of constants and data arrays, as
# (call of the one argument, inputs that numpy would convert to floats): a
# bool, a string, a bool, str or object array, or a list that mixes a bool
# into numbers must raise ValueError, not run as the numbers numpy makes of
# it.  A bool beta is not listed: as 1 it is outside (1, 2] anyway.  The
# batch kernels' z is a data array too, so an inf (once scored nan by
# batch_sure) or an empty z (once an empty result) raises as well
BAD_Z = [["1", "2", "3", "4"], [True, False, True, True], [True, 2.0, 3.0, 4.0], np.array([1j, 2, 3, 4]),
         [1.0, np.inf, 2.0, 3.0], [[1.0, 2.0], [-np.inf, 3.0]], [], np.zeros((2, 0))]
ARRAY_ARGUMENTS = [
    pytest.param(lambda b: batch_sure(Z, 1.0, b, 2.0), ["2", np.array([["1.5"], ["2"]])], id="batch_sure-beta"),
    pytest.param(lambda a: batch_sure(Z, 1.0, 1.5, a), ["2", True, np.array([[True]]), np.array([["2"], ["3"]])],
                 id="batch_sure-a"),
    pytest.param(lambda s: batch_estimate(Z, s, 1.5, 2.0), [[[True], [2.0]], [[2], [np.True_]]],
                 id="batch_estimate-sigma-column"),
    pytest.param(lambda a: batch_estimate(Z, 1.0, 1.5, a), [[[True], [2.0]]], id="batch_estimate-a-column"),
    pytest.param(lambda z: batch_estimate(z, 1.0, 1.5, 2.0), BAD_Z, id="batch_estimate-z"),
    pytest.param(lambda z: batch_sure(z, 1.0, 1.5, 2.0), BAD_Z, id="batch_sure-z"),
    pytest.param(CanonicalSample, [["1", "2", "3"], [True, False, True], [True, 2.0, 3.0]], id="CanonicalSample-z"),
    pytest.param(lambda t: canonical_risk(t, None, 1.0, 100, 0), [np.array(["1", "2", "3"]), [True, True]],
                 id="canonical_risk-theta"),
    pytest.param(lambda x: dwt_forward(x, 2),
                 [np.array(["1"] * 8), np.ones(8, dtype=bool), np.ones(8, dtype=object), [True] + [2.0] * 7],
                 id="dwt_forward-signal"),
    pytest.param(lambda x: testbed.TestSignal("blocks", x, 3.0), [np.array(["1"] * 8), np.ones(8, dtype=bool)],
                 id="TestSignal-samples"),
    pytest.param(lambda x: soft_threshold(x, 1.0),
                 [np.array(["3", "-2"]), [True, False], [True, 2.0], np.ones(3, dtype=object), np.True_, "3"],
                 id="soft_threshold-x"),
]


@pytest.mark.parametrize("call, bads", ARRAY_ARGUMENTS)
def test_no_array_of_bools_or_strings_is_taken_for_numbers(call, bads):
    for bad in bads:
        with pytest.raises(ValueError):
            call(bad)


def test_integer_float32_and_list_arrays_give_the_float64_bytes():
    want = batch_estimate(Z, 1.0, 1.5, np.array([[2.0], [3.0]]))
    for a in ([[2.0], [3.0]], [[2], [3]], np.array([[2], [3]]), np.array([[2], [3]], dtype=np.float32)):
        assert batch_estimate(Z, 1.0, 1.5, a).tobytes() == want.tobytes()
    betas, a = np.array([1.25, 1.5, 2.0])[:, None, None], np.array([2.0, 3.0, 4.0])[:, None, None]
    want = batch_sure(Z, 1.0, betas, a, True)
    for forms in ((betas.tolist(), a.tolist()), (betas.astype(np.float32), a.astype(np.int64))):
        assert batch_sure(Z, 1.0, *forms, True).tobytes() == want.tobytes()
    ints = np.arange(-3, 5)
    floats = ints.astype(float)
    risk = canonical_risk(floats, ShrinkConfig(), 1.0, 100, 0)
    for form in (ints, ints.astype(np.float32), ints.tolist()):
        assert CanonicalSample(form).z.tobytes() == floats.tobytes()
        assert dwt_forward(form, 2).values.tobytes() == dwt_forward(floats, 2).values.tobytes()
        assert canonical_risk(form, ShrinkConfig(), 1.0, 100, 0) == risk
    z = Z[:, 1:3]  # float64, so held as given
    assert CanonicalSample(z).z is z
    assert resolve_a(ShrinkConfig(a_rule=np.int64(80)), 50) == 80.0


def test_canonical_risk_takes_sigma_as_one_real():
    # theta is one vector, so a sigma per row has no rows to match: an array
    # is rejected by the scalar rule, not by a row count
    for bad in (np.array([1.0]), [1.0, 2.0], np.ones((5, 1))):
        with pytest.raises(ValueError, match=r"^sigma must be positive and finite, got "):
            canonical_risk(np.ones(5), ShrinkConfig(), bad, 100, 0)


def test_a_config_that_is_not_a_shrink_config_is_rejected_where_it_enters():
    # each was accepted and then failed inside the method or the engine with AttributeError
    for bad in ({"beta": 1.5}, "finite", 1.5):
        with pytest.raises(ValueError, match="ShrinkConfig"):
            make_method("zh", config=bad)
        with pytest.raises(ValueError, match="ShrinkConfig"):
            canonical_risk(np.ones(5), bad, 1.0, 100, 0)
    with pytest.raises(ValueError, match="ShrinkConfig"):
        make_method("visu", config=ShrinkConfig())
