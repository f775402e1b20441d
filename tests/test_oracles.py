"""Closed-form risk oracles for the wavelet harness at n = 1024 and 16384.

With sigma = 1 known, the orthonormal transform keeps squared error
(Parseval), so a method that acts on each coefficient alone has a risk that
sums over the clean coefficients c of one signal.  identity has risk n.
visu soft-thresholds the treated levels at sqrt(2 ln n) and passes the
2**cutoff coarse values through, so its risk is 2**cutoff + sum_i r(lam, c_i)
over the treated c_i, with r the soft-threshold risk of Donoho & Johnstone
(1994).  js shrinks each treated level of size d by positive-part
James-Stein, whose risk is below that of plain James-Stein (James & Stein
1961), d - (d - 2)**2 E[1/X] with X noncentral chi-square on d degrees of
freedom and noncentrality ||c||**2, so 2**cutoff plus the levels' sum bounds
js's risk.  The harness's Monte Carlo means must agree with the exact risks
within 4 standard errors, and js's may exceed its bound by at most that.
"""

import functools
import math

import numpy as np
import pytest

from steinthresh.baselines import _pipeline
from steinthresh.dwt import dwt_forward
from steinthresh.harness import risk_sweep, wavelet_risk_replicates
from steinthresh.testbed import CANONICAL_SIGNALS, generate_signal

N = 1024
SNR = 3.0
REPS = 2000
# visu at the larger n, with fewer replicates: each costs 16 times as much
N_LARGE = 16384
REPS_LARGE = 200
SEED = 1  # chosen once, before the first run, and not re-picked


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def soft_risk(lam, theta):
    """E(soft(theta + Z, lam) - theta)**2 for Z ~ N(0, 1), in closed form."""
    inside = normal_cdf(lam - theta) - normal_cdf(-lam - theta)
    return (1.0 + lam**2 + (theta**2 - lam**2 - 1.0) * inside
            - (lam - theta) * normal_pdf(lam + theta) - (lam + theta) * normal_pdf(lam - theta))


def soft_risk_by_quadrature(lam, theta, h=1e-4):
    # the trapezoidal rule over z in [-12, 12], where the normal tail is below 1e-30
    z = np.arange(-12.0, 12.0 + h / 2, h)
    x = theta + z
    err = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0) - theta
    f = err**2 * np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    return h * (f.sum() - 0.5 * (f[0] + f[-1]))


def inverse_chi2_mean(d, ncp):
    """E[1/X] for X noncentral chi-square on d > 2 degrees of freedom with noncentrality ncp.

    X is a Poisson(ncp / 2) mixture of central chi-squares on d + 2k degrees
    of freedom, whose 1/X has mean 1/(d - 2 + 2k).  The weights are taken in
    logs, so none underflows before it is summed, and the series is extended
    until the tail past its last term, below p_last * lam / (size - lam) once
    the terms fall, is under 1e-15.  ncp = 0 gives the point mass at k = 0.
    """
    lam = ncp / 2.0
    log_lam = math.log(lam) if lam > 0 else -math.inf
    size = 64
    while True:
        k = np.arange(size)
        log_p = (np.multiply(k, log_lam, out=np.zeros(size), where=k > 0) - lam
                 - np.array([math.lgamma(j + 1.0) for j in range(size)]))
        p = np.exp(log_p)
        if size > lam and p[-1] * lam / (size - lam) < 1e-15:
            return float(np.sum(p / (d - 2.0 + 2.0 * k)))
        size *= 2


def js_risk_bound(f):
    # 2**cutoff coarse values at risk 1 each, plus plain James-Stein's exact
    # risk on each treated level, the a = d - 2 that js uses
    levels, cutoff = _pipeline(f.size)
    decomp = dwt_forward(f, levels)
    bound = 2**cutoff
    for _, c in decomp.details:
        d = c.size
        bound += d - (d - 2) ** 2 * inverse_chi2_mean(d, float(c @ c))
    return bound


def visu_exact_risk(f):
    levels, cutoff = _pipeline(f.size)
    lam = math.sqrt(2.0 * math.log(f.size))
    treated = dwt_forward(f, levels).values[2**cutoff:]
    return 2**cutoff + sum(soft_risk(lam, c) for c in treated.tolist())


def mean_and_se(errs):
    return errs.mean(), errs.std(ddof=1) / math.sqrt(errs.size)


@functools.lru_cache(maxsize=None)
def risks_at_n(name):
    # (mean, se) of identity, visu and js at n = N from one sweep, so the
    # three tests share one set of noise draws; the sweep draws its noise as
    # coefficients, so its errors have the distribution of that method's
    # wavelet_risk_replicates, though not the same realizations at one seed
    reports = risk_sweep(["identity", "visu", "js"], [name], [N], SNR, REPS, SEED)
    return {r.method: (r.mean_risk, r.std_error) for r in reports}


class TestSoftRisk:
    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.7, 4.0, 25.0])
    def test_no_threshold_has_unit_risk(self, theta):
        assert soft_risk(0.0, theta) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, math.sqrt(2.0 * math.log(N))])
    @pytest.mark.parametrize("theta", [0.0, 0.4, -2.5, 3.7, 9.0])
    def test_matches_direct_quadrature(self, lam, theta):
        assert soft_risk(lam, theta) == pytest.approx(soft_risk_by_quadrature(lam, theta), abs=1e-7)


@pytest.mark.parametrize("name", CANONICAL_SIGNALS)
class TestHarnessAgainstExactRisk:
    def test_visu_mean_is_within_4_se_of_its_exact_risk(self, name):
        sig = generate_signal(name, N, SNR)
        mean, se = risks_at_n(name)["visu"]
        assert abs(mean - visu_exact_risk(sig.samples)) < 4.0 * se

    def test_identity_mean_is_within_4_se_of_n(self, name):
        mean, se = risks_at_n(name)["identity"]
        assert abs(mean - N) < 4.0 * se

    def test_js_mean_is_at_most_its_plain_james_stein_bound(self, name):
        sig = generate_signal(name, N, SNR)
        mean, se = risks_at_n(name)["js"]
        assert mean <= js_risk_bound(sig.samples) + 4.0 * se

    def test_visu_mean_at_the_larger_n_is_within_4_se_of_its_exact_risk(self, name):
        sig = generate_signal(name, N_LARGE, SNR)
        mean, se = mean_and_se(wavelet_risk_replicates("visu", sig, reps=REPS_LARGE, seed=SEED))
        assert abs(mean - visu_exact_risk(sig.samples)) < 4.0 * se


class TestInverseChi2Mean:
    @pytest.mark.parametrize("d", [3, 4, 16, 512])
    def test_central_case_is_one_over_d_minus_2(self, d):
        assert inverse_chi2_mean(d, 0.0) == 1.0 / (d - 2)

    @pytest.mark.parametrize("d, ncp", [(3, 0.5), (16, 10.0), (64, 300.0), (512, 5000.0)])
    def test_matches_scipy_noncentral_chi2(self, d, ncp):
        stats = pytest.importorskip("scipy.stats")
        want = stats.ncx2(d, ncp).expect(lambda x: 1.0 / x)
        assert inverse_chi2_mean(d, ncp) == pytest.approx(want, rel=1e-8)
