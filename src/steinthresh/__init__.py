"""Minimax thresholding shrinkage for normal means, with a wavelet-regression testbed.

The canonical module estimates a d-dimensional normal mean by per-coordinate
thresholding shrinkage driven by a pooled magnitude statistic; the remaining
modules apply it level by level in an orthonormal wavelet decomposition and
measure risk against classical soft- and block-thresholding baselines.
"""

from .baselines import (
    METHOD_NAMES,
    LevelwiseMethod,
    apply_method,
    make_method,
    resolution_cutoff,
    soft_threshold,
)
from .canonical import (
    CanonicalSample,
    ShrinkConfig,
    c_beta,
    moment_constant,
    monte_carlo_a_beta,
    resolve_a,
    select_beta_by_sure,
)
from .dwt import WaveletDecomposition, dwt_forward, dwt_inverse, max_levels
from .harness import (
    CanonicalRiskReport,
    RiskReport,
    canonical_risk,
    estimate_sigma,
    risk_sweep,
    wavelet_risk,
    wavelet_risk_replicates,
)
from .testbed import CANONICAL_SIGNALS, SIGNAL_NAMES, TestSignal, add_noise, generate_signal

__version__ = "0.1.0"
