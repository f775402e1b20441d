"""The package's export surface: every module's ``__all__`` at the top level, and nothing else loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinthresh
from steinthresh import baselines, canonical, dwt, harness, testbed

MODULES = (baselines, canonical, dwt, harness, testbed)
SRC = str(Path(steinthresh.__file__).resolve().parent.parent)

# the top-level names the package exported when it listed them by hand, with
# the module each came from; each must stay the same object
EXPORTED = {
    baselines: ["METHOD_NAMES", "LevelwiseMethod", "apply_method", "make_method", "resolution_cutoff",
                "soft_threshold"],
    canonical: ["CanonicalSample", "ShrinkConfig", "c_beta", "moment_constant", "monte_carlo_a_beta",
                "resolve_a", "select_beta_by_sure"],
    dwt: ["WaveletDecomposition", "dwt_forward", "dwt_inverse", "max_levels"],
    harness: ["CanonicalRiskReport", "RiskReport", "canonical_risk", "estimate_sigma", "risk_sweep",
              "wavelet_risk_replicates"],
    testbed: ["CANONICAL_SIGNALS", "SIGNAL_NAMES", "TestSignal", "generate_signal"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_every_earlier_export_is_the_same_object(module, name):
    assert getattr(steinthresh, name) is getattr(module, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_of_a_module_is_at_the_top_level(module):
    for name in module.__all__:
        assert getattr(steinthresh, name) is getattr(module, name), name


def test_no_name_is_public_in_two_modules():
    # a later star import would silently shadow the earlier module's object
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_importing_the_package_loads_its_library_modules_and_not_the_cli():
    code = "import sys, steinthresh; print(*sorted(m for m in sys.modules if m.startswith('steinthresh')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.split() == ["steinthresh", "steinthresh._rng", *(m.__name__ for m in MODULES)]
