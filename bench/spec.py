"""Workload parameters shared by the benchmark runner, make_reference.py and the tests.

The benchmark treats ``steinthresh`` as a black box: it imports the package
from the checkout's ``src/`` directory (never from an installed copy) and
calls only its public functions.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SNR = 3.0
SIGNALS = ("blocks", "bumps", "heavisine", "doppler", "spikes", "corner")

# sweep-fixed: the plain single-threaded pipeline baseline, zh-sure excluded
FIXED_METHODS = ("zh", "visu", "sure", "blockjs", "js")
FIXED_SIZES = (1024, 16384)
FIXED_REPS = 2  # replicates per risk_sweep call; the smallest the package accepts

# sweep-tuned: SURE-tuned beta with estimated sigma (the criterion-7 setting)
TUNED_METHOD = "zh-sure"
TUNED_SIZE = 1024
TUNED_REPS = 16
# workers=2 (the criterion-7 setting) read 86-99 items/s over five seeds on a
# shared two-core machine, too unsteady to gate on; workers=1 is steadier and
# faster, and harness.pool_speedup carries the thread-pool comparison
TUNED_WORKERS = 1
# byte-identity rerun: 64 replicates make two 32-replicate chunks, so
# workers=2 really runs two threads
RERUN_REPS = 64

# bound-a: two 2**21-element batches per call at d=50 (16 MiB each, past L2)
MC_D = 50
MC_BETAS = ((4.0 / 3.0, "beta4_3"), (2.0, "beta2"))
MC_REPS = 2 * (2**21 // MC_D)

# canonical-risk: 40 batches of 256 x 50 per call at theta = (2, ..., 2)
RISK_D = 50
RISK_THETA = 2.0
RISK_RULES = ("finite", "theorem", None)  # None measures the raw data (risk d)
RISK_REPS = 40 * 256

# denoise: every method at three sizes, noise scale estimated by the CLI
DENOISE_SIZES = (256, 1024, 4096)
# The two smooth signals.  On blocks, bumps, spikes and doppler at n=256 (and
# bumps at n=1024) VisuShrink and BlockJS lose to the raw data at snr 3 by the
# design of those rules, so "beats the noisy input" would flag method
# behaviour rather than a fault; bench/README.md has the measured table.
DENOISE_SIGNALS = ("heavisine", "corner")

# seeds handed to the package; derived seeds stay below 2**63, the reference
# table uses seeds above it, so a run never reuses the reference's noise
REFERENCE_SEED = 2**63 + 2024


def derive_seed(seed, index):
    """Package seed for call ``index`` of a run started with ``seed``."""
    import numpy as np

    state = np.random.SeedSequence([int(seed) % 2**64, int(index) + 2**32]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def import_package():
    """Import steinthresh from ``src/`` of this checkout, or exit if it is missing."""
    if not (SRC / "steinthresh" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {SRC / 'steinthresh'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import steinthresh

    if Path(steinthresh.__file__).resolve().parent != (SRC / "steinthresh").resolve():
        raise SystemExit(f"bench: imported steinthresh from {steinthresh.__file__}, not {SRC}")
    return steinthresh
