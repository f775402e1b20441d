"""Print minor page faults and milliseconds per call of sweeps shaped like the bench's sweep-fixed.

Each call is ``risk_sweep`` of zh, visu, sure, blockjs and js on one test
signal at n = 1024 and 16384, 2 replicates, known sigma, cycling over the
six signals.  The six signals at both lengths are generated first and one
call warms the caches, as the bench's set-up does, so the loop sees the heap
a timed bench call sees.  Faults are ``getrusage`` of this process around
the whole loop.  The package is imported from this checkout's ``src/``.

    python3 scripts/minor_faults.py [--calls 120]

A call that takes a few minor faults or fewer reuses its heap; hundreds per
call mean that temporaries of 128 KiB or more (one row at n = 16384) are
mapped and faulted in anew on every call, and such calls have run 25-70%
slower.  The count can flip with the loop's own allocations, so compare
trees at several ``--calls``.
"""

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steinthresh import generate_signal, risk_sweep  # noqa: E402

METHODS = ["zh", "visu", "sure", "blockjs", "js"]
SIGNALS = ["blocks", "bumps", "heavisine", "doppler", "spikes", "corner"]
SIZES = [1024, 16384]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=120)
    args = p.parse_args()
    for name in SIGNALS:
        for n in SIZES:
            generate_signal(name, n, 3.0)
    risk_sweep(METHODS, SIGNALS[:1], SIZES, 3.0, 2, 0, "known")
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(args.calls):
        t = time.perf_counter()
        risk_sweep(METHODS, [SIGNALS[k % len(SIGNALS)]], SIZES, 3.0, 2, 1 + k, "known")
        times.append(time.perf_counter() - t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"{args.calls} calls: {faults / args.calls:.2f} minor faults per call, "
          f"{1e3 * statistics.median(times):.3f} ms per call (median), "
          f"{1e3 * min(times):.3f} ms (best)")


if __name__ == "__main__":
    main()
