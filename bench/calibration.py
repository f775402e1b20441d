"""A fixed, package-independent kernel that measures how fast the machine runs right now.

On a shared two-vCPU Xeon VM, other tenants change the speed of our own CPU
time: a fixed loop ran anywhere from 675 to 1349 iterations per 2 s over
80 s, with no steal time and one busy core out of two, in phases of several
seconds.  A 12 s run spans only a few such phases, so its wall times carry
them.  The runner times this kernel between calls and divides each call's
time by the latest kernel time; the quotient (how many kernel runs one call
costs) keeps the program's speed and drops most of the machine's.  In one
process, over 10 s windows of identical calls, the interquartile range of
the raw call time was 20-38% of its median and that of the quotient 4-8%.

The kernel mixes interpreter work, small numpy calls and one pass over a
4 MiB array (past a 2 MiB L2).  Slow phases slow large-array streaming less
than that mix, so a workload that streams large arrays adds a pass over a
16 MiB array (``large=True``): for monte_carlo_a_beta calls the quotient's
spread fell from 9% to 1.4% with it.  Never change the kernel: the
normalized metrics of two commits compare only if both used this kernel.
"""

import statistics
import time

import numpy as np

_rng = np.random.default_rng(20260417)
_SMALL = _rng.standard_normal(512)
_MATRIX = _rng.standard_normal((64, 64))
_MEDIUM = _rng.standard_normal(1 << 19)
_LARGE = []  # filled on first use, so workloads that never stream do not carry 16 MiB


def _large():
    if not _LARGE:
        _LARGE.append(np.random.default_rng(20260418).standard_normal(1 << 21))
    return _LARGE[0]


def kernel(large=False):
    total = 0.0
    for i in range(200):
        y = np.abs(_SMALL) ** 1.3
        total += float(np.sort(y)[10]) + float((_MATRIX @ _MATRIX[:, i % 64]).sum())
        total += sum({j: j * 2 for j in range(20)}.values())
    total += float(_MEDIUM.sum())
    if large:
        total += float((np.abs(_large()) ** 1.3).sum())
    return total


# Set-up seconds are reported as if this kernel took NOMINAL_S (about its
# median on the baseline VM): over 130 fresh-interpreter set-ups in 95 s,
# medians of six consecutive set-ups spread 15.7% raw and 9.1% rescaled.
NOMINAL_S = 0.0035


def at_nominal_speed(seconds):
    """``seconds`` of work rescaled to a machine on which the kernel takes NOMINAL_S.

    Uses the median of 15 kernel runs now; call it right after the work.
    """
    return seconds * NOMINAL_S / statistics.median(timed() for _ in range(15))


def timed(large=False):
    """Seconds one run of the kernel takes now."""
    t = time.perf_counter()
    kernel(large)
    return time.perf_counter() - t
