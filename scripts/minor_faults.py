"""Print minor page faults and milliseconds per call of sweeps shaped like the bench's two sweep workloads.

A sweep-fixed call is ``risk_sweep`` of ``bench/spec.py``'s ``FIXED_METHODS``
on one test signal at its ``FIXED_SIZES`` with ``FIXED_REPS`` replicates,
known sigma (today zh, visu, sure, blockjs and js at n = 1024 and 16384, 2
replicates); a sweep-tuned call is ``risk_sweep`` of ``TUNED_METHOD`` on one
test signal at ``TUNED_SIZE`` with ``TUNED_REPS`` replicates, estimated sigma
(today zh-sure at n = 1024, 16 replicates).  Each shape cycles over
``SIGNALS`` at ``SNR``.  Each shape runs in fresh processes of its own, as
each bench workload does, since one shape's heap changes the other's faults (on 2
vCPUs, a sweep-tuned loop run after a sweep-fixed one took 0.1 faults per
call, and over 100 on its own).  There the six signals at the shape's lengths are
generated first and one call warms the caches, as the bench's set-up does,
so the loop sees the heap a timed bench call sees.  Faults are
``getrusage`` of that process around the whole loop.  Each shape runs in
three such processes one after another, and one line is printed per
process, so the lines of one shape show the spread between processes.
The package is imported from this checkout's ``src/`` by
``spec.import_package``.

    python3 scripts/minor_faults.py [--calls 120]

A call that takes a few minor faults or fewer reuses its heap; hundreds per
call mean that temporaries of 128 KiB or more (one row at n = 16384) are
mapped and faulted in anew on every call, and such calls have run 25-70%
slower.  The count can differ between processes of one tree (a sweep-tuned
process has read about 160 or about 224 faults per call on 2 vCPUs), so
compare trees by all three lines of a shape, and at several ``--calls``.
"""

import argparse
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spec  # noqa: E402
from layer_memory import SHAPES  # noqa: E402

st = spec.import_package()

# fresh processes per shape, run one after another
PROCESSES = 3


def measure(shape, calls, run):
    methods, sizes, reps, sigma_mode = SHAPES[shape]
    for name in spec.SIGNALS:
        for n in sizes:
            st.generate_signal(name, n, spec.SNR)
    st.risk_sweep(methods, spec.SIGNALS[:1], sizes, spec.SNR, reps, 0, sigma_mode)
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(calls):
        t = time.perf_counter()
        st.risk_sweep(methods, [spec.SIGNALS[k % len(spec.SIGNALS)]], sizes, spec.SNR, reps, 1 + k, sigma_mode)
        times.append(time.perf_counter() - t)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"{shape} (process {run} of {PROCESSES}): {calls} calls: {faults / calls:.2f} minor faults per call, "
          f"{1e3 * statistics.median(times):.3f} ms per call (median), "
          f"{1e3 * min(times):.3f} ms (best)")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=120)
    args = p.parse_args()
    ctx = multiprocessing.get_context("spawn")
    for shape in SHAPES:
        for run in range(1, PROCESSES + 1):
            proc = ctx.Process(target=measure, args=(shape, args.calls, run))
            proc.start()
            proc.join()
            if proc.exitcode:
                sys.exit(proc.exitcode)


if __name__ == "__main__":
    main()
