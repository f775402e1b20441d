"""Print the time and memory of each sweep layer, the DWT and each SURE level, then the faults per sweep call.

A sweep cell first transforms its clean signal once, by ``dwt_forward``
to the pipeline's depth.  Each replicate block then runs,
in order: its noisy rows, drawn as coefficients onto the clean ones (the
harness's ``_noisy_rows``, since the noise draw has no public entry point),
``estimate_sigma`` when sigma is estimated, then, once per method, a copy
of the rows into the work array and the method's rule on its treated
levels in place (``baselines._shrink_levels``, with a scratch array of the
block's shape, as the sweep's workspace gives it), and the in-place scoring of
the shrunk coefficients against the clean ones (the harness's
``_squared_errors``); a sweep runs no transform per replicate.  The rule
and the scoring work in place, so each timed call works on a fresh copy,
and its line includes that copy.  ``layers`` walks the clean transform and
one such block by direct calls, with nothing patched, at the sweep-fixed shape
(``bench/spec.py``'s ``FIXED_METHODS`` at each of ``FIXED_SIZES``,
``FIXED_REPS`` replicates, known sigma) and the sweep-tuned shape
(``TUNED_METHOD`` at ``TUNED_SIZE``, ``TUNED_REPS`` replicates, estimated
sigma).  A block holds as many rows as the harness's ``_block`` gives the
shape's first block; the clean transform's line still divides by that
count in its per-row column.  Two more groups of lines profile single calls outside
the sweep shapes: ``dwt_forward`` and ``dwt_inverse`` of one signal at each
of ``DWT_SIZES``, to the pipeline's depth (as ``denoise`` and
``wavelet_risk_replicates`` run them), and ``select_beta_by_sure`` on each
of the six detail levels that zh-sure tunes in a sweep-tuned block (sigma
estimated per row).

Each call runs on each of the six test signals of ``spec.SIGNALS`` at
``spec.SNR``, as the sweep workloads cycle over them (a rule's time and
working set can depend on the data, as SureShrink's and zh-sure's do).  A
line gives the median over the signals of each signal's median time and
the best call of any signal, in microseconds per call, and the median per
row of the block; these come from ``time_calls``, with tracemalloc off.
Then, on a fresh walk with tracemalloc on, it gives the largest peak of the
traced heap during the call above the heap held just before it, and the
largest that the result keeps, in KiB.  Every call runs before it is traced,
so caches filled on the first call are not counted;
tracemalloc counts numpy's and Python's allocations, not the RSS.

The last lines give minor page faults and milliseconds per ``risk_sweep``
call shaped like each sweep workload, one signal a call, cycling over
``SIGNALS``, and per ``canonical_risk`` call shaped like the canonical-risk
workload (theta = ``RISK_THETA`` in ``RISK_D`` coordinates, ``RISK_REPS``
replicates, cycling over ``RISK_RULES``).  Each shape runs in three fresh
spawn processes, one after another, as each bench workload runs in a
process of its own, since one shape's heap changes the other's faults, and
then in three more that import numpy before the package, since the import
order moves where the heap starts.  One more sweep-fixed process first runs
a 3-replicate cell, whose blocks differ from the loop's.  Each process
generates the signals and warms the caches with one call, as the bench's
set-up does, then counts ``getrusage`` faults around a loop of ``--calls``
calls.  A call that takes a few minor faults or fewer reuses its heap;
hundreds per call mean that temporaries of 128 KiB or more (one row at
n = 16384) are mapped and faulted in anew on every call.  The count can
differ between processes of one tree (a sweep-tuned process has read about
160 or about 224 faults per call on 2 vCPUs, and a canonical-risk one 0 or
thousands), so compare trees by all the lines of a shape.

The package is imported from this checkout's ``src/`` by
``spec.import_package``.  The figures gate nothing.

    python3 scripts/sweep_profile.py [--calls 120]
"""

import argparse
import importlib
import multiprocessing
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spec  # noqa: E402

st = np = None  # the package and numpy, imported by load() in the order a process asks for

# name: (methods, sizes, replicates, sigma mode), as the bench workloads take them
SHAPES = {
    "sweep-fixed": (list(spec.FIXED_METHODS), list(spec.FIXED_SIZES), spec.FIXED_REPS, "known"),
    "sweep-tuned": ([spec.TUNED_METHOD], [spec.TUNED_SIZE], spec.TUNED_REPS, "estimated"),
}
DWT_SIZES = (256, 1024, 4096, 16384)
# calls timed per layer and signal, after one warm-up call
TIMED_CALLS = 20
# fresh processes per shape and import order for the fault lines, run one after another
PROCESSES = 3
ORDERS = ("package first", "numpy first")


def load(numpy_first):
    # import numpy and the package, numpy first or after the package (so
    # numpy's import does not move the package's heap)
    global st, np
    if numpy_first:
        np = importlib.import_module("numpy")
    st = spec.import_package()
    np = importlib.import_module("numpy")


def time_calls(call, k):
    """(median, best) seconds of k calls of ``call()``, after one warm-up call."""
    call()
    times = []
    for _ in range(k):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times), min(times)


def traced(call):
    # (peak above the heap held before the call, bytes the result keeps)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = call()
    held, peak = tracemalloc.get_traced_memory()
    del result
    return peak - base, held - base


def coefficient_rows(sig, rows):
    # a sweep block's noisy coefficient rows, as a decomposition
    levels, _ = st.baselines._pipeline(sig.samples.size)
    clean = st.dwt_forward(sig.samples, levels).values
    return st.WaveletDecomposition(st.harness._noisy_rows(clean, 0, 0, rows), clean.size >> levels)


def layers(sig, rows, methods, sigma_mode):
    # (name, call) of the cell's clean coefficients and each layer of one block,
    # in the order a sweep runs them; each call takes the results of the calls before it
    levels, cutoff = st.baselines._pipeline(sig.samples.size)
    state = {}
    scratch = np.empty((rows, sig.samples.size))  # made before any call is traced, as a workspace outlives calls

    def shrunk(method):
        work = state["decomp"].values.copy()
        st.baselines._shrink_levels(method, work, state.get("sigma", 1.0), state["decomp"].coarse.shape[-1], cutoff,
                                    scratch)
        return work

    yield "dwt_forward clean", lambda: state.setdefault("clean", st.dwt_forward(sig.samples, levels).values)
    yield "noise rows", lambda: state.setdefault("decomp", st.WaveletDecomposition(
        st.harness._noisy_rows(state["clean"], 0, 0, rows), sig.samples.size >> levels))
    if sigma_mode == "estimated":
        yield "estimate_sigma", lambda: state.setdefault("sigma", st.estimate_sigma(state["decomp"]))
    for m in methods:
        method = st.make_method(m)
        yield f"copy and {m}", lambda m=m, method=method: state.setdefault(m, shrunk(method))
        yield f"score {m}", lambda m=m: st.harness._squared_errors(state[m].copy(), state["clean"])


def dwt_calls(sig):
    # the forward and inverse transform of one signal, to the pipeline's depth
    f = sig.samples
    levels, _ = st.baselines._pipeline(f.size)
    decomp = st.dwt_forward(f, levels)
    yield "dwt_forward", lambda: st.dwt_forward(f, levels)
    yield "dwt_inverse", lambda: st.dwt_inverse(decomp)


def sure_levels(sig, rows):
    # select_beta_by_sure on each detail level of a sweep block, sigma estimated per row
    decomp = coefficient_rows(sig, rows)
    sigma = st.estimate_sigma(decomp)
    for _, block in decomp.details:
        sample = st.CanonicalSample(block, sigma)
        yield f"select_beta_by_sure d={block.shape[-1]}", lambda sample=sample: st.select_beta_by_sure(sample)


def report(shape, n, rows, walk):
    # one line per call that walk(sig) yields, over the six signals at length n:
    # each walk is timed untraced, then measured on a fresh walk under tracemalloc
    timings, memory = {}, {}
    for name in spec.SIGNALS:
        sig = st.generate_signal(name, n, spec.SNR)
        for layer, call in walk(sig):
            timings.setdefault(layer, []).append(time_calls(call, TIMED_CALLS))
        tracemalloc.start()
        try:
            for layer, call in walk(sig):
                memory.setdefault(layer, []).append(traced(call))
        finally:
            tracemalloc.stop()
    for layer, per_signal in timings.items():
        median = statistics.median(m for m, _ in per_signal) * 1e6
        best = min(b for _, b in per_signal) * 1e6
        peak, kept = (max(v) / 1024 for v in zip(*memory[layer]))
        print(f"{shape:<12} {n:>6} {rows:>4}  {layer:<28} {median:>10.1f} {best:>10.1f} {median / rows:>10.1f}"
              f" {peak:>9.1f} {kept:>9.1f}")


def sweep_call(shape):
    # call(k), the k-th risk_sweep of a sweep shape, on signal k mod 6 at seed
    # k, once the signals are generated
    methods, sizes, reps, sigma_mode = SHAPES[shape]
    for name in spec.SIGNALS:
        for n in sizes:
            st.generate_signal(name, n, spec.SNR)
    return lambda k: st.risk_sweep(methods, [spec.SIGNALS[k % len(spec.SIGNALS)]], sizes, spec.SNR, reps, k,
                                   sigma_mode)


def risk_call():
    # call(k), the k-th canonical_risk of the canonical-risk workload, on rule k mod 3 at seed k
    theta = np.full(spec.RISK_D, spec.RISK_THETA)
    configs = [None if rule is None else st.ShrinkConfig(a_rule=rule) for rule in spec.RISK_RULES]
    return lambda k: st.canonical_risk(theta, configs[k % len(configs)], 1.0, spec.RISK_REPS, k)


def faults(shape, calls, label, order, three_reps):
    # minor faults and ms per call of one shape, in a process of its own that
    # imports in the given order: a 3-replicate cell if asked and call 0 warm
    # the caches, then calls 1 to calls are counted and timed
    load(order == "numpy first")
    call = sweep_call(shape) if shape in SHAPES else risk_call()
    if three_reps:
        methods, sizes, _, sigma_mode = SHAPES[shape]
        st.risk_sweep(methods, [spec.SIGNALS[0]], sizes, spec.SNR, 3, 0, sigma_mode)
    call(0)
    times = []
    count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(1, calls + 1):
        t = time.perf_counter()
        call(k)
        times.append(time.perf_counter() - t)
    count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - count
    print(f"{shape} ({label}): {calls} calls: {count / calls:.2f} minor faults per call, "
          f"{1e3 * statistics.median(times):.3f} ms per call (median), "
          f"{1e3 * min(times):.3f} ms (best)", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=120, help="calls per fault-counting process")
    args = p.parse_args()
    load(False)
    print(f"{'shape':<12} {'n':>6} {'rows':>4}  {'layer':<28} {'median us':>10} {'best us':>10} {'us/row':>10}"
          f" {'peak KiB':>9} {'kept KiB':>9}")
    for shape, (methods, sizes, reps, sigma_mode) in SHAPES.items():
        for n in sizes:
            rows = min(reps, st.harness._block(n))
            report(shape, n, rows, lambda sig: layers(sig, rows, methods, sigma_mode))
    for n in DWT_SIZES:
        report("dwt", n, 1, dwt_calls)
    rows = min(spec.TUNED_REPS, st.harness._block(spec.TUNED_SIZE))
    report("sure-levels", spec.TUNED_SIZE, rows, lambda sig: sure_levels(sig, rows))
    sys.stdout.flush()

    ctx = multiprocessing.get_context("spawn")
    runs = []
    for shape in (*SHAPES, "canonical-risk"):
        runs += [(shape, f"{order}, process {run} of {PROCESSES}", order, False)
                 for order in ORDERS for run in range(1, PROCESSES + 1)]
        if shape == "sweep-fixed":
            runs.append((shape, f"{ORDERS[0]}, after a 3-replicate cell", ORDERS[0], True))
    for shape, label, order, three_reps in runs:
        proc = ctx.Process(target=faults, args=(shape, args.calls, label, order, three_reps))
        proc.start()
        proc.join()
        if proc.exitcode:
            sys.exit(proc.exitcode)


if __name__ == "__main__":
    main()
