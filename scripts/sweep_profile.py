"""Print the time and memory of each sweep layer, the DWT and each SURE level, then the faults per sweep call.

A sweep cell first transforms its clean signal once (``dwt_forward`` of one
row).  Each replicate block then runs, in order: its noisy rows (the
harness's ``_noisy_rows``, since the noise draw has no public entry point),
``dwt_forward``, ``estimate_sigma`` when sigma is estimated, then, once per
method, ``apply_method`` and the scoring of its shrunk coefficients against
the clean ones (the harness's ``_squared_errors``); a sweep runs no
``dwt_inverse``.  The scoring works in place, so each timed call scores a
fresh copy of the method's coefficients, and its line includes that copy.
``layers`` walks the clean transform and one such block by direct calls,
with nothing patched, at the sweep-fixed shape
(``bench/spec.py``'s ``FIXED_METHODS`` at each of ``FIXED_SIZES``,
``FIXED_REPS`` replicates, known sigma) and the sweep-tuned shape
(``TUNED_METHOD`` at ``TUNED_SIZE``, ``TUNED_REPS`` replicates, estimated
sigma).  A block holds as many rows as the harness's ``_block`` gives the
shape's first block; the clean transform's line still divides by that
count in its per-row column, though it is one row.  Two more groups of lines
profile single calls outside the sweep shapes: ``dwt_forward`` and
``dwt_inverse`` of one signal at each of ``DWT_SIZES``, to the pipeline's
depth (as ``denoise`` and ``wavelet_risk_replicates`` run them), and
``select_beta_by_sure`` on each of the six detail levels that zh-sure tunes
in a sweep-tuned block (sigma estimated per row).

Each call runs on each of the six test signals of ``spec.SIGNALS`` at
``spec.SNR``, as the sweep workloads cycle over them (a rule's time and
working set can depend on the data, as SureShrink's and zh-sure's do).  A
line gives the median over the signals of each signal's median time and
the best call of any signal, in microseconds per call, and the median per
row of the block; these come from ``time_calls``, with tracemalloc off.
Then, on a fresh walk with tracemalloc on, it gives the largest peak of the
traced heap during the call above the heap held just before it, and the
largest that the result keeps, in KiB.  Every call runs before it is traced,
so caches filled on the first call (the DWT's index tables) are not counted;
tracemalloc counts numpy's and Python's allocations, not the RSS.

The last lines give minor page faults and milliseconds per ``risk_sweep``
call shaped like each sweep workload, one signal a call, cycling over
``SIGNALS``.  Each shape runs in three fresh spawn processes, one after
another, as each bench workload runs in a process of its own, since one
shape's heap changes the other's faults.  Each process generates the
signals and warms the caches with one call, as the bench's set-up does,
then counts ``getrusage`` faults around a loop of ``--calls`` calls.  A call
that takes a few minor faults or fewer reuses its heap; hundreds per call
mean that temporaries of 128 KiB or more (one row at n = 16384) are mapped
and faulted in anew on every call.  The count can differ between processes
of one tree (a sweep-tuned process has read about 160 or about 224 faults
per call on 2 vCPUs), so compare trees by all three lines of a shape.

The package is imported from this checkout's ``src/`` by
``spec.import_package``.  The figures gate nothing.

    python3 scripts/sweep_profile.py [--calls 120]
"""

import argparse
import multiprocessing
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spec  # noqa: E402

st = spec.import_package()

# name: (methods, sizes, replicates, sigma mode), as the bench workloads take them
SHAPES = {
    "sweep-fixed": (list(spec.FIXED_METHODS), list(spec.FIXED_SIZES), spec.FIXED_REPS, "known"),
    "sweep-tuned": ([spec.TUNED_METHOD], [spec.TUNED_SIZE], spec.TUNED_REPS, "estimated"),
}
DWT_SIZES = (256, 1024, 4096, 16384)
# calls timed per layer and signal, after one warm-up call
TIMED_CALLS = 20
# fresh processes per shape for the fault lines, run one after another
PROCESSES = 3


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


def layers(f, rows, methods, sigma_mode):
    # (name, call) of the cell's clean transform and each layer of one block,
    # in the order a sweep runs them; each call takes the results of the calls before it
    levels, cutoff = st.baselines._pipeline(f.size)
    state = {}
    yield "dwt_forward clean", lambda: state.setdefault("clean", st.dwt_forward(f, levels).values)
    yield "noise rows", lambda: state.setdefault("y", st.harness._noisy_rows(f, 0, 0, rows))
    yield "dwt_forward", lambda: state.setdefault("decomp", st.dwt_forward(state["y"], levels))
    if sigma_mode == "estimated":
        yield "estimate_sigma", lambda: state.setdefault("sigma", st.estimate_sigma(state["decomp"]))
    sigma = lambda: state.get("sigma", 1.0)
    for m in methods:
        method = st.make_method(m)
        yield f"apply_method {m}", lambda m=m, method=method: state.setdefault(
            m, st.apply_method(method, state["decomp"], sigma(), cutoff))
        yield f"score {m}", lambda m=m: st.harness._squared_errors(state[m].values.copy(), state["clean"])


def dwt_calls(f):
    # the forward and inverse transform of one signal, to the pipeline's depth
    levels, _ = st.baselines._pipeline(f.size)
    decomp = st.dwt_forward(f, levels)
    yield "dwt_forward", lambda: st.dwt_forward(f, levels)
    yield "dwt_inverse", lambda: st.dwt_inverse(decomp)


def sure_levels(f, rows):
    # select_beta_by_sure on each detail level of a block, sigma estimated per row
    levels, _ = st.baselines._pipeline(f.size)
    decomp = st.dwt_forward(st.harness._noisy_rows(f, 0, 0, rows), levels)
    sigma = st.estimate_sigma(decomp)
    for _, block in decomp.details:
        sample = st.CanonicalSample(block, sigma)
        yield f"select_beta_by_sure d={block.shape[-1]}", lambda sample=sample: st.select_beta_by_sure(sample)


def report(shape, n, rows, walk):
    # one line per call that walk(f) yields, over the six signals at length n:
    # each walk is timed untraced, then measured on a fresh walk under tracemalloc
    timings, memory = {}, {}
    for name in spec.SIGNALS:
        f = st.generate_signal(name, n, spec.SNR).samples
        for layer, call in walk(f):
            timings.setdefault(layer, []).append(time_calls(call, TIMED_CALLS))
        tracemalloc.start()
        try:
            for layer, call in walk(f):
                memory.setdefault(layer, []).append(traced(call))
        finally:
            tracemalloc.stop()
    for layer, per_signal in timings.items():
        median = statistics.median(m for m, _ in per_signal) * 1e6
        best = min(b for _, b in per_signal) * 1e6
        peak, kept = (max(v) / 1024 for v in zip(*memory[layer]))
        print(f"{shape:<12} {n:>6} {rows:>4}  {layer:<28} {median:>10.1f} {best:>10.1f} {median / rows:>10.1f}"
              f" {peak:>9.1f} {kept:>9.1f}")


def faults(shape, calls, run):
    # minor faults and ms per sweep call of one shape, in a process of its own
    methods, sizes, reps, sigma_mode = SHAPES[shape]
    for name in spec.SIGNALS:
        for n in sizes:
            st.generate_signal(name, n, spec.SNR)
    st.risk_sweep(methods, spec.SIGNALS[:1], sizes, spec.SNR, reps, 0, sigma_mode)
    times = []
    count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(calls):
        t = time.perf_counter()
        st.risk_sweep(methods, [spec.SIGNALS[k % len(spec.SIGNALS)]], sizes, spec.SNR, reps, 1 + k, sigma_mode)
        times.append(time.perf_counter() - t)
    count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - count
    print(f"{shape} (process {run} of {PROCESSES}): {calls} calls: {count / calls:.2f} minor faults per call, "
          f"{1e3 * statistics.median(times):.3f} ms per call (median), "
          f"{1e3 * min(times):.3f} ms (best)", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=120, help="sweep calls per fault-counting process")
    args = p.parse_args()
    print(f"{'shape':<12} {'n':>6} {'rows':>4}  {'layer':<28} {'median us':>10} {'best us':>10} {'us/row':>10}"
          f" {'peak KiB':>9} {'kept KiB':>9}")
    for shape, (methods, sizes, reps, sigma_mode) in SHAPES.items():
        for n in sizes:
            rows = min(reps, st.harness._block(n))
            report(shape, n, rows, lambda f: layers(f, rows, methods, sigma_mode))
    for n in DWT_SIZES:
        report("dwt", n, 1, dwt_calls)
    rows = min(spec.TUNED_REPS, st.harness._block(spec.TUNED_SIZE))
    report("sure-levels", spec.TUNED_SIZE, rows, lambda f: sure_levels(f, rows))
    sys.stdout.flush()

    ctx = multiprocessing.get_context("spawn")
    for shape in SHAPES:
        for run in range(1, PROCESSES + 1):
            proc = ctx.Process(target=faults, args=(shape, args.calls, run))
            proc.start()
            proc.join()
            if proc.exitcode:
                sys.exit(proc.exitcode)


if __name__ == "__main__":
    main()
