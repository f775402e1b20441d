"""Print each sweep layer's time per call and per row, at the bench's two sweep shapes, by direct calls.

The layers, their order and the block shapes are those of
``scripts/layer_memory.py`` (its ``SHAPES``, ``block_rows`` and ``layers``):
a sweep replicate block's noisy rows, ``dwt_forward``, ``estimate_sigma``
when sigma is estimated, then ``apply_method`` and ``dwt_inverse`` once per
method, at the sweep-fixed and the sweep-tuned shape of ``bench/spec.py``.
Nothing is patched.  Each layer is timed by ``time_calls`` on each of the
six test signals of ``spec.SIGNALS`` at ``spec.SNR``, as the sweep
workloads cycle over them (a rule's time can depend on the data, as
SureShrink's and zh-sure's do); a line gives the median over the signals of
each signal's median, and the best call of any signal, in microseconds per
call and per row of the block.

Two more groups of lines time single calls outside the sweep shapes:
``dwt_forward`` and ``dwt_inverse`` of one signal at each of ``DWT_SIZES``,
to the pipeline's depth (as ``denoise`` runs them), and
``select_beta_by_sure`` on each of the six detail levels that zh-sure tunes
in a sweep-tuned block (n = ``spec.TUNED_SIZE``, ``spec.TUNED_REPS`` rows,
sigma estimated per row).  The package is imported from this checkout's
``src/`` by ``spec.import_package``.  The figures are wall-clock times on
whatever machine runs the script; they gate nothing.

    python3 scripts/layer_time.py
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spec  # noqa: E402
from layer_memory import SHAPES, block_rows, layers  # noqa: E402

st = spec.import_package()

# calls timed per layer and signal, after one warm-up call
CALLS = 20
DWT_SIZES = (256, 1024, 4096, 16384)


def time_calls(call, k):
    """(median, best) seconds of k calls of ``call()``, after one warm-up call."""
    call()
    times = []
    for _ in range(k):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times), min(times)


def show(shape, n, rows, layer, timings):
    # timings: one (median, best) per signal
    median = statistics.median(m for m, _ in timings) * 1e6
    best = min(b for _, b in timings) * 1e6
    print(f"{shape:<12} {n:>6} {rows:>4}  {layer:<28} {median:>10.1f} {best:>10.1f} {median / rows:>10.1f}")


def main():
    print(f"{'shape':<12} {'n':>6} {'rows':>4}  {'layer':<28} {'median us':>10} {'best us':>10} {'us/row':>10}")
    for shape, (methods, sizes, reps, sigma_mode) in SHAPES.items():
        for n in sizes:
            rows = block_rows(n, reps)
            timings = {}
            for name in spec.SIGNALS:
                f = st.generate_signal(name, n, spec.SNR).samples
                for layer, call in layers(f, rows, methods, sigma_mode):
                    timings.setdefault(layer, []).append(time_calls(call, CALLS))
            for layer, per_signal in timings.items():
                show(shape, n, rows, layer, per_signal)

    for n in DWT_SIZES:
        levels, _ = st.baselines._pipeline(n)
        signals = [st.generate_signal(name, n, spec.SNR).samples for name in spec.SIGNALS]
        decomps = [st.dwt_forward(f, levels) for f in signals]
        show("dwt", n, 1, "dwt_forward", [time_calls(lambda: st.dwt_forward(f, levels), CALLS) for f in signals])
        show("dwt", n, 1, "dwt_inverse", [time_calls(lambda: st.dwt_inverse(d), CALLS) for d in decomps])

    n, rows = spec.TUNED_SIZE, spec.TUNED_REPS
    levels, _ = st.baselines._pipeline(n)
    timings = {}
    for name in spec.SIGNALS:
        f = st.generate_signal(name, n, spec.SNR).samples
        decomp = st.dwt_forward(st.harness._noisy_rows(f, 0, 0, rows), levels)
        sigma = st.estimate_sigma(decomp)
        for _, block in decomp.details:
            sample = st.CanonicalSample(block, sigma)
            timings.setdefault(block.shape[-1], []).append(
                time_calls(lambda: st.select_beta_by_sure(sample), CALLS))
    for d, per_signal in timings.items():
        show("sure-levels", n, rows, f"select_beta_by_sure d={d}", per_signal)


if __name__ == "__main__":
    main()
