"""Print each sweep layer's tracemalloc peak above the held heap, at the bench's two sweep shapes.

A sweep replicate block runs, in order: its noisy rows (the harness's
``_noisy_rows``, the one private call, since the noise draw has no public
entry point), ``dwt_forward``, ``estimate_sigma`` when sigma is estimated,
then ``apply_method`` and ``dwt_inverse`` once per method.  This script
builds such a block itself and calls each of those layers directly, with
nothing patched, at the sweep-fixed shape (``bench/spec.py``'s
``FIXED_METHODS`` at each of ``FIXED_SIZES``, ``FIXED_REPS`` replicates,
known sigma) and the sweep-tuned shape (``TUNED_METHOD`` at ``TUNED_SIZE``,
``TUNED_REPS`` replicates, estimated sigma).  A block holds as many rows as
``harness._cell_errors`` gives the shape's first block.

For each layer it prints the peak of the traced heap during the call above
the heap held just before it, and what the call's result keeps, in KiB;
both are the largest over the six test signals of ``spec.SIGNALS`` at
``spec.SNR`` (a rule's working set can depend on the data, as SureShrink's
does on which levels it scores dense).  Every layer runs once before it is
measured, so caches filled on the first call (the DWT's index tables) are
not counted.  tracemalloc counts numpy's and Python's allocations, not the
process's RSS, so the figures do not depend on the allocator's state.  The
package is imported from this checkout's ``src/`` by ``spec.import_package``.

    python3 scripts/layer_memory.py
"""

import sys
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


def block_rows(n, reps):
    # rows of the first replicate block, by harness._cell_errors's block rule
    values = st.harness._BLOCK_VALUES
    return min(reps, max(2 if n <= values else 1, values // n))


def layers(f, rows, methods, sigma_mode):
    # (name, call) of each layer of one block, in the order the harness runs
    # them; each call takes the results of the calls before it
    levels, cutoff = st.baselines._pipeline(f.size)
    state = {}
    yield "noise rows", lambda: state.setdefault("y", st.harness._noisy_rows(f, 0, 0, rows))
    yield "dwt_forward", lambda: state.setdefault("decomp", st.dwt_forward(state["y"], levels))
    if sigma_mode == "estimated":
        yield "estimate_sigma", lambda: state.setdefault("sigma", st.estimate_sigma(state["decomp"]))
    sigma = lambda: state.get("sigma", 1.0)
    for m in methods:
        method = st.make_method(m)
        yield f"apply_method {m}", lambda m=m, method=method: state.setdefault(
            m, st.apply_method(method, state["decomp"], sigma(), cutoff))
        yield f"dwt_inverse {m}", lambda m=m: st.dwt_inverse(state[m])


def measure(call):
    # (peak above the heap held before the call, bytes the result keeps)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = call()
    held, peak = tracemalloc.get_traced_memory()
    del result
    return peak - base, held - base


def main():
    print(f"{'shape':<12} {'n':>6} {'rows':>4}  {'layer':<22} {'peak KiB':>9} {'kept KiB':>9}")
    for shape, (methods, sizes, reps, sigma_mode) in SHAPES.items():
        for n in sizes:
            rows = block_rows(n, reps)
            worst = {}
            for name in spec.SIGNALS:
                f = st.generate_signal(name, n, spec.SNR).samples
                for _, call in layers(f, rows, methods, sigma_mode):  # warm the caches
                    call()
                tracemalloc.start()
                try:
                    for layer, call in layers(f, rows, methods, sigma_mode):
                        peak, kept = measure(call)
                        old = worst.get(layer, (0, 0))
                        worst[layer] = max(old[0], peak), max(old[1], kept)
                finally:
                    tracemalloc.stop()
            for layer, (peak, kept) in worst.items():
                print(f"{shape:<12} {n:>6} {rows:>4}  {layer:<22} {peak / 1024:>9.1f} {kept / 1024:>9.1f}")


if __name__ == "__main__":
    main()
