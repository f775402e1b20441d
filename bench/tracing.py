"""In-memory spans, and span-recording wrappers around the package's public calls.

A span is (name, start_ns, end_ns, parent, request).  Spans live in memory
and are written once, when the run ends.  :func:`instrumented` swaps, for
the length of one traced call, the names that ``steinthresh.harness``,
``steinthresh.cli``, ``steinthresh.baselines`` and ``steinthresh.canonical``
look up at call time for wrappers that put a span around each call.  The
caller then runs the package's own function (``wavelet_risk_replicates``,
``canonical_risk``, ``cli.main``) and compares its result bit for bit with
an untraced call of the same function, so the layer times describe the real
pipeline and no copy of its loops is kept here.
"""

import contextlib
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span store; each thread keeps its own stack of open spans.

    A span opened on a thread with no open span (a worker of the package's
    thread pool) gets ``root``, the span of the traced call, as its parent.
    ``layer_calls`` holds (entry ns, exit ns) of every wrapped call made
    directly under ``root``, its wrapper's bookkeeping included.
    """

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent record or None, request]
        self.counts = defaultdict(int)
        self.root = None
        self.layer_calls = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, request):
        stack = self._stack()
        rec = [name, 0, 0, stack[-1] if stack else self.root, request]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack().pop()
        return rec[2] - rec[1]

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def durations(self, name):
        """Durations in ns of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def child_ns(self):
        """Per span (by id): total ns of its direct child spans."""
        child = defaultdict(int)
        for s in self.spans:
            if s[3] is not None:
                child[id(s[3])] += s[2] - s[1]
        return child

    def self_times(self):
        """Per span name: (calls, total ns, self ns); self excludes time in child spans."""
        child = self.child_ns()
        table = defaultdict(lambda: [0, 0, 0])
        for s in self.spans:
            row = table[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[id(s)]
        return dict(table)

    def write(self, path, extra):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2], index.get(id(s[3]), -1), s[4]] for s in self.spans]
        selft = {k: {"calls": c, "total_us": t / 1e3, "self_us": u / 1e3}
                 for k, (c, t, u) in sorted(self.self_times().items())}
        doc = dict(extra, fields=["name", "start_ns", "end_ns", "parent", "request"],
                   self_time=selft, counts=dict(self.counts), spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def median_us(tracer, name):
    d = tracer.durations(name)
    return statistics.median(d) / 1e3 if d else None


class _Draws:
    """Stands in for a substream's generator and puts a span around each draw."""

    def __init__(self, gen, tr, request, done):
        self._gen, self._tr, self._request, self._done = gen, tr, request, done

    def standard_normal(self, size):
        t_in = time.perf_counter_ns()
        tag = f".n{size}" if isinstance(size, int) else f".d{size[-1]}"
        s = self._tr.begin("rng.draw" + tag, self._request)
        out = self._gen.standard_normal(size)
        self._tr.end(s)
        self._done(t_in, s)
        return out

    def __getattr__(self, attr):  # any other generator method runs unspanned
        return getattr(self._gen, attr)


@contextlib.contextmanager
def instrumented(st, tr, request, name):
    """Open span ``name`` and wrap the package's layer calls with spans until the block ends.

    Wrapped, in the modules that look them up: ``substream`` (its generator's
    draws get spans of their own), ``dwt_forward``, ``dwt_inverse``,
    ``estimate_sigma``, ``apply_method`` and ``batch_estimate`` in harness;
    the first four of those in cli; ``select_beta_by_sure`` in baselines;
    and ``batch_sure`` in canonical, counted but not spanned.  The wrapper of
    ``apply_method`` also counts treated coefficients set to zero, outside
    its span.  Yields the span of the traced call.
    """
    harness, cli = st.harness, importlib.import_module("steinthresh.cli")
    substream, batch_sure = harness.substream, st.canonical.batch_sure

    def done(t_in, s):
        if s[3] is outer:
            tr.layer_calls.append((t_in, time.perf_counter_ns()))

    def spanned(fn, name_of, after=None):
        def wrapper(*args):
            t_in = time.perf_counter_ns()
            s = tr.begin(name_of(*args), request)
            try:
                out = fn(*args)
            finally:
                tr.end(s)
            if after is not None:
                after(out, *args)
            done(t_in, s)
            return out
        return wrapper

    def draws(seed, *path):
        t_in = time.perf_counter_ns()
        s = tr.begin("rng.substream", request)
        gen = substream(seed, *path)
        tr.end(s)
        done(t_in, s)
        return _Draws(gen, tr, request, done)

    def count_zeros(shrunk, method, decomp, sigma, cutoff):
        zeros = treated = 0
        for j, v in shrunk.details:
            if j >= cutoff:
                zeros += int(np.count_nonzero(v == 0.0))
                treated += v.size
        tr.add(f"zeroed.{method.name}", zeros)
        tr.add(f"treated.{method.name}", treated)

    def counted_batch_sure(*args):
        tr.add("sure_evals", 1)
        return batch_sure(*args)

    def count_level(*args):
        tr.add("select_beta_calls", 1)

    layers = {
        "dwt_forward": lambda fn: spanned(fn, lambda y, levels: f"dwt.forward.n{y.size}"),
        "dwt_inverse": lambda fn: spanned(fn, lambda d: f"dwt.inverse.n{d.n}"),
        "estimate_sigma": lambda fn: spanned(fn, lambda d: f"harness.sigma.n{d.n}"),
        "apply_method": lambda fn: spanned(fn, lambda m, d, *_: f"baselines.{m.name}.n{d.n}",
                                           count_zeros),
    }
    swaps = [(module, attr, wrap(getattr(module, attr)))
             for module in (harness, cli) for attr, wrap in layers.items()]
    swaps += [
        (harness, "substream", draws),
        (harness, "batch_estimate",
         spanned(harness.batch_estimate, lambda *_: "canonical.batch_estimate")),
        (st.baselines, "select_beta_by_sure",
         spanned(st.baselines.select_beta_by_sure,
                 lambda sample, *_: f"canonical.select_beta.d{sample.z.size}", count_level)),
        (st.canonical, "batch_sure", counted_batch_sure),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
    outer = tr.begin(name, request)
    tr.root = outer
    try:
        for module, attr, fn in swaps:
            setattr(module, attr, fn)
        yield outer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        tr.root = None
        tr.end(outer)


def pipeline_pair(st, tr, request, method, signal, sigma_mode, reps, seed, workers):
    """One cell of ``wavelet_risk_replicates``, untraced and then traced, timed apart.

    Returns (untraced errors, traced errors, untraced seconds, traced seconds).
    Adds the traced call's length and the part of it spent in layer calls to
    the counts ``harness.traced_ns`` and ``harness.layer_ns``.
    """
    t0 = time.perf_counter()
    errs = st.wavelet_risk_replicates(method, signal, sigma_mode, reps, seed, workers)
    t1 = time.perf_counter()
    first = len(tr.layer_calls)
    name = f"harness.wavelet_risk_replicates.n{signal.samples.size}"
    with instrumented(st, tr, request, name) as outer:
        errs_t = st.wavelet_risk_replicates(method, signal, sigma_mode, reps, seed, workers)
    t2 = time.perf_counter()
    tr.add("harness.traced_ns", outer[2] - outer[1])
    tr.add("harness.layer_ns", _covered_ns(tr.layer_calls[first:]))
    return errs, errs_t, t1 - t0, t2 - t1


def _covered_ns(calls):
    """Wall time covered by the (entry, exit) intervals ``calls`` (their union)."""
    intervals = sorted(calls)
    total = 0
    reach = None
    for lo, hi in intervals:
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def filter_bank_flops(st, n):
    """Computed flop count of one forward (or inverse) transform at length n.

    A direct 16-tap filter bank spends 16 multiply-adds on each output value,
    and a step over a block of m values produces m outputs; the pipeline runs
    max_levels(n) - resolution_cutoff(n) steps on blocks n, n/2, ...
    """
    levels = st.max_levels(n) - st.resolution_cutoff(n)
    taps = st.dwt.LOWPASS.size
    return sum(2 * taps * (n >> k) for k in range(levels))
