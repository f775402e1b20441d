"""The benchmark's five workloads: inputs, the timed call, and the output checks.

Each workload is a closed loop with one caller.  Call k of a run has kind
``k % len(kinds)`` and package seed ``derive_seed(seed, k)``, so a seed fixes
every input.  ``call`` is the timed part; ``after`` checks its outputs
untimed; ``traced`` runs the same call untraced and traced and compares the
two bit for bit; ``finish`` makes the checks that pool the whole run.
"""

import contextlib
import io
import math
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import spec
import tracing

# statistical checks allow this many combined standard errors
Z_LIMIT = 4.0


class Pool:
    """Pooled replicate moments per cell: count, sum, sum of squares, contributing calls."""

    def __init__(self):
        self.cells = defaultdict(lambda: [0, 0.0, 0.0, 0])

    def add_report(self, key, reps, mean, std_error):
        c = self.cells[key]
        c[0] += reps
        c[1] += reps * mean
        c[2] += (reps - 1) * reps * std_error**2 + reps * mean**2
        c[3] += 1

    def add_errs(self, key, errs):
        c = self.cells[key]
        c[0] += errs.size
        c[1] += float(errs.sum())
        c[2] += float((errs * errs).sum())
        c[3] += 1

    def mean_se(self, key):
        n, s1, s2, _ = self.cells[key]
        mean = s1 / n
        var = max(0.0, (s2 - n * mean * mean) / (n - 1)) if n > 1 else float("nan")
        return mean, math.sqrt(var / n), n


class Workload:
    kinds = ()
    item = ""  # what one item of items_per_cal counts
    wall_metric = ""  # name of this workload's wall-clock throughput line
    streams_large_arrays = False  # selects the calibration kernel, see calibration.py

    def __init__(self, st, seed, workdir, reference):
        self.st = st
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, message):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def seed_for(self, k):
        return spec.derive_seed(self.seed, k)

    def setup(self, tr):
        pass

    def after(self, k):
        pass

    def finish(self):
        pass

    def extra_lines(self, times):
        return []


def _signals(st, sizes, tr):
    out = {}
    for n in sizes:
        for name in spec.SIGNALS:
            s = tr.begin(f"testbed.generate.n{n}", "setup") if tr else None
            out[name, n] = st.generate_signal(name, n, spec.SNR)
            if s:
                tr.end(s)
    return out


class _Sweep(Workload):
    """Shared body of the two risk_sweep workloads; one call sweeps one signal."""

    kinds = spec.SIGNALS
    item = "pipeline triple (signal, method, replicate)"
    wall_metric = "pipeline_reps_per_s"
    methods = sizes = ()
    reps = sigma_mode = workers = None
    table = ""

    def setup(self, tr):
        self.signals = _signals(self.st, self.sizes, tr)
        self.method_objs = [self.st.make_method(m) for m in self.methods]
        self.pool = Pool()
        # warm-up: one call, so lazy caches fill before the timed window
        self.st.risk_sweep(list(self.methods), spec.SIGNALS[:1], list(self.sizes), spec.SNR,
                           self.reps, self.seed_for(-1), self.sigma_mode, self.workers)

    def call(self, k):
        name = self.kinds[k % len(self.kinds)]
        self.reports = self.st.risk_sweep(list(self.methods), [name], list(self.sizes), spec.SNR,
                                          self.reps, self.seed_for(k), self.sigma_mode, self.workers)
        return self.reps * len(self.methods) * len(self.sizes)

    def after(self, k):
        for r in self.reports:
            self.attempted += 1
            self.pool.add_report((r.signal, r.n, r.method), r.reps, r.mean_risk, r.std_error)

    def traced(self, k, tr):
        name = self.kinds[k % len(self.kinds)]
        seed = self.seed_for(k)
        untraced = traced = 0.0
        for n in self.sizes:
            sig = self.signals[name, n]
            for method in self.method_objs:
                errs, errs_t, plain, with_spans = tracing.pipeline_pair(
                    self.st, tr, k, method, sig, self.sigma_mode, self.reps, seed, self.workers)
                untraced += plain
                traced += with_spans
                self.attempted += 1
                self.pool.add_errs((name, n, method.name), errs)
                if errs.tobytes() != errs_t.tobytes():
                    self.fail(1, f"traced pipeline differs from wavelet_risk_replicates "
                                 f"({name}, n={n}, {method.name})")
        return untraced, traced, self.reps * len(self.methods) * len(self.sizes)

    def finish(self):
        ref = self.reference[self.table]
        for key, cell in sorted(self.pool.cells.items()):
            signal, n, method = key
            mean, _, count = self.pool.mean_se(key)
            r = ref[f"{signal}/{n}/{method}"]
            se = math.sqrt(r["sd"] ** 2 / count + r["sd"] ** 2 / r["reps"])
            if abs(mean - r["mean_risk"]) > Z_LIMIT * se:
                self.fail(cell[3], f"{key}: risk {mean:.4f} vs reference {r['mean_risk']:.4f} "
                                   f"(> {Z_LIMIT} se = {se:.4f}) over {count} replicates")
            elif method in ("zh", "zh-sure") and not mean / n < 1.0:
                self.fail(cell[3], f"{key}: relative risk {mean / n:.4f} is not below 1")
        self.attempted += 1
        if not self.rerun_matches():
            self.fail(1, "rerun at another worker count is not byte-identical")

    def rerun_matches(self):
        """One cell at workers=1 and workers=2 must give byte-identical errors."""
        sig = self.signals[spec.SIGNALS[self.seed % len(spec.SIGNALS)], self.sizes[0]]
        runs = [self.st.wavelet_risk_replicates(self.method_objs[0], sig, self.sigma_mode,
                                                spec.RERUN_REPS, self.seed_for(-2), w)
                for w in (1, 2)]
        return runs[0].tobytes() == runs[1].tobytes()

    def extra_lines(self, times):
        lines = []
        for name in spec.SIGNALS:
            row = " ".join(f"{m}:{self.pool.mean_se((name, n, m))[0] / n:.4f}"
                           for n in self.sizes for m in self.methods
                           if (name, n, m) in self.pool.cells)
            lines.append(f"relative_risk {name} {row}")
        return lines


class SweepFixed(_Sweep):
    methods = spec.FIXED_METHODS
    sizes = spec.FIXED_SIZES
    reps = spec.FIXED_REPS
    sigma_mode = "known"
    workers = 1
    table = "fixed"



class SweepTuned(_Sweep):
    methods = (spec.TUNED_METHOD,)
    sizes = (spec.TUNED_SIZE,)
    reps = spec.TUNED_REPS
    sigma_mode = "estimated"
    workers = spec.TUNED_WORKERS
    table = "tuned"


class BoundA(Workload):
    kinds = tuple(tag for _, tag in spec.MC_BETAS)
    item = "Monte Carlo coordinate (replicate x d)"
    wall_metric = "bound_a_coords_per_s"
    streams_large_arrays = True

    def setup(self, tr):
        self.results = defaultdict(list)
        for beta, _ in spec.MC_BETAS:
            self.st.monte_carlo_a_beta(beta, spec.MC_D, 1000, self.seed_for(-1))

    def call(self, k):
        beta, tag = spec.MC_BETAS[k % len(spec.MC_BETAS)]
        self.last = tag, self.st.monte_carlo_a_beta(beta, spec.MC_D, spec.MC_REPS, self.seed_for(k))
        return spec.MC_REPS * spec.MC_D

    def after(self, k):
        tag, result = self.last
        self.attempted += 1
        self.results[tag].append(result)

    def traced(self, k, tr):
        beta, tag = spec.MC_BETAS[k % len(spec.MC_BETAS)]
        t0 = time.perf_counter()
        plain = self.st.monte_carlo_a_beta(beta, spec.MC_D, spec.MC_REPS, self.seed_for(k))
        t1 = time.perf_counter()
        s = tr.begin(f"canonical.mc.{tag}", k)
        traced = self.st.monte_carlo_a_beta(beta, spec.MC_D, spec.MC_REPS, self.seed_for(k))
        tr.end(s)
        t2 = time.perf_counter()
        tr.add(f"mc_coords.{tag}", spec.MC_REPS * spec.MC_D)
        self.attempted += 1
        self.results[tag].append(plain)
        if plain != traced:
            self.fail(1, f"monte_carlo_a_beta {tag} differs between identical calls")
        return t1 - t0, t2 - t1, spec.MC_REPS * spec.MC_D

    def finish(self):
        for tag, results in self.results.items():
            ests = np.array([e for e, _ in results])
            se = math.sqrt(sum(s * s for _, s in results)) / len(results)
            if tag == "beta2":
                target, what = 2.0 * (spec.MC_D - 2), "2(d-2)"
            else:
                ref = self.reference["bound_a"][tag]
                target, what = ref["estimate"], "reference"
                se = math.hypot(se, ref["std_error"])
            if not (np.isfinite(ests).all() and abs(ests.mean() - target) <= Z_LIMIT * se):
                self.fail(len(results), f"bound-a {tag}: {ests.mean():.5f} vs {what} {target:.5f} "
                                        f"(> {Z_LIMIT} se = {se:.5f})")

    def extra_lines(self, times):
        return [f"a_beta {tag} {np.mean([e for e, _ in r]):.6f}" for tag, r in self.results.items()]


class CanonicalRisk(Workload):
    kinds = tuple(rule or "raw" for rule in spec.RISK_RULES)
    item = "Monte Carlo coordinate (replicate x d)"
    wall_metric = "canonical_risk_coords_per_s"

    def setup(self, tr):
        self.theta = np.full(spec.RISK_D, spec.RISK_THETA)
        self.configs = [None if r is None else self.st.ShrinkConfig(a_rule=r) for r in spec.RISK_RULES]
        self.pool = Pool()
        for config in self.configs:
            self.st.canonical_risk(self.theta, config, 1.0, 256, self.seed_for(-1))

    def call(self, k):
        config = self.configs[k % len(self.configs)]
        self.last = self.st.canonical_risk(self.theta, config, 1.0, spec.RISK_REPS, self.seed_for(k))
        return spec.RISK_REPS * spec.RISK_D

    def after(self, k):
        r = self.last
        self.attempted += 1
        self.pool.add_report(self.kinds[k % len(self.kinds)], r.reps, r.mean_risk, r.std_error)

    def traced(self, k, tr):
        config = self.configs[k % len(self.configs)]
        seed = self.seed_for(k)
        t0 = time.perf_counter()
        plain = self.st.canonical_risk(self.theta, config, 1.0, spec.RISK_REPS, seed)
        t1 = time.perf_counter()
        with tracing.instrumented(self.st, tr, k, "harness.canonical_risk"):
            traced = self.st.canonical_risk(self.theta, config, 1.0, spec.RISK_REPS, seed)
        t2 = time.perf_counter()
        self.attempted += 1
        self.pool.add_report(self.kinds[k % len(self.kinds)], plain.reps, plain.mean_risk,
                             plain.std_error)
        if (traced.mean_risk, traced.std_error) != (plain.mean_risk, plain.std_error):
            self.fail(1, f"traced canonical_risk differs ({self.kinds[k % len(self.kinds)]})")
        return t1 - t0, t2 - t1, spec.RISK_REPS * spec.RISK_D

    def finish(self):
        for kind, cell in self.pool.cells.items():
            mean, se, _ = self.pool.mean_se(kind)
            if kind == "raw":
                target, what = float(spec.RISK_D), "d"
            else:
                ref = self.reference["canonical_risk"][kind]
                target, what = ref["mean_risk"], "reference"
                se = math.hypot(se, ref["sd"] / math.sqrt(ref["reps"]))
            if not abs(mean - target) <= Z_LIMIT * se:
                self.fail(cell[3], f"canonical_risk {kind}: {mean:.4f} vs {what} {target:.4f} "
                                   f"(> {Z_LIMIT} se = {se:.4f})")

    def extra_lines(self, times):
        return [f"risk {kind} {self.pool.mean_se(kind)[0]:.4f}" for kind in self.pool.cells]


class Denoise(Workload):
    item = "denoise call"
    wall_metric = "denoise_calls_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        import steinthresh.cli

        self.cli = steinthresh.cli
        self.inputs = [(n, m) for n in spec.DENOISE_SIZES for m in self.st.METHOD_NAMES]
        self.kinds = tuple(f"{m}.n{n}" for n, m in self.inputs)

    def setup(self, tr):
        self.clean, self.noisy, self.argv = [], [], []
        signals = _signals(self.st, spec.DENOISE_SIZES, tr)
        for i, (n, method) in enumerate(self.inputs):
            clean = signals[spec.DENOISE_SIGNALS[i % len(spec.DENOISE_SIGNALS)], n].samples
            noisy = clean + np.random.default_rng(self.seed_for(10**6 + i)).standard_normal(n)
            src = self.workdir / f"in{i}.csv"
            src.write_text("".join(format(float(v), ".17g") + "\n" for v in noisy))
            self.clean.append(clean)
            self.noisy.append(noisy)
            self.argv.append(["denoise", "--input", str(src), "--method", method, "--sigma", "auto",
                              "--out", str(self.workdir / f"out{i}.csv")])
        for i in range(len(self.inputs)):
            self.call(i)

    def call(self, k):
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = self.cli.main(self.argv[k % len(self.argv)])
        return 1

    def _read(self, i):
        return np.array((self.workdir / f"out{i}.csv").read_text().split(), dtype=float)

    def after(self, k):
        i = k % len(self.inputs)
        self.attempted += 1
        if self.code != 0:
            self.fail(1, f"denoise {self.kinds[i]} exited {self.code}")
            return
        out = self._read(i)
        n, method = self.inputs[i]
        noisy, clean = self.noisy[i], self.clean[i]
        if out.size != n or not np.isfinite(out).all():
            self.fail(1, f"denoise {self.kinds[i]}: {out.size} values, finite={np.isfinite(out).all()}")
        elif method == "identity":
            if out.tobytes() != noisy.tobytes():
                self.fail(1, "denoise identity did not return its input exactly")
        elif not ((out - clean) ** 2).sum() < ((noisy - clean) ** 2).sum():
            self.fail(1, f"denoise {self.kinds[i]}: error not below the noisy input's")

    def traced(self, k, tr):
        i = k % len(self.inputs)
        t0 = time.perf_counter()
        self.call(k)
        untraced = time.perf_counter() - t0
        self.after(k)
        plain = self._read(i)
        t0 = time.perf_counter()
        with tracing.instrumented(self.st, tr, k, f"cli.denoise.{self.kinds[i]}"):
            self.call(k)
        traced = time.perf_counter() - t0
        self.attempted += 1
        if self.code != 0 or self._read(i).tobytes() != plain.tobytes():
            self.fail(1, f"traced denoise {self.kinds[i]} differs from the untraced call")
        return untraced, traced, 1

    def extra_lines(self, times):
        every = sorted(t for ts in times.values() for t in ts)
        if not every:
            return []
        n = len(every)
        p99 = every[math.ceil(0.99 * n) - 1]
        p50 = every[math.ceil(0.50 * n) - 1]
        beyond = n - math.ceil(0.99 * n)
        return [f"denoise_ms_p50 {p50 * 1e3:.4f} ms ({n} calls)",
                f"denoise_ms_p99 {p99 * 1e3:.4f} ms ({n} calls, {beyond} beyond it)"]


WORKLOADS = {
    "sweep-fixed": SweepFixed,
    "sweep-tuned": SweepTuned,
    "bound-a": BoundA,
    "canonical-risk": CanonicalRisk,
    "denoise": Denoise,
}


def report_exception(wl, k):
    wl.attempted += 1
    wl.fail(1, f"call {k} raised: {traceback.format_exc(limit=3)}")
    print(wl.problems[-1] if wl.problems else "call raised", file=sys.stderr)
