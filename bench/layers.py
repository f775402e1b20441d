"""Per-layer metrics of a traced run, and the probe that measures layers a workload skips.

Every traced run reports every metric in LAYER_METRICS.  A metric comes from
the workload's own traced calls when they exercise the layer at the
stated size; otherwise a short fixed probe measures it (the trace file and
the ``layer_sources`` line say which).  Sizes: per-replicate layers are
quoted at n=1024, the sweep and criterion-7 size, except where a suffix
names another size.
"""

import math
import statistics
import time
from collections import defaultdict

import numpy as np

import spec
import tracing
import workloads

DWT_SIZES = (256, 1024, 4096, 16384)
METHODS = ("visu", "sure", "blockjs", "js", "zh", "zh-sure")
LEVEL_SIZES = (16, 32, 64, 128, 256, 512)  # treated levels at n=1024

LAYER_METRICS = (
    [("rng.substream_us", "us"), ("rng.draw_us.n1024", "us"), ("rng.draw_us.n16384", "us")]
    + [(f"dwt.{d}_us.n{n}", "us") for d in ("forward", "inverse") for n in DWT_SIZES]
    + [(f"dwt.{d}_flops.n{n}", "flop") for d in ("forward", "inverse") for n in DWT_SIZES]
    + [("harness.sigma_us.n1024", "us"), ("harness.self_frac", "fraction"),
       ("harness.pool_speedup", "ratio")]
    + [(f"baselines.{m}_us", "us") for m in METHODS]
    + [(f"baselines.zeroed_frac.{m}", "fraction") for m in METHODS]
    + [(f"canonical.select_beta_us.d{d}", "us") for d in LEVEL_SIZES]
    + [("canonical.sure_evals_per_level", "count"), ("canonical.batch_estimate_us", "us")]
    + [(f"canonical.mc_ns_per_coord.{tag}", "ns") for _, tag in spec.MC_BETAS]
    + [("testbed.generate_ms.n1024", "ms"), ("cli.self_ms", "ms"), ("trace.overhead_frac", "fraction")]
)


def _cli_self_ms(tr):
    """Mean over input kinds of the median (denoise call - package calls it makes), in ms."""
    child = tr.child_ns()
    per_kind = defaultdict(list)
    for s in tr.spans:
        if s[0].startswith("cli.denoise."):
            per_kind[s[0]].append(s[2] - s[1] - child[id(s)])
    if not per_kind:
        return None
    return statistics.fmean(statistics.median(v) for v in per_kind.values()) / 1e6


def _ratio(num, den):
    return num / den if den else None


def from_spans(st, tr):
    """Metric values the spans and counts of ``tr`` support; None where they have no data."""
    c = tr.counts
    mc = {}
    for _, tag in spec.MC_BETAS:
        ns = sum(tr.durations(f"canonical.mc.{tag}"))
        mc[tag] = _ratio(ns, c.get(f"mc_coords.{tag}", 0))
    self_frac = None
    if c.get("harness.traced_ns"):
        self_frac = 1.0 - c["harness.layer_ns"] / c["harness.traced_ns"]
    gen = tracing.median_us(tr, "testbed.generate.n1024")
    values = {
        "rng.substream_us": tracing.median_us(tr, "rng.substream"),
        "rng.draw_us.n1024": tracing.median_us(tr, "rng.draw.n1024"),
        "rng.draw_us.n16384": tracing.median_us(tr, "rng.draw.n16384"),
        "harness.sigma_us.n1024": tracing.median_us(tr, "harness.sigma.n1024"),
        "harness.self_frac": self_frac,
        "canonical.sure_evals_per_level": _ratio(c.get("sure_evals", 0), c.get("select_beta_calls", 0)),
        "canonical.batch_estimate_us": tracing.median_us(tr, "canonical.batch_estimate"),
        "testbed.generate_ms.n1024": gen / 1e3 if gen is not None else None,
        "cli.self_ms": _cli_self_ms(tr),
    }
    for d in ("forward", "inverse"):
        for n in DWT_SIZES:
            values[f"dwt.{d}_us.n{n}"] = tracing.median_us(tr, f"dwt.{d}.n{n}")
            values[f"dwt.{d}_flops.n{n}"] = tracing.filter_bank_flops(st, n)
    for m in METHODS:
        values[f"baselines.{m}_us"] = tracing.median_us(tr, f"baselines.{m}.n1024")
        values[f"baselines.zeroed_frac.{m}"] = _ratio(c.get(f"zeroed.{m}", 0), c.get(f"treated.{m}", 0))
    for d in LEVEL_SIZES:
        values[f"canonical.select_beta_us.d{d}"] = tracing.median_us(tr, f"canonical.select_beta.d{d}")
    for tag, v in mc.items():
        values[f"canonical.mc_ns_per_coord.{tag}"] = v
    return values


def pool_speedup(st, repeats):
    """Median over back-to-back pairs of workers=1 over workers=2 wall time on one zh-sure cell.

    The cell has spec.RERUN_REPS = 64 replicates, two of the harness's
    32-replicate chunks, so workers=2 really runs two threads.  Each pair
    runs within a second, so a change of machine speed between pairs cancels.
    """
    sig = st.generate_signal("blocks", spec.TUNED_SIZE, spec.SNR)
    method = st.make_method(spec.TUNED_METHOD)
    ratios = []
    for _ in range(repeats):
        wall = {}
        for w in (1, 2):
            t = time.perf_counter()
            st.wavelet_risk_replicates(method, sig, "estimated", spec.RERUN_REPS, 7, w)
            wall[w] = time.perf_counter() - t
        ratios.append(wall[1] / wall[2])
    return statistics.median(ratios)


def probe(st, seed, workdir, reference, tiny):
    """A short traced pass over every layer, on fixed small inputs; returns its Tracer."""
    tr = tracing.Tracer()
    signals = workloads._signals(st, (1024,), tr)
    reps = 4 if tiny else 8
    cells = [(m, 1024, "estimated") for m in METHODS]
    cells += [("zh", n, "known") for n in DWT_SIZES if n != 1024]
    for i, (m, n, mode) in enumerate(cells):
        sig = signals[spec.SIGNALS[i % len(spec.SIGNALS)], n] if n == 1024 else \
            st.generate_signal(spec.SIGNALS[i % len(spec.SIGNALS)], n, spec.SNR)
        errs, errs_t, _, _ = tracing.pipeline_pair(st, tr, f"probe{i}", st.make_method(m), sig, mode,
                                                   reps, spec.derive_seed(seed, 10_000 + i), 1)
        if errs.tobytes() != errs_t.tobytes():
            raise RuntimeError(f"probe: traced pipeline differs from wavelet_risk_replicates ({m}, n={n})")
    theta = np.full(spec.RISK_D, spec.RISK_THETA)
    with tracing.instrumented(st, tr, "probe-risk", "harness.canonical_risk"):
        st.canonical_risk(theta, st.ShrinkConfig(), 1.0, 2048, seed)
    for beta, tag in spec.MC_BETAS:
        reps = spec.MC_REPS // 2
        s = tr.begin(f"canonical.mc.{tag}", "probe-mc")
        st.monte_carlo_a_beta(beta, spec.MC_D, reps, seed)
        tr.end(s)
        tr.add(f"mc_coords.{tag}", reps * spec.MC_D)
    workdir.mkdir(parents=True, exist_ok=True)
    den = workloads.Denoise(st, seed, workdir, reference)
    den.setup(None)
    for k in range(len(den.inputs)):
        den.traced(k, tr)
    if den.failed:
        raise RuntimeError(f"probe denoise checks failed: {den.problems}")
    return tr


def collect(st, tr, overhead_frac, seed, workdir, reference, tiny):
    """(metrics, sources): every LAYER_METRICS value, from the workload or from the probe."""
    values = from_spans(st, tr)
    sources = {name: "workload" for name, v in values.items() if v is not None}
    missing = [name for name, _ in LAYER_METRICS if values.get(name) is None]
    probe_tr = None
    if missing:
        probe_tr = probe(st, seed, workdir, reference, tiny)
        fill = from_spans(st, probe_tr)
        for name in missing:
            values[name] = fill.get(name)
            sources[name] = "probe"
    values["harness.pool_speedup"] = pool_speedup(st, 1 if tiny else 7)
    sources["harness.pool_speedup"] = "probe"
    values["trace.overhead_frac"] = overhead_frac
    sources["trace.overhead_frac"] = "workload"
    metrics = {}
    for name, unit in LAYER_METRICS:
        v = values.get(name)
        if v is None or not math.isfinite(v):
            raise RuntimeError(f"no value for per-layer metric {name}")
        metrics[name] = {"value": v, "unit": unit}
    return metrics, sources, probe_tr
