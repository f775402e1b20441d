"""steinthresh benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload sweep-fixed --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics and
the spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.  Earlier
stdout lines give run metadata and wall-clock figures under per-workload
names.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

WORKLOAD_NAMES = ("sweep-fixed", "sweep-tuned", "bound-a", "canonical-risk", "denoise")
SETUP_SAMPLES = 7  # fresh interpreters; each times its own set-up and memory
CALLS_PER_KIND = 3  # a run is never shorter than this many calls of every kind


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one steinthresh benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke test: one set-up sample, one call of each kind, short probe")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_metadata(args):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_files = sorted((spec.SRC / "steinthresh").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "src_lines": lines, "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = spec.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


CALIBRATE_EVERY = 0.05  # seconds of calls between two timings of the calibration kernel


def cycle_rate(times, items):
    """Items per unit of ``times`` for one pass over every kind, each kind at its median."""
    return sum(items[k] for k in times) / sum(statistics.median(times[k]) for k in times)


def timed_loop(wl, seconds, min_calls, traced_tr=None):
    """Closed loop over calls 0, 1, ...

    Returns per-kind call times, the same divided by the latest calibration
    kernel time, traced call times (traced runs only) and items per call.
    """
    import calibration
    import workloads

    times, scaled, traced_times, items = (defaultdict(list) for _ in range(4))
    kinds = len(wl.kinds)
    cal = calibration.timed(wl.streams_large_arrays)
    last_cal = start = time.perf_counter()
    k = 0
    while k < min_calls or time.perf_counter() - start < seconds:
        kind = k % kinds
        try:
            if traced_tr is None:
                t = time.perf_counter()
                items[kind] = wl.call(k)
                dt = time.perf_counter() - t
                wl.after(k)
            else:
                dt, traced, items[kind] = wl.traced(k, traced_tr)
                traced_times[kind].append(traced)
            times[kind].append(dt)
            scaled[kind].append(dt / cal)
        except Exception:
            workloads.report_exception(wl, k)
        if time.perf_counter() - last_cal >= CALIBRATE_EVERY:
            cal = calibration.timed(wl.streams_large_arrays)
            last_cal = time.perf_counter()
        k += 1
    return times, scaled, traced_times, items


def setup_in_child(args):
    """(set-up seconds at nominal speed, peak RSS growth in MiB) of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    out = subprocess.run(cmd, cwd=spec.ROOT, capture_output=True, text=True, timeout=170, check=True)
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["rss_growth_mb"]


def peak_rss_mb():
    """Peak resident set of this process image in MiB.

    VmHWM starts afresh at exec; ru_maxrss does not, so a child started by a
    large parent would report the parent's peak.
    """
    with open("/proc/self/status") as fh:
        kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    return kib / 1024.0


def main(argv=None):
    args = parse_args(argv)
    st = spec.import_package()
    import workloads

    # the interpreter with numpy, scipy and the package loaded, before any input exists
    rss0 = peak_rss_mb()
    reference = json.loads((spec.ROOT / "bench" / "reference.json").read_text())
    workdir = spec.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, st, workloads, reference, workdir, rss0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, st, workloads, reference, workdir, rss0):
    import tracing

    tr = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](st, args.seed, workdir, reference)
    wl.setup(tr)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        # one call of each kind; memory is read before calibration.py allocates its arrays
        for k in range(len(wl.kinds)):
            wl.call(k)
        grown = peak_rss_mb() - rss0
        import calibration

        print(json.dumps({"setup_s": calibration.at_nominal_speed(setup_s), "rss_growth_mb": grown}))
        return 0

    meta = run_metadata(args)
    print("meta " + json.dumps(meta))
    # a smoke run makes exactly one call of each kind, so its checks see fixed inputs
    min_calls = (1 if args.tiny else CALLS_PER_KIND) * len(wl.kinds)
    times, scaled, traced_times, items = timed_loop(wl, 0 if args.tiny else args.seconds, min_calls, tr)
    wl.finish()
    rate = cycle_rate(times, items)
    ncalls = sum(len(v) for v in times.values())
    print(f"calls {ncalls} over {len(times)} kinds; item = {wl.item}")
    print(f"{wl.wall_metric} {rate!r} 1/s")
    cal_ms = [1e3 * t / q for k in times for t, q in zip(times[k], scaled[k])]
    print(f"calibration_ms median {statistics.median(cal_ms)!r} over {len(cal_ms)} calls")
    for line in wl.extra_lines(times):
        print(line)

    if args.trace:
        import layers

        traced_rate = cycle_rate(traced_times, items)
        overhead = (rate - traced_rate) / rate
        print(f"tracing_overhead items_per_s untraced {rate!r} traced {traced_rate!r} "
              f"({overhead:+.2%})")
        metrics, sources, probe_tr = layers.collect(st, tr, overhead, args.seed, workdir / "probe",
                                                    reference, args.tiny)
        out_dir = spec.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        extra = {"meta": meta, "metrics": metrics, "sources": sources}
        if probe_tr is not None:
            extra["probe_self_time"] = {k: v[2] / 1e3 for k, v in probe_tr.self_times().items()}
        tr.write(trace_path, extra)
        print(f"trace {trace_path.relative_to(spec.ROOT)} ({len(tr.spans)} spans)")
        print("layer_sources probe: " + " ".join(sorted(k for k, v in sources.items() if v == "probe")))
        for name, (calls, total, own) in sorted(tr.self_times().items(), key=lambda kv: -kv[1][2])[:12]:
            print(f"self_time {name} {own / 1e6:.1f} ms over {calls} spans")
    else:
        samples = [setup_in_child(args) for _ in range(1 if args.tiny else SETUP_SAMPLES)]
        setups, grown = zip(*samples)
        metrics = {
            "items_per_cal": {"value": cycle_rate(scaled, items), "unit": "1/cal"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(grown), "unit": "MiB"},
        }
        print(f"setup_s {metrics['setup_s']['value']!r} s at nominal speed, median of "
              f"{' '.join(repr(s) for s in setups)}; this process {setup_s!r} s wall clock")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']!r} MiB above the loaded interpreter, "
              f"median of {' '.join(repr(g) for g in grown)}")

    print(f"failed_frac {wl.failed / max(wl.attempted, 1)!r} ({wl.failed}/{wl.attempted})")
    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": wl.failed == 0, "attempted": max(wl.attempted, 1),
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
