"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload denoise --seeds 1-10 [--trace 0] [--out runs.json]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
a metric's bound in BENCHMARK.json is compared with.  Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bench = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=spec.ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed} exited {out.returncode}:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                          if k in bounds or args.trace)
        print(f"seed {seed} correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              f"{values}", flush=True)
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{args.workload} {name} median {med:.6g} spread {spread:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
