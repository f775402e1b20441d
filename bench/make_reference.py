"""Rebuild bench/reference.json, the high-replicate table the benchmark checks against.

    python3 bench/make_reference.py [--workers 2]

The table does not depend on any benchmark seed (it uses REFERENCE_SEED) and
takes a few minutes on two cores.  Rebuild it only when a change is meant to
move the package's statistics; a change that keeps outputs byte-identical
must pass against the committed table.
"""

import argparse
import json
import math
import time

import spec

CELL_REPS = {1024: 4000, 16384: 800}
TUNED_REPS = 2000
MC_REPS = 20_000_000
RISK_REPS = 1_000_000


def _cell(report):
    return {
        "mean_risk": report.mean_risk,
        "sd": report.std_error * math.sqrt(report.reps),
        "reps": report.reps,
    }


def build(workers):
    st = spec.import_package()
    import numpy as np

    table = {"seed": spec.REFERENCE_SEED, "fixed": {}, "tuned": {}, "bound_a": {}, "canonical_risk": {}}
    for n in spec.FIXED_SIZES:
        reports = st.risk_sweep(list(spec.FIXED_METHODS), spec.SIGNALS, [n], spec.SNR,
                                CELL_REPS[n], spec.REFERENCE_SEED, "known", workers)
        for r in reports:
            table["fixed"][f"{r.signal}/{r.n}/{r.method}"] = _cell(r)
    reports = st.risk_sweep([spec.TUNED_METHOD], spec.SIGNALS, [spec.TUNED_SIZE], spec.SNR,
                            TUNED_REPS, spec.REFERENCE_SEED, "estimated", workers)
    for r in reports:
        table["tuned"][f"{r.signal}/{r.n}/{r.method}"] = _cell(r)
    for beta, tag in spec.MC_BETAS:
        est, se = st.monte_carlo_a_beta(beta, spec.MC_D, MC_REPS, spec.REFERENCE_SEED)
        table["bound_a"][tag] = {"estimate": est, "std_error": se, "reps": MC_REPS}
    theta = np.full(spec.RISK_D, spec.RISK_THETA)
    for rule in spec.RISK_RULES:
        if rule is None:
            continue
        rep = st.canonical_risk(theta, st.ShrinkConfig(a_rule=rule), 1.0, RISK_REPS,
                                spec.REFERENCE_SEED, workers=workers)
        table["canonical_risk"][rule] = _cell(rep)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    start = time.perf_counter()
    table = build(args.workers)
    table["build_seconds"] = time.perf_counter() - start
    out = spec.ROOT / "bench" / "reference.json"
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} in {table['build_seconds']:.0f} s")


if __name__ == "__main__":
    main()
