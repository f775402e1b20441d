"""Smoke tests of the benchmark itself: every workload at smoke size, on two seeds.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_file_names_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in names
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload, seed=1, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_smoke_run_on_a_second_seed_reports_every_layer(workload):
    proc = bench(workload, seed=2, trace=1)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["metrics"]["canonical.sure_evals_per_level"]["value"] > 0
    trace = ROOT / ".bench_out" / f"trace-{workload}-seed2.json"
    doc = json.loads(trace.read_text())
    assert doc["fields"] == ["name", "start_ns", "end_ns", "parent", "request"]
    assert doc["spans"] and doc["meta"]["src_lines"] > 0


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("bound-a", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pooled_moments_match_the_concatenated_replicates():
    rng = np.random.default_rng(0)
    parts = [rng.normal(5.0, 2.0, size) for size in (2, 7, 30)]
    from_reports, from_errs = workloads.Pool(), workloads.Pool()
    for errs in parts:
        se = errs.std(ddof=1) / math.sqrt(errs.size)
        from_reports.add_report("cell", errs.size, errs.mean(), se)
        from_errs.add_errs("cell", errs)
    every = np.concatenate(parts)
    want = (every.mean(), every.std(ddof=1) / math.sqrt(every.size), every.size)
    for pool in (from_reports, from_errs):
        assert np.allclose(pool.mean_se("cell"), want, rtol=1e-12)
