"""Command-line interface: exit codes, file formats, and byte-level determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinthresh
from steinthresh.testbed import generate_signal

CSV_HEADER = "signal,method,n,snr,reps,mean_risk,std_error,relative_risk"

# the directory this test run imports the package from, so the child
# interpreter finds it without an installed copy
SRC = str(Path(steinthresh.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None, env=None):
    """Run ``python -m steinthresh``; ``env`` adds variables to the inherited environment."""
    child = dict(os.environ, **(env or {}))
    child["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, child.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "steinthresh", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child,
        timeout=300,
    )


def write_signal(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


class TestDenoise:
    def test_missing_input_is_io_error(self, tmp_path):
        r = run_cli(
            "denoise",
            "--input", str(tmp_path / "nope.csv"),
            "--method", "zh",
            "--sigma", "1",
            "--out", str(tmp_path / "out.csv"),
        )
        assert r.returncode == 1

    def test_non_power_of_two_is_validation_error(self, tmp_path):
        src = tmp_path / "in.csv"
        write_signal(src, np.zeros(100))
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "zh",
            "--sigma", "1",
            "--out", str(tmp_path / "out.csv"),
        )
        assert r.returncode == 2
        assert "power of two" in r.stderr

    def test_unknown_method_is_validation_error(self, tmp_path):
        src = tmp_path / "in.csv"
        write_signal(src, np.zeros(64))
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "magic",
            "--sigma", "1",
            "--out", str(tmp_path / "out.csv"),
        )
        assert r.returncode == 2

    def test_identity_round_trips_values(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(64)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, values)
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "identity",
            "--sigma", "1",
            "--out", str(dst),
        )
        assert r.returncode == 0, r.stderr
        np.testing.assert_array_equal(np.loadtxt(dst), values)

    def test_noiseless_signal_mostly_preserved(self, tmp_path):
        sig = generate_signal("blocks", 256, 3.0)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, sig.samples)
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "zh",
            "--sigma", "1",
            "--beta", "4/3",
            "--out", str(dst),
        )
        assert r.returncode == 0, r.stderr
        out = np.loadtxt(dst)
        assert np.mean((out - sig.samples) ** 2) < 1.0

    def test_auto_sigma_reports_estimate(self, tmp_path):
        sig = generate_signal("heavisine", 1024, 3.0)
        noisy = sig.samples + 2.0 * np.random.default_rng(5).standard_normal(1024)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, noisy)
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "visu",
            "--sigma", "auto",
            "--out", str(dst),
        )
        assert r.returncode == 0, r.stderr
        assert "estimated sigma = " in r.stdout
        est = float(r.stdout.split("estimated sigma = ")[1].split()[0])
        assert est == pytest.approx(2.0, rel=0.25)

    def test_a_rule_flag_accepts_fixed_value(self, tmp_path):
        sig = generate_signal("bumps", 128, 3.0)
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, sig.samples)
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "zh",
            "--sigma", "1",
            "--a-rule", "fixed:12.5",
            "--out", str(dst),
        )
        assert r.returncode == 0, r.stderr
        r = run_cli(
            "denoise",
            "--input", str(src),
            "--method", "zh",
            "--sigma", "1",
            "--a-rule", "fixed:-3",
            "--out", str(dst),
        )
        assert r.returncode == 2


class TestSimulate:
    def test_single_cell_identity(self, tmp_path):
        out = tmp_path / "risk.csv"
        r = run_cli(
            "simulate",
            "--methods", "identity",
            "--signals", "blocks",
            "--n", "64",
            "--snr", "3",
            "--reps", "10",
            "--seed", "7",
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = next(csv.DictReader(lines))
        assert (row["signal"], row["method"], row["n"], row["reps"]) == (
            "blocks", "identity", "64", "10",
        )
        assert float(row["relative_risk"]) == pytest.approx(1.0, abs=0.5)

    def test_byte_determinism_across_runs_and_workers(self, tmp_path):
        flags = (
            "--methods", "zh,visu",
            "--signals", "blocks,doppler",
            "--n", "64,128",
            "--snr", "3",
            "--reps", "25",
            "--seed", "123",
        )
        outs = []
        for name, extra in (("a", ()), ("b", ()), ("c", ("--workers", "3"))):
            path = tmp_path / f"{name}.csv"
            r = run_cli("simulate", *flags, *extra, "--out", str(path))
            assert r.returncode == 0, r.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_byte_determinism_across_blas_thread_counts(self, tmp_path):
        # the transform runs on matrix products; their sums must not depend on
        # how many threads the BLAS library uses (n=16384 gives 8192-row products)
        flags = (
            "--methods", "zh,blockjs",
            "--signals", "doppler",
            "--n", "1024,16384",
            "--snr", "3",
            "--reps", "4",
            "--seed", "19",
        )
        outs = []
        for name, env in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("inherited", None)):
            path = tmp_path / f"{name}.csv"
            r = run_cli("simulate", *flags, "--out", str(path), env=env)
            assert r.returncode == 0, r.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_theorem_a_rule(self, tmp_path):
        flags = (
            "--methods", "zh",
            "--signals", "bumps",
            "--n", "128",
            "--snr", "3",
            "--reps", "10",
            "--seed", "4",
            "--a-rule", "theorem",
        )
        out = tmp_path / "risk.csv"
        r = run_cli("simulate", *flags, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert len(out.read_text().splitlines()) == 2
        # the certified constant 2(beta-1)d - 2beta needs beta > 1
        r = run_cli("simulate", *flags, "--beta", "1", "--out", str(tmp_path / "bad.csv"))
        assert r.returncode == 2
        assert "beta > 1" in r.stderr

    def test_seed_changes_output(self, tmp_path):
        flags = (
            "--methods", "visu",
            "--signals", "blocks",
            "--n", "64",
            "--snr", "3",
            "--reps", "10",
        )
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli("simulate", *flags, "--seed", "1", "--out", str(p1)).returncode == 0
        assert run_cli("simulate", *flags, "--seed", "2", "--out", str(p2)).returncode == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_proposed_method_beats_universal_threshold_on_bumps(self, tmp_path):
        out = tmp_path / "risk.csv"
        r = run_cli(
            "simulate",
            "--methods", "zh,visu",
            "--signals", "bumps",
            "--n", "512",
            "--snr", "3",
            "--reps", "120",
            "--seed", "11",
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        rows = {row["method"]: row for row in csv.DictReader(out.read_text().splitlines())}
        assert float(rows["zh"]["relative_risk"]) < float(rows["visu"]["relative_risk"])

    def test_invalid_names_are_validation_errors(self, tmp_path):
        base = (
            "--n", "64", "--snr", "3", "--reps", "5", "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        r = run_cli("simulate", "--methods", "nope", "--signals", "blocks", *base)
        assert r.returncode == 2
        r = run_cli("simulate", "--methods", "zh", "--signals", "nope", *base)
        assert r.returncode == 2
        r = run_cli("simulate", "--methods", "zh", "--signals", "blocks",
                    "--n", "63", "--snr", "3", "--reps", "5", "--seed", "0",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        r = run_cli(
            "simulate",
            "--methods", "identity",
            "--signals", "blocks",
            "--n", "64",
            "--snr", "3",
            "--reps", "5",
            "--seed", "0",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert r.returncode == 1


class TestBoundA:
    def test_quadratic_case_matches_closed_form(self):
        r = run_cli("bound-a", "--beta", "2", "--d", "10", "--reps", "30000", "--seed", "4")
        assert r.returncode == 0, r.stderr
        fields = r.stdout.splitlines()[1].split()
        est, se = float(fields[2]), float(fields[3])
        assert abs(est - 16.0) < 4.0 * se
        assert float(fields[4]) == pytest.approx(0.97 * 8 * 2.0, rel=1e-4)
        assert float(fields[5]) == pytest.approx(20.0, rel=1e-6)

    def test_fractional_beta_parses(self):
        r = run_cli("bound-a", "--beta", "4/3", "--d", "8", "--reps", "2000", "--seed", "0")
        assert r.returncode == 0, r.stderr

    def test_out_of_range_beta_rejected(self):
        assert run_cli("bound-a", "--beta", "3", "--d", "10", "--reps", "2000").returncode == 2
        assert run_cli("bound-a", "--beta", "0.3", "--d", "10", "--reps", "2000").returncode == 2

    def test_argparse_failures_exit_2(self):
        assert run_cli("bound-a", "--beta", "2", "--d", "ten", "--reps", "2000").returncode == 2
        assert run_cli("frobnicate").returncode == 2
