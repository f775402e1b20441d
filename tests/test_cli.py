"""Command-line interface: exit codes, file formats, and byte-level determinism."""

import argparse
import csv
import hashlib
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import steinthresh
from steinthresh import canonical, cli, harness
from steinthresh.baselines import METHOD_NAMES
from steinthresh.canonical import A_RULES, ShrinkConfig, resolve_a
from steinthresh.testbed import generate_signal

CSV_HEADER = "signal,method,n,snr,reps,mean_risk,std_error,relative_risk"

# the directory this test run imports the package from, so the child
# interpreter finds it without an installed copy
SRC = str(Path(steinthresh.__file__).resolve().parent.parent)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def run_cli(*args, cwd=None, env=None):
    """Run ``python -m steinthresh``; ``env`` adds variables to the inherited environment."""
    return run_python("-m", "steinthresh", *args, cwd=cwd, env=env)


def run_python(*args, cwd=None, env=None):
    """Run a fresh interpreter that imports the package from ``SRC``."""
    child = dict(os.environ, **(env or {}))
    child["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, child.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
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

    def test_bad_zh_flags_fail_before_the_input_is_read(self, tmp_path, capsys):
        # no sigma line for an auto sigma, and a bad flag outranks a missing input
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, np.random.default_rng(2).standard_normal(64))
        for path in (src, tmp_path / "nope.csv"):
            assert cli.main(["denoise", "--input", str(path), "--method", "zh", "--beta", "5",
                             "--out", str(dst)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "beta must be in (0, 2]" in err
        assert not dst.exists()

    @pytest.mark.parametrize("flags, floor", [
        (["--beta", "0.4"], "beta > 1/2"),  # the default rule, finite
        (["--a-rule", "theorem", "--beta", "1"], "beta > 1"),
    ])
    def test_a_rule_beta_floor_fails_before_the_input_is_read(self, tmp_path, capsys, flags, floor):
        # the floor needs no dimension, so it is checked with the flags, not at the first level
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, np.random.default_rng(2).standard_normal(64))
        for path in (src, tmp_path / "nope.csv"):
            assert cli.main(["denoise", "--input", str(path), "--method", "zh", *flags, "--out", str(dst)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and floor in err
        assert not dst.exists()

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

    @pytest.mark.parametrize("n", [2, 4])
    def test_identity_skips_the_transform_at_tiny_n(self, tmp_path, capsys, n):
        # n = 2 and 4 leave no level above the resolution cutoff, which only a transform needs
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, np.arange(1.0, n + 1.0))
        assert cli.main(["denoise", "--input", str(src), "--method", "identity", "--out", str(dst)]) == 0
        np.testing.assert_array_equal(np.loadtxt(dst), np.arange(1.0, n + 1.0))
        assert cli.main(["denoise", "--input", str(src), "--method", "zh", "--sigma", "1",
                         "--out", str(dst)]) == 2
        assert "no detail level above the resolution cutoff" in capsys.readouterr().err

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

    def test_method_choices_are_the_method_table(self, capsys):
        assert cli.main(["denoise", "--help"]) == 0
        assert "--method {" + ",".join(METHOD_NAMES) + "}" in capsys.readouterr().out

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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["identity", "zh"])
    def test_non_finite_input_is_validation_error_for_every_method(self, tmp_path, capsys, method, bad):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("0.5\n" * 63 + bad + "\n")
        assert cli.main(["denoise", "--input", str(src), "--method", method, "--out", str(dst)]) == 2
        assert "signal must be finite" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("method", ["identity", "zh"])
    def test_bad_sigma_fails_before_the_input_is_read(self, tmp_path, capsys, method, sigma):
        # a missing input would exit 1 if it were read first
        dst = tmp_path / "out.csv"
        assert cli.main(["denoise", "--input", str(tmp_path / "nope.csv"), "--method", method,
                         "--sigma", sigma, "--out", str(dst)]) == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_input_is_one_validation_error(self, tmp_path, capsys, text):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["denoise", "--input", str(src), "--method", "zh", "--out", str(dst)]) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: signal length must be a power of two >= 2, got 0\n"
        r = run_python("-W", "error", "-m", "steinthresh", "denoise", "--input", str(src),
                       "--method", "identity", "--out", str(dst))
        assert (r.returncode, r.stderr) == (2, "error: signal length must be a power of two >= 2, got 0\n")
        assert not dst.exists()

    @pytest.mark.parametrize("method", ["visu", "sure", "blockjs", "js", "zh"])
    def test_huge_sample_denoises_without_overflow_warnings(self, tmp_path, capsys, method):
        # |w| near 1e200 overflows the squares and D of these rules; they
        # take it as documented (D = inf shrinks nothing), with no
        # RuntimeWarning, which the suite turns into an error
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        x = np.random.default_rng(0).standard_normal(64)
        x[20] = 1e200
        write_signal(src, x)
        argv = ["denoise", "--input", str(src), "--method", method, "--sigma", "1", "--out", str(dst)]
        assert cli.main(argv) == 0
        out = np.loadtxt(dst)
        assert out.shape == (64,) and np.isfinite(out).all()

    def test_zh_sure_overflow_is_validation_error(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        x = np.random.default_rng(0).standard_normal(64)
        x[20] = 1e200
        write_signal(src, x)
        argv = ["denoise", "--input", str(src), "--method", "zh-sure", "--sigma", "1", "--out", str(dst)]
        assert cli.main(argv) == 2
        assert "overflowed" in capsys.readouterr().err
        assert not dst.exists()

    # sha256 of the stdout then the output file of each denoise run on noisy
    # bumps; the transform steps are BLAS products, so these bytes depend on
    # the BLAS kernel's summation order as well as on numpy's own math
    PINNED_SHA256 = {
        "identity.n256": "8f013887de3ac0c21ee7a2f2db39a50abf4a02d2a73289988782a6da8f98015f",
        "visu.n256": "d7783440e1a8ae938dc6e13e2c38f61b7ef243003924ced79ac6c9d59fd33d9f",
        "sure.n256": "efa8c663c837bb4374b8ccbfd20523bd160971fa24e62418c99ca0ba17aeca03",
        "blockjs.n256": "90c804e263e4e80aaf52c12c53afc9269e85e8b09ccd6a0b64979bf12743ebbf",
        "js.n256": "b712c1af98f0d0dc377fe8f7e94cb9f62de2e3a39e5a5dbdf3a8dd085455188a",
        "zh.n256": "1ed37bd605490c673288500ee5c42a883d20ae53977c044f1a1b7dd6e53c59f8",
        "zh-sure.n256": "ab35b03f8066a8bbcf202588f9d5f5852c06c2c5b113029484a76f03e038804d",
        "identity.n1024": "26168a11c22158025de7883b4dd9d608d3b92eab0cc14a8811030f673a9d5cb9",
        "visu.n1024": "b061557ab7b2bf0588f004d954494ddcfa4d89aad217602504f2ec8ef8eff35d",
        "sure.n1024": "368648bfcdca19171c17631eff30090d02ceccaf5c1e0d7112211996d0c89d90",
        "blockjs.n1024": "2900dfcfefea5dd463d87170c58746a9f9fde8cb743ce8f0a846a834bae4f8e8",
        "js.n1024": "dd2b01a9895fa0ab9b6a990bdcc3064678a1e9cd96955a0cf8df0feb15bf3eee",
        "zh.n1024": "fb9d0b17101e1ade8408994814e486b361634706edc8fba592d7fa4917fd3ae7",
        "zh-sure.n1024": "f363d2ae443fe585f8c7b51fb3ec9befb41561a2cee4e37ef2026e3867684e3e",
        "zh.n256.theorem": "91432ce4fa1eb0eea4e2c6ccf6bf27a1840cf0a4f2b74609d8cbe7ba13c5ec57",
        "zh.n1024.theorem": "b93eb43d2b4951497cfe6d7105eef117c6f42b07bd2b1ca5cff46929b7359440",
    }

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        assert set(METHOD_NAMES) == {key.split(".")[0] for key in self.PINNED_SHA256}
        for key, expected in self.PINNED_SHA256.items():
            method, size, *theorem = key.split(".")
            n = int(size[1:])
            src, dst = tmp_path / f"in{n}.csv", tmp_path / "out.csv"
            write_signal(src, generate_signal("bumps", n, 3.0).samples + np.random.default_rng(n).standard_normal(n))
            flags = ["--a-rule", "theorem", "--sigma", "1"] if theorem else ["--sigma", "auto"]
            assert cli.main(["denoise", "--input", str(src), "--method", method, *flags, "--out", str(dst)]) == 0
            payload = capsys.readouterr().out.encode() + dst.read_bytes()
            assert hashlib.sha256(payload).hexdigest() == expected, key

    def test_identity_round_trips_extreme_values_byte_for_byte(self, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("-0\n4.9406564584124654e-324\n1.7976931348623157e+308\n-4.9406564584124654e-324\n")
        assert cli.main(["denoise", "--input", str(src), "--method", "identity", "--out", str(dst)]) == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_cached_parser_carries_no_state_between_calls(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_signal(src, generate_signal("bumps", 256, 3.0).samples + np.random.default_rng(1).standard_normal(256))
        argv = ["denoise", "--input", str(src), "--method", "zh", "--out", str(dst)]
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser().parse_args(argv) is not cli._build_parser().parse_args(argv)
        assert cli.main([*argv, "--a-rule", "fixed:12.5"]) == 0
        fixed = dst.read_bytes()
        assert cli.main([*argv[:-3], "magic", *argv[-2:]]) == 2
        assert cli.main([*argv, "--help"]) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        in_process = dst.read_bytes()
        stdout = capsys.readouterr().out
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr
        assert (r.stdout, dst.read_bytes()) == (stdout, in_process)
        assert in_process != fixed


class TestSimulate:
    @pytest.mark.parametrize("flags", [["--beta", "0.4"], ["--a-rule", "theorem", "--beta", "1"]])
    def test_a_rule_beta_floor_fails_before_any_noise_is_drawn(self, tmp_path, capsys, monkeypatch, flags):
        def no_draw(*args):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(harness, "substream", no_draw)
        out = tmp_path / "risk.csv"
        assert cli.main(["simulate", "--methods", "visu,zh", "--signals", "blocks", "--n", "64",
                         "--reps", "4", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().out == "" and not out.exists()

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
        # how many threads the BLAS library uses (at n=16384 the finest steps
        # multiply a (1024, 32) operand by a (32, 16) filter bank)
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

    # sha256 of the CSV from these flags; every row block must give the same bytes
    PINNED_FLAGS = ["--methods", "identity,visu,sure,blockjs,js,zh,zh-sure",
                    "--signals", "blocks,bumps,doppler", "--n", "256,1024,4096",
                    "--snr", "3", "--reps", "20", "--seed", "11"]
    PINNED_SHA256 = {
        "estimated": "702376ec5c2c2b25f9ae57de30f9152f724153c730b97012fca58dfc0f152c37",
        "known": "79e5b5819c072adc6c37b96a4bafd70e519d9ab36a6f32362162d60fb1ad8c69",
    }

    @pytest.mark.parametrize("rows_at_1024", [None, 1, 7, 8, 16, 64])
    @pytest.mark.parametrize("sigma_mode", ["estimated", "known"])
    def test_bytes_do_not_depend_on_the_row_block(self, tmp_path, monkeypatch, sigma_mode, rows_at_1024):
        from steinthresh import harness

        if rows_at_1024 is not None:
            monkeypatch.setattr(harness, "_BLOCK_VALUES", rows_at_1024 * 1024)
        path = tmp_path / "out.csv"
        assert cli.main(["simulate", *self.PINNED_FLAGS, "--sigma-mode", sigma_mode, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256[sigma_mode]

    @pytest.mark.parametrize("sigma_mode", ["estimated", "known"])
    def test_an_odd_replicate_count_gives_the_bytes_of_any_row_block(self, tmp_path, monkeypatch, sigma_mode):
        # blocks hold at least 2 rows, so with 1024 values a block (4 rows at
        # n = 256, 2 from 1024 up) 21 replicates end in a 1-row block at every
        # n; the bytes must be those of the default blocks
        from steinthresh import harness

        flags = [*self.PINNED_FLAGS[:-4], "--reps", "21", "--seed", "11", "--sigma-mode", sigma_mode]
        outs = []
        for values in (None, 1024):
            if values is not None:
                monkeypatch.setattr(harness, "_BLOCK_VALUES", values)
            path = tmp_path / f"out{values}.csv"
            assert cli.main(["simulate", *flags, "--out", str(path)]) == 0
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

    def test_seed_of_64_bits_and_up_writes_the_engines_rows(self, tmp_path, capsys):
        # the command line takes every seed the engines take, by their rule
        out = tmp_path / "risk.csv"
        assert cli.main(["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--reps", "2",
                         "--seed", "18446744073709551616", "--out", str(out)]) == 0
        fmt = lambda x: format(float(x), ".17g")
        rows = [f"{r.signal},{r.method},{r.n},{fmt(r.snr)},{r.reps},{fmt(r.mean_risk)},{fmt(r.std_error)},"
                f"{fmt(r.relative_risk)}\n"
                for r in harness.risk_sweep(["zh"], ["blocks"], [64], snr=3.0, reps=2, seed=2**64)]
        assert out.read_text() == CSV_HEADER + "\n" + "".join(rows)

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

    def test_non_finite_snr_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        for snr in ("inf", "nan"):
            assert cli.main(["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64",
                             "--snr", snr, "--reps", "5", "--out", str(path)]) == 2
            assert "snr must be positive and finite" in capsys.readouterr().err
        assert not path.exists()

    def test_printed_table_matches_the_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        flags = ["--methods", "zh,visu,blockjs", "--signals", "blocks,spikes", "--n", "64,256",
                 "--reps", "20", "--seed", "3", "--sigma-mode", "estimated"]
        assert cli.main(["simulate", *flags, "--out", str(path)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["signal", "n", "zh", "visu", "blockjs"]
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(lines) == 4 and len(rows) == 12
        for line, cell in zip(lines, (rows[k:k + 3] for k in range(0, 12, 3))):
            signal, n, *values = line.split()
            assert [signal, n] == [cell[0]["signal"], cell[0]["n"]]
            assert [row["method"] for row in cell] == ["zh", "visu", "blockjs"]
            assert values == [f"{float(row['relative_risk']):.4f}" for row in cell]

    def test_every_signal_and_n_is_checked_before_any_is_simulated(self, tmp_path, monkeypatch, capsys):
        from steinthresh import harness

        calls = []

        def counting(methods, signal, *args):
            calls.append((signal.name, signal.samples.size))
            return np.zeros((len(methods), 2))

        monkeypatch.setattr(harness, "_cell_errors", counting)
        path = tmp_path / "x.csv"
        base = ["simulate", "--methods", "zh", "--reps", "2", "--out", str(path)]
        assert cli.main([*base, "--signals", "blocks,nope", "--n", "64"]) == 2
        assert "unknown signal 'nope'" in capsys.readouterr().err
        assert cli.main([*base, "--signals", "blocks", "--n", "1024,1000"]) == 2
        assert "power of two" in capsys.readouterr().err
        assert calls == [] and not path.exists()
        assert cli.main([*base, "--signals", "blocks,bumps", "--n", "64,128"]) == 0
        assert calls == [("blocks", 64), ("blocks", 128), ("bumps", 64), ("bumps", 128)]

    def test_too_small_n_fails_before_any_cell_runs(self, tmp_path, monkeypatch, capsys):
        # n = 8 is a power of two, but it leaves no detail level above the cutoff
        from steinthresh import harness

        calls = []
        monkeypatch.setattr(harness, "_cell_errors", lambda *args: calls.append(args))
        path = tmp_path / "x.csv"
        argv = ["simulate", "--methods", "zh", "--signals", "blocks", "--n", "1024,8", "--reps", "2",
                "--out", str(path)]
        assert cli.main(argv) == 2
        assert "no detail level above the resolution cutoff" in capsys.readouterr().err
        assert calls == [] and not path.exists()

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

    def test_dimension_below_three_rejected(self):
        r = run_cli("bound-a", "--beta", "2", "--d", "2", "--reps", "2000")
        assert r.returncode == 2
        assert "finite-sample rule needs d >= 3" in r.stderr

    def test_argparse_failures_exit_2(self):
        assert run_cli("bound-a", "--beta", "2", "--d", "ten", "--reps", "2000").returncode == 2
        assert run_cli("frobnicate").returncode == 2

    def test_output_does_not_depend_on_core_count(self, monkeypatch, capsys):
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(canonical, "_cpu_count", lambda: cpus)
            assert cli.main(["bound-a", "--beta", "4/3", "--d", "50", "--reps", "2e5", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_d_list_rows_equal_single_d_runs(self, capsys):
        flags = ["--beta", "4/3", "--reps", "2e4", "--seed", "0"]
        assert cli.main(["bound-a", "--d", "5,10,50", *flags]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        for d, row in zip((5, 10, 50), rows):
            assert cli.main(["bound-a", "--d", str(d), *flags]) == 0
            assert capsys.readouterr().out == f"{header}\n{row}\n"
            fields = row.split()
            assert int(fields[1]) == d
            finite = resolve_a(ShrinkConfig(beta=4.0 / 3.0, a_rule="finite"), d)
            assert fields[4] == f"{finite:.6g}"

    def test_bad_d_in_list_prints_no_partial_table(self, capsys):
        assert cli.main(["bound-a", "--beta", "4/3", "--d", "5,2", "--reps", "2000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "finite-sample rule needs d >= 3" in err

    def test_every_d_is_checked_before_any_is_simulated(self, monkeypatch, capsys):
        calls = []

        def counting(*args):
            calls.append(args)
            return canonical.monte_carlo_a_beta(*args)

        monkeypatch.setattr(cli, "monte_carlo_a_beta", counting)
        assert cli.main(["bound-a", "--beta", "4/3", "--d", "5,2", "--reps", "2000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "finite-sample rule needs d >= 3" in err
        assert calls == []
        assert cli.main(["bound-a", "--beta", "4/3", "--d", "5,6", "--reps", "2000"]) == 0
        assert [args[1] for args in calls] == [5, 6]


class TestScripts:
    def test_shrink_constant_table_does_not_depend_on_core_count(self, monkeypatch, capsys):
        # the table the shrink-constant script printed is now bound-a with a d list
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(canonical, "_cpu_count", lambda: cpus)
            assert cli.main(["bound-a", "--beta", "4/3", "--d", "5,50", "--reps", "2e5", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 3
        assert outputs[0] == outputs[1]


# a valid simulate command, for tests that append one bad flag to it
SIMULATE = ["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--out", "x.csv"]


class TestArgumentTypes:
    def test_a_rule_names_come_from_the_rule_table(self):
        for rule in A_RULES:
            assert cli._a_rule(rule) == rule
        assert cli._a_rule(" fixed:4/3 ") == 4.0 / 3.0
        with pytest.raises(argparse.ArgumentTypeError) as info:
            cli._a_rule("nope")
        assert str(info.value) == "invalid a-rule 'nope'; expected finite|asymptotic|eb|theorem|fixed:<real>"

    @pytest.mark.parametrize("a_rule", ["fixed:inf", "fixed:-1", "fixed:nan", "fixed:0"])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_fixed_a_is_checked_at_parse_time_for_every_method(self, tmp_path, capsys, method, a_rule):
        # a missing input would exit 1 if it were read first; fixed:inf once
        # passed the parser, so visu ran and zh failed later with another message
        argv = ["denoise", "--input", str(tmp_path / "nope.csv"), "--method", method, "--a-rule", a_rule,
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "fixed a must be positive and finite" in err

    @pytest.mark.parametrize("flags, message", [
        (["--beta", "nan"], "beta must be in (0, 2], got nan"),
        (["--beta", "5"], "beta must be in (0, 2], got 5.0"),
        (["--a-rule", "theorem", "--beta", "1"], "minimaxity bound requires beta > 1"),
    ])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_beta_and_a_rule_are_checked_for_every_method(self, tmp_path, capsys, monkeypatch, method, flags,
                                                          message):
        # denoise fails before its missing input is read (which would exit 1),
        # and simulate before any noise is drawn; visu once ran with --beta nan
        def no_draw(*args):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(harness, "substream", no_draw)
        out = tmp_path / "x.csv"
        for argv in (["denoise", "--input", str(tmp_path / "nope.csv"), "--method", method],
                     ["simulate", "--methods", method, "--signals", "blocks", "--n", "64", "--reps", "2"]):
            assert cli.main([*argv, *flags, "--out", str(out)]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == "" and message in err and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ([*SIMULATE, "--snr", "x"], "not a real number: 'x'"),
        ([*SIMULATE, "--reps", "2.5"], "reps must be an integer >= 2, got 2.5"),
        ([*SIMULATE, "--reps", "0"], "reps must be an integer >= 2, got 0"),
        ([*SIMULATE, "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ([*SIMULATE, "--seed", "1.5"], "seed must be an integer >= 0, got 1.5"),
        ([*SIMULATE, "--methods", ","], "empty list"),
        (["denoise", "--input", "two.csv", "--method", "zh", "--out", "x.csv"], "input must be a single-column CSV"),
    ])
    def test_bad_argument_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two.csv").write_text("1,2\n3,4\n")
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert not (tmp_path / "x.csv").exists()

    # a count's bound is the engine's, checked before any noise is drawn or anything printed
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--reps", "1e400", "--out", "x.csv"],
         "reps must be an integer >= 2, got inf"),
        (["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--reps", "inf", "--out", "x.csv"],
         "reps must be an integer >= 2, got inf"),
        (["bound-a", "--beta", "4/3", "--d", "1e400"], "d must be an integer >= 1, got inf"),
        (["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64,1e400", "--out", "x.csv"],
         "signal length must be a power of two >= 2, got inf"),
    ])
    def test_non_finite_count_is_validation_error(self, tmp_path, argv, message):
        r = run_cli(*argv, cwd=tmp_path)
        assert r.returncode == 2
        assert message in r.stderr and r.stdout == ""
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "-1e400"])
    def test_count_rejects_non_finite_values(self, tmp_path, monkeypatch, capsys, text):
        def no_draw(*args):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(harness, "substream", no_draw)
        monkeypatch.chdir(tmp_path)
        assert cli.main([*SIMULATE, f"--reps={text}"]) == 2  # "--reps -inf" would read -inf as a flag
        out, err = capsys.readouterr()
        assert out == "" and f"reps must be an integer >= 2, got {float(text)}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("reps", ["1000.0000001", "1000000.0001"])
    def test_count_near_an_integer_is_validation_error(self, tmp_path, reps):
        # these were once rounded and run as 1,000 and 10**6 replicates
        r = run_cli("bound-a", "--beta", "4/3", "--d", "50", "--reps", reps, cwd=tmp_path)
        assert r.returncode == 2
        assert f"reps must be an integer >= 1000, got {reps}" in r.stderr
        assert r.stdout == "" and "Traceback" not in r.stderr

    def test_count_accepts_integral_float_text(self):
        for text, count in (("1e6", 10**6), ("64.0", 64), ("7", 7)):
            assert cli._integer(text) == count and type(cli._integer(text)) is int


class TestReadme:
    def test_command_examples_parse(self):
        # every "steinthresh <subcommand> ..." example, continuation lines joined
        text = README.read_text().replace("\\\n", " ")
        examples = [shlex.split(line)[1:] for line in text.splitlines()
                    if line.strip().startswith("steinthresh ")]
        assert {argv[0] for argv in examples} == {"denoise", "simulate", "bound-a"}
        parser = cli._build_parser()
        for argv in examples:
            parser.parse_args(argv)

    def test_mentioned_scripts_exist(self):
        names = re.findall(r"scripts/([\w-]+\.py)", README.read_text())
        assert names
        for name in names:
            assert (SCRIPTS / name).is_file(), name


class TestPackageImport:
    def test_loads_numpy_random_and_no_scipy(self):
        # scipy's import cost most of the package import; numpy.random is
        # loaded eagerly so its memory is not first touched by a draw
        code = ("import sys, steinthresh; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "print('numpy.random' in sys.modules)")
        r = run_python("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split("\n")[:2] == ["[]", "True"]
