"""Command-line interface: exit codes, file formats, and byte-level determinism."""

import argparse
import csv
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinthresh
from steinthresh import canonical, cli
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
        "zh.n256": "cd5645264634dcb1f9ac2374d459dad7a45bb6c41e7b0adb69fe5e336426da3f",
        "zh-sure.n256": "621d0ef524ce5adabad70d7bd08a17a5fcef765febbcb63365d871335683ede0",
        "identity.n1024": "26168a11c22158025de7883b4dd9d608d3b92eab0cc14a8811030f673a9d5cb9",
        "visu.n1024": "b061557ab7b2bf0588f004d954494ddcfa4d89aad217602504f2ec8ef8eff35d",
        "sure.n1024": "368648bfcdca19171c17631eff30090d02ceccaf5c1e0d7112211996d0c89d90",
        "blockjs.n1024": "2265ed8c3e492c29ad36ef25ffd7dda0045032f9ef796df18290e598903cfc5f",
        "js.n1024": "dd2b01a9895fa0ab9b6a990bdcc3064678a1e9cd96955a0cf8df0feb15bf3eee",
        "zh.n1024": "f987a69261b263b7507ad29b0eb83f24f3e99ebbd6ad0af6f87f24c06cf5e8a1",
        "zh-sure.n1024": "4dbaaff4e88bf2e72e4a8f0cc12a8f0dc3278b1e5b3b27306a41a18e62743cc3",
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
        "estimated": "75f99c8afa11c4cded4581ee3e1275441b374cbd97f60642b447911f00fe6ef5",
        "known": "259f1b16e0390d9d03491a0b82f49616267c0608c4b672ef43859fc33e2aa546",
    }

    @pytest.mark.parametrize("rows_at_1024", [None, 1, 7, 64])
    @pytest.mark.parametrize("sigma_mode", ["estimated", "known"])
    def test_bytes_do_not_depend_on_the_row_block(self, tmp_path, monkeypatch, sigma_mode, rows_at_1024):
        from steinthresh import harness

        if rows_at_1024 is not None:
            monkeypatch.setattr(harness, "_BLOCK_VALUES", rows_at_1024 * 1024)
        path = tmp_path / "out.csv"
        assert cli.main(["simulate", *self.PINNED_FLAGS, "--sigma-mode", sigma_mode, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256[sigma_mode]

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
        assert "d must be at least 3" in r.stderr

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
        assert "d must be at least 3" in err

    def test_every_d_is_checked_before_any_is_simulated(self, monkeypatch, capsys):
        calls = []

        def counting(*args):
            calls.append(args)
            return canonical.monte_carlo_a_beta(*args)

        monkeypatch.setattr(cli, "monte_carlo_a_beta", counting)
        assert cli.main(["bound-a", "--beta", "4/3", "--d", "5,2", "--reps", "2000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "d must be at least 3" in err
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


class TestArgumentTypes:
    def test_a_rule_names_come_from_the_rule_table(self):
        for rule in A_RULES:
            if rule != "fixed":
                assert cli._a_rule(rule) == (rule, None)
        with pytest.raises(argparse.ArgumentTypeError) as info:
            cli._a_rule("nope")
        assert str(info.value) == "invalid a-rule 'nope'; expected finite|asymptotic|eb|theorem|fixed:<real>"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--reps", "1e400", "--out", "x.csv"],
        ["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64", "--reps", "inf", "--out", "x.csv"],
        ["bound-a", "--beta", "4/3", "--d", "1e400"],
        ["simulate", "--methods", "zh", "--signals", "blocks", "--n", "64,1e400", "--out", "x.csv"],
    ])
    def test_non_finite_count_is_validation_error(self, tmp_path, argv):
        r = run_cli(*argv, cwd=tmp_path)
        assert r.returncode == 2
        assert "usage:" in r.stderr and "not a count" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "-1e400"])
    def test_count_rejects_non_finite_values(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._count(text)


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
