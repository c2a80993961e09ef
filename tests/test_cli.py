import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tallskinny
from tallskinny import bench
from tallskinny.bench import CSV_HEADER, BenchConfig, run_bench, run_verify
from tallskinny.cli import main
from tallskinny.matfile import write_matrix

FAST = ["--rows", "300", "--cols", "10", "--ranks", "2", "--reps", "2"]


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestRun:
    def test_bare_flags_default_to_run(self, capsys):
        assert main(["--algo", "tssvd", *FAST]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER
        rows = parse_csv(out)
        assert len(rows) == 2

    def test_csv_schema(self, capsys):
        assert main(["run", "--algo", "cpsvd", *FAST]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert list(rows[0]) == CSV_HEADER.split(",")
        assert rows[0]["algo"] == "cpsvd"
        assert rows[0]["precision"] == "f64"
        assert rows[0]["m"] == "300" and rows[0]["n"] == "10"
        assert rows[0]["p"] == "2"
        assert rows[0]["k"] == "" and rows[0]["q"] == ""
        assert [r["rep"] for r in rows] == ["0", "1"]
        assert all(float(r["seconds"]) > 0 for r in rows)

    def test_rsvd_records_default_k_q(self, capsys):
        assert main(["run", "--algo", "rsvd", *FAST]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["k"] == "2" and rows[0]["q"] == "2"

    def test_median_line_on_stderr(self, capsys):
        assert main(["run", "--algo", "tssvd", *FAST]) == 0
        assert "median seconds:" in capsys.readouterr().err

    def test_sigma_sum_deterministic_for_seed(self, capsys):
        main(["run", "--algo", "tssvd", *FAST, "--seed", "5"])
        first = parse_csv(capsys.readouterr().out)
        main(["run", "--algo", "tssvd", *FAST, "--seed", "5"])
        second = parse_csv(capsys.readouterr().out)
        assert first[0]["sigma_sum"] == second[0]["sigma_sum"]
        main(["run", "--algo", "tssvd", *FAST, "--seed", "6"])
        third = parse_csv(capsys.readouterr().out)
        assert first[0]["sigma_sum"] != third[0]["sigma_sum"]

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        main(["run", "--algo", "tssvd", *FAST, "--seed", "5"])
        baseline = parse_csv(capsys.readouterr().out)
        monkeypatch.setenv("SVDBENCH_SEED", "6")
        main(["run", "--algo", "tssvd", *FAST, "--seed", "5"])
        overridden = parse_csv(capsys.readouterr().out)
        assert baseline[0]["sigma_sum"] != overridden[0]["sigma_sum"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["run", "--algo", "tssvd", *FAST, "--out", str(path)]) == 0
        rows = parse_csv(path.read_text())
        assert len(rows) == 2
        assert "median seconds:" in capsys.readouterr().out

    def test_equal_bytes_halves_f64_rows(self, capsys):
        args = ["run", "--algo", "cpsvd", "--rows", "400", "--cols", "10",
                "--ranks", "2", "--reps", "1", "--equal-bytes"]
        assert main(args) == 0
        assert parse_csv(capsys.readouterr().out)[0]["m"] == "200"
        assert main([*args[:-1], "--precision", "f32", "--equal-bytes"]) == 0
        assert parse_csv(capsys.readouterr().out)[0]["m"] == "400"

    def test_float32_run(self, capsys):
        assert main(["run", "--algo", "tssvd", "--precision", "f32", *FAST]) == 0
        assert parse_csv(capsys.readouterr().out)[0]["precision"] == "f32"

    def test_input_file(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        path = tmp_path / "in.tskm"
        write_matrix(path, rng.standard_normal((50, 6)))
        args = ["run", "--algo", "tssvd", "--ranks", "2", "--reps", "1",
                "--input", str(path)]
        assert main(args) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["m"] == "50" and rows[0]["n"] == "6"

    def test_input_precision_mismatch(self, tmp_path, capsys):
        path = tmp_path / "in32.tskm"
        write_matrix(path, np.ones((12, 3), dtype=np.float32))
        args = ["run", "--algo", "tssvd", "--reps", "1", "--input", str(path)]
        assert main(args) == 1
        assert "precision" in capsys.readouterr().err


class TestUsageErrors:
    def test_rows_not_tall_exits_2(self, capsys):
        assert main(["run", "--algo", "tssvd", "--rows", "10", "--cols", "250"]) == 2
        assert "rows > cols" in capsys.readouterr().err

    def test_unknown_algo_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--algo", "qsvd", *FAST])
        assert info.value.code == 2

    def test_bad_precision_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--algo", "tssvd", "--precision", "f16", *FAST])
        assert info.value.code == 2

    def test_rsvd_oversampling_exits_2(self, capsys):
        args = ["run", "--algo", "rsvd", "--rows", "100", "--cols", "3", "--k", "2"]
        assert main(args) == 2
        assert "2k" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "svdbench" in capsys.readouterr().out

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SVDBENCH_SEED", "not-a-number")
        assert main(["run", "--algo", "tssvd", *FAST]) == 2
        assert "SVDBENCH_SEED" in capsys.readouterr().err


class TestVerify:
    def test_tssvd_passes(self, capsys):
        args = ["verify", "--algo", "tssvd", "--rows", "1000", "--cols", "20",
                "--ranks", "4", "--reps", "1"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cpsvd_passes(self, capsys):
        args = ["verify", "--algo", "cpsvd", "--rows", "1000", "--cols", "20",
                "--ranks", "4", "--reps", "1"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    def test_rsvd_passes(self, capsys):
        args = ["verify", "--algo", "rsvd", "--rows", "1000", "--cols", "20",
                "--ranks", "2", "--reps", "1", "--k", "2", "--q", "2"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    def test_conditioned_instance_separates_algorithms(self, capsys):
        def err_of(algo):
            args = ["verify", "--algo", algo, "--rows", "600", "--cols", "30",
                    "--ranks", "2", "--matrix", "cond1e6"]
            main(args)
            out = capsys.readouterr().out
            return float(out.split("error ")[1].split()[0])

        tssvd_err = err_of("tssvd")
        cpsvd_err = err_of("cpsvd")
        assert cpsvd_err > tssvd_err

    def test_cpsvd_fails_tolerance_on_conditioned_instance(self, capsys):
        args = ["verify", "--algo", "cpsvd", "--rows", "600", "--cols", "30",
                "--ranks", "2", "--matrix", "cond1e6"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "sigma index" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # The child imports the same tallskinny as this process, installed
        # or not.
        src = str(Path(tallskinny.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tallskinny", "run", "--algo", "cpsvd",
             "--rows", "120", "--cols", "6", "--ranks", "2", "--reps", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER


class TestBenchApi:
    def test_run_bench_writes_streams(self):
        cfg = BenchConfig(algo="tssvd", rows=200, cols=8, ranks=2, reps=1)
        csv_out, human_out = io.StringIO(), io.StringIO()
        assert run_bench(cfg, csv_out, human_out) == 0
        assert csv_out.getvalue().startswith(CSV_HEADER)
        assert "median" in human_out.getvalue()

    def test_matrix_generated_once_per_run(self, monkeypatch):
        calls = []
        generate = bench.generate_random

        def counting(comm, *args):
            calls.append(comm.rank)
            return generate(comm, *args)

        monkeypatch.setattr(bench, "generate_random", counting)
        cfg = BenchConfig(algo="cpsvd", rows=200, cols=8, ranks=2, reps=3)
        csv_out = io.StringIO()
        assert run_bench(cfg, csv_out, io.StringIO()) == 0
        assert sorted(calls) == [0, 1]
        assert len(parse_csv(csv_out.getvalue())) == 3

    def test_run_verify_stream(self):
        cfg = BenchConfig(algo="tssvd", rows=300, cols=10, ranks=2, reps=1)
        out = io.StringIO()
        assert run_verify(cfg, "random", out) == 0
        assert "PASS" in out.getvalue()
