import csv
import io
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tallskinny
from tallskinny import bench, dense
from tallskinny.bench import (
    ALGOS,
    CSV_HEADER,
    BenchConfig,
    run_bench,
    run_verify,
    verify_tolerance,
)
from tallskinny.cli import BLAS_THREAD_VARS, main
from tallskinny.matfile import write_matrix
from tallskinny.matrices import low_rank_noise_matrix

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

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_equal_bytes_with_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "in.tskm"
        write_matrix(path, np.random.default_rng(65).standard_normal((400, 10)))
        args = [command, "--algo", "tssvd", "--ranks", "2", "--input", str(path),
                "--equal-bytes"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--equal-bytes" in captured.err and "--input" in captured.err
        assert captured.out == ""

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
        assert main(args) == 2
        assert "precision" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(6, 6), (3, 6)])
    def test_input_not_tall_exits_2(self, tmp_path, capsys, shape):
        path = tmp_path / "square.tskm"
        write_matrix(path, np.ones(shape))
        args = ["run", "--algo", "tssvd", "--ranks", "2", "--reps", "1",
                "--input", str(path)]
        assert main(args) == 2
        assert "rows > cols" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_truncated_input_exits_2_naming_the_file(self, tmp_path, capsys, command):
        # Checked before any rank starts: no rank reports a collective abort.
        path = tmp_path / "short.tskm"
        write_matrix(path, np.ones((40, 5)))
        with open(path, "r+b") as fh:
            fh.truncate(32 + 39 * 5 * 8)
        args = [command, "--algo", "tssvd", "--ranks", "2", "--input", str(path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "truncated payload" in err
        assert "collective" not in err
        missing = tmp_path / "missing.tskm"
        args[args.index(str(path))] = str(missing)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file" in err
        assert "collective" not in err


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

    def test_rejected_config_leaves_out_file_alone(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        path.write_text("earlier results\n")
        args = ["run", "--algo", "tssvd", "--rows", "10", "--cols", "250", "--out", str(path)]
        assert main(args) == 2
        assert path.read_text() == "earlier results\n"

    @pytest.mark.parametrize("flag", ["--out", "--reps"])
    def test_verify_rejects_run_only_flags(self, tmp_path, flag):
        path = tmp_path / "verify.txt"
        value = str(path) if flag == "--out" else "7"
        with pytest.raises(SystemExit) as info:
            main(["verify", "--algo", "tssvd", *FAST[:6], flag, value])
        assert info.value.code == 2
        assert not path.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--out", "verify.txt"),
        ("run", "--matrix", "cond1e6"),
    ])
    def test_unknown_flag_prints_its_subcommands_usage(
        self, tmp_path, capsys, command, flag, value
    ):
        # The flag belongs to the other subcommand, so the top-level parser
        # would accept it; the refusal must come with this subcommand's usage.
        value = str(tmp_path / value) if flag == "--out" else value
        with pytest.raises(SystemExit) as info:
            main([command, "--algo", "tssvd", *FAST[:6], flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svdbench {command} ")
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_ranks_above_the_ceiling_exit_2_before_any_rank_starts(
        self, monkeypatch, capsys, command
    ):
        def no_ranks(*args, **kwargs):
            raise AssertionError("run_ranks called")

        monkeypatch.setattr(bench, "run_ranks", no_ranks)
        args = [command, "--algo", "tssvd", "--rows", "300", "--cols", "10"]
        assert main([*args, "--ranks", str(10**9)]) == 2
        assert f"1..{bench.MAX_RANKS}" in capsys.readouterr().err
        BenchConfig("tssvd", 300, 10, ranks=bench.MAX_RANKS).validate()

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "svdbench" in capsys.readouterr().out


class TestVerify:
    def test_tssvd_passes(self, capsys):
        args = ["verify", "--algo", "tssvd", "--rows", "1000", "--cols", "20",
                "--ranks", "4"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cpsvd_passes(self, capsys):
        args = ["verify", "--algo", "cpsvd", "--rows", "1000", "--cols", "20",
                "--ranks", "4"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    def test_rsvd_passes(self, capsys):
        args = ["verify", "--algo", "rsvd", "--rows", "1000", "--cols", "20",
                "--ranks", "2", "--k", "2", "--q", "2"]
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

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "in.tskm"
        write_matrix(path, np.random.default_rng(62).standard_normal((80, 6)))
        args = ["verify", "--algo", "tssvd", "--ranks", "2", "--input", str(path)]
        assert main(args) == 0
        assert "m=80 n=6" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ALGOS)
    def test_input_file_is_what_every_route_checks(self, tmp_path, capsys, algo):
        # --rows and --cols describe a different matrix; the file's wins,
        # for rsvd too, which swaps only generated random data for lowrank.
        path = tmp_path / "in.tskm"
        write_matrix(path, low_rank_noise_matrix(200, 12, [10.0, 5.0], 0.1, 63))
        args = ["verify", "--algo", algo, "--ranks", "2", "--rows", "4000",
                "--cols", "30", "--input", str(path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "m=200 n=12" in out and "matrix=input" in out and "PASS" in out

    def test_zero_singular_value_is_gated(self, tmp_path, capsys, monkeypatch):
        # A zero column gives the oracle an exact zero sigma, where an error
        # relative to sigma_i would be 0/0: the absolute bound still holds
        # tssvd's values to it, and doubled values fail.
        full = np.random.default_rng(65).standard_normal((400, 6))
        full[:, -1] = 0
        path = tmp_path / "in.tskm"
        write_matrix(path, full)

        def verify(algo):
            code = main(["verify", "--algo", algo, "--ranks", "2", "--input", str(path)])
            return code, capsys.readouterr().out

        code, out = verify("tssvd")
        assert code == 0 and "PASS" in out and "nan" not in out
        route = bench.route

        def doubled(*args):
            solve, width = route(*args)

            def solve_doubled(a):
                res = solve(a)
                return replace(res, sigma=2 * res.sigma)

            return solve_doubled, width

        monkeypatch.setattr(bench, "route", doubled)
        for algo in ("cpsvd", "tssvd"):
            code, out = verify(algo)
            assert code == 1 and "FAIL" in out

    def test_conditioned_instance_with_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.tskm"
        write_matrix(path, np.random.default_rng(64).standard_normal((3000, 20)))
        args = ["verify", "--algo", "tssvd", "--ranks", "2", "--rows", "4000",
                "--cols", "30", "--matrix", "cond1e6", "--input", str(path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--input" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("shape, dtype, message", [
        ((6, 6), np.float64, "rows > cols"),
        ((12, 3), np.float32, "precision"),
    ])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, shape, dtype, message):
        path = tmp_path / "bad.tskm"
        write_matrix(path, np.ones(shape, dtype=dtype))
        args = ["verify", "--algo", "tssvd", "--ranks", "2", "--input", str(path)]
        assert main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [5_000, 20_000, 50_000, 100_000])
    @pytest.mark.parametrize("ranks", [1, 2])
    def test_conditioned_instance_gate(self, capsys, ranks, rows):
        # The gate scales with sigma_1 / sigma_i but not with the rows: TSQR
        # stays inside it at kappa = 1e6, the normal equations (error
        # ~ kappa^2 u) do not, at every height.
        def verify(algo):
            code = main(["verify", "--algo", algo, "--rows", str(rows), "--cols", "50",
                         "--ranks", str(ranks), "--matrix", "cond1e6"])
            return code, capsys.readouterr().out

        code, out = verify("tssvd")
        assert code == 0 and "PASS" in out
        code, out = verify("cpsvd")
        assert code == 1 and "FAIL" in out

    def test_gate_scales_with_sigma_1_over_sigma_i(self):
        # The bound is absolute, 2 lambda n (u + u64) sigma_1 on every value
        # with lambda = 3, so relative to sigma_i it scales with
        # sigma_1 / sigma_i, and a zero sigma_i has a bound too.
        oracle = np.array([4.0, 2.0, 1.0, 1e-6, 0.0])
        tol = verify_tolerance("tssvd", oracle, np.float64)
        # u + u64 is eps in float64.
        unit = 6 * 5 * np.finfo(np.float64).eps
        assert np.allclose(tol, unit * oracle[0], rtol=1e-15)
        assert np.allclose(tol[:4] / oracle[:4], unit * oracle[0] / oracle[:4], rtol=1e-15)
        assert np.array_equal(verify_tolerance("cpsvd", oracle, np.float64), tol)
        f32 = verify_tolerance("tssvd", oracle, np.float32)
        u = (np.finfo(np.float32).eps + np.finfo(np.float64).eps) / 2
        assert np.allclose(f32, 6 * 5 * u * oracle[0])
        assert np.array_equal(verify_tolerance("rsvd", oracle[:2], np.float64),
                              [4e-2, 2e-2])

    @pytest.mark.parametrize("dtype, flat", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_gate_on_sigma_1_no_looser_than_flat_table(self, dtype, flat):
        # At verify's default 1e6 x 250 the bound on sigma_1 stays within
        # the flat per-precision table it replaced, and it does not grow
        # with the rows.
        oracle = np.linspace(2.0, 1.0, 250)
        assert verify_tolerance("tssvd", oracle, dtype)[0] / oracle[0] <= flat

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


class TestBlasThreads:
    """As a program, svdbench splits the cores between the ranks' BLAS."""

    class Exec(Exception):
        pass

    @pytest.fixture
    def program(self, monkeypatch):
        """Run main() as the program would, on 4 cores, recording any re-exec."""
        for name in list(os.environ):
            if name.endswith("_NUM_THREADS"):
                monkeypatch.delenv(name)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        calls = []

        def execve(path, args, env):
            calls.append(env)
            raise self.Exec

        monkeypatch.setattr(os, "execve", execve)

        def run(*flags):
            monkeypatch.setattr(sys, "argv", ["svdbench", "run", "--algo", "cpsvd", *flags])
            try:
                return main()
            except self.Exec:
                return "exec"

        run.calls = calls
        return run

    def test_reexecs_with_cores_per_rank(self, program):
        assert program("--rows", "60", "--cols", "4", "--ranks", "2", "--reps", "1") == "exec"
        env = program.calls[0]
        assert [env[v] for v in BLAS_THREAD_VARS] == ["2"] * 3

    def test_one_rank_keeps_the_default(self, program, capsys):
        assert program("--rows", "60", "--cols", "4", "--ranks", "1", "--reps", "1") == 0
        assert program.calls == []
        assert "BLAS threads per rank: 4" in capsys.readouterr().err

    def test_more_ranks_than_cores_get_one_thread(self, program):
        assert program("--rows", "60", "--cols", "4", "--ranks", "6", "--reps", "1") == "exec"
        assert program.calls[0]["OPENBLAS_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("name", BLAS_THREAD_VARS)
    def test_user_setting_is_honoured(self, program, monkeypatch, capsys, name):
        monkeypatch.setenv(name, "3")
        assert program("--rows", "60", "--cols", "4", "--ranks", "2", "--reps", "1") == 0
        assert program.calls == []
        assert "BLAS threads per rank: 3" in capsys.readouterr().err

    def test_other_thread_variables_do_not_count(self, program, monkeypatch):
        # NUMEXPR_NUM_THREADS sets no BLAS threads: the ranks still split
        # the cores.
        monkeypatch.setenv("NUMEXPR_NUM_THREADS", "4")
        assert program("--rows", "60", "--cols", "4", "--ranks", "2", "--reps", "1") == "exec"
        env = program.calls[0]
        assert [env[v] for v in BLAS_THREAD_VARS] == ["2"] * 3
        assert env["NUMEXPR_NUM_THREADS"] == "4"

    def test_library_call_never_reexecs(self, program, capsys):
        assert main(["run", "--algo", "cpsvd", "--rows", "60", "--cols", "4", "--ranks", "2"]) == 0
        assert program.calls == []
        err = capsys.readouterr().err
        assert "BLAS threads per rank: 2" in err
        assert f"row-pass chunk: {dense.PASS_CHUNK_BYTES / 1024:g} KiB" in err

    def test_generation_threads_follow_the_core_share_alone(
        self, program, monkeypatch, capsys, tmp_path
    ):
        # A user's BLAS setting does not move the generation threads.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert program("--rows", "60", "--cols", "4", "--ranks", "2", "--reps", "1") == 0
        err = capsys.readouterr().err
        assert "BLAS threads per rank: 3" in err
        assert "generation threads per rank: 2" in err
        # A run that reads its matrix generates nothing.
        path = tmp_path / "a.tskm"
        write_matrix(path, np.ones((60, 4)))
        assert program("--rows", "60", "--cols", "4", "--input", str(path), "--reps", "1") == 0
        assert "generation threads" not in capsys.readouterr().err

    def test_reexeced_program_keeps_its_csv(self):
        # End to end, on this machine's cores: with the variables stripped
        # the run reports cores // 2 threads and writes the CSV that an
        # explicit setting to that count writes.
        src = str(Path(tallskinny.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        threads = max(1, len(os.sched_getaffinity(0)) // 2)
        cmd = [sys.executable, "-m", "tallskinny", "run", "--algo", "tssvd",
               "--rows", "400", "--cols", "8", "--ranks", "2", "--reps", "2", "--seed", "5"]
        explicit = {**base, **{v: str(threads) for v in BLAS_THREAD_VARS}}
        procs = [subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
                 for env in (base, explicit)]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
            assert f"BLAS threads per rank: {threads}" in proc.stderr
            assert f"row-pass chunk: {dense.PASS_CHUNK_BYTES / 1024:g} KiB" in proc.stderr

        def without_seconds(text):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in parse_csv(text)]

        assert without_seconds(procs[0].stdout) == without_seconds(procs[1].stdout)


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

    def test_seconds_are_the_max_over_ranks(self, monkeypatch):
        # Rank 0 roots every collective and returns first; a rep lasts
        # until its slowest rank is done.
        route = bench.route

        def slow_rank_one(*args):
            solve, width = route(*args)

            def slow(a):
                res = solve(a)
                if a.comm.rank == 1:
                    time.sleep(0.05)
                return res

            return slow, width

        monkeypatch.setattr(bench, "route", slow_rank_one)
        cfg = BenchConfig(algo="cpsvd", rows=200, cols=8, ranks=2, reps=3)
        csv_out = io.StringIO()
        assert run_bench(cfg, csv_out, io.StringIO()) == 0
        rows = parse_csv(csv_out.getvalue())
        assert len(rows) == 3
        assert all(float(r["seconds"]) >= 0.05 for r in rows)

    def test_run_verify_stream(self):
        cfg = BenchConfig(algo="tssvd", rows=300, cols=10, ranks=2, reps=1)
        out = io.StringIO()
        assert run_verify(cfg, "random", out) == 0
        assert "PASS" in out.getvalue()
