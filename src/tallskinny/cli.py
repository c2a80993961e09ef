"""svdbench: benchmark and verify the distributed SVD algorithms.

Two subcommands share one flag set; run adds --reps and --out, verify --matrix:

    svdbench run    --algo tssvd --rows 100000 --cols 250 --ranks 4 ...
    svdbench verify --algo cpsvd --rows 5000 --cols 50 --ranks 4 ...

Bare flags (no subcommand) run a benchmark. Exit codes: 0 success,
1 algorithm failure or verification tolerance breach, 2 bad usage. A
missing, unreadable, malformed or short --input file is bad usage.

verify bounds each |sigma_i - oracle_i| absolutely: by 2 lambda n u
sigma_1 for cpsvd and tssvd, by 0.01 sigma_i for rsvd's leading k. It
checks an --input file's matrix as it is, for every route, and ignores
--rows and --cols. Without --input it generates the matrix:
random normal data (for rsvd, whose 1% gate needs a decaying spectrum, a
low-rank instance instead), or the ill-conditioned instance of
--matrix cond1e6. That instance is built, never read, so --matrix
cond1e6 with --input is bad usage.

Run as a program with no *_NUM_THREADS variable set, svdbench gives each
rank its share of the cores: it re-executes itself once with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to
max(1, cores // ranks), where that is below the core count. Rank threads
each call BLAS, and with the library's default of one BLAS thread per core
the two levels oversubscribe the cores. A variable the user set is left
as it is.
"""

import argparse
import io
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import dense
from .bench import ALGOS, PRECISIONS, BenchConfig, ConfigError, run_bench, run_verify


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svdbench",
        description="Benchmark distributed tall/skinny SVD algorithms.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--algo", required=True, choices=ALGOS)
    shared.add_argument("--rows", type=int, default=BenchConfig.rows,
                        help="global row count m (default %(default)s)")
    shared.add_argument("--cols", type=int, default=BenchConfig.cols,
                        help="column count n (default %(default)s)")
    shared.add_argument("--precision", choices=tuple(PRECISIONS),
                        default=BenchConfig.precision)
    shared.add_argument("--ranks", type=int, default=BenchConfig.ranks,
                        help="in-process rank count p")
    shared.add_argument("--k", type=int, default=BenchConfig.k,
                        help="rsvd truncation rank")
    shared.add_argument("--q", type=int, default=BenchConfig.q,
                        help="rsvd power iterations")
    shared.add_argument("--seed", type=int, default=BenchConfig.seed,
                        help="data seed")
    shared.add_argument("--input", dest="input_path", default=None, metavar="FILE",
                        help="read the matrix from a TSKM binary file")
    shared.add_argument("--equal-bytes", action="store_true",
                        help="halve the rows for f64 so byte counts match f32")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", parents=[shared],
                         help="time the singular-value computation, emit CSV")
    run.add_argument("--reps", type=int, default=BenchConfig.reps,
                     help="repetitions per run")
    run.add_argument("--out", default=None, help="write CSV here instead of stdout")
    verify = sub.add_parser(
        "verify", parents=[shared],
        help="compare an algorithm against an f64 SVD of the full matrix",
    )
    verify.add_argument("--matrix", choices=("random", "cond1e6"), default="random",
                        help="verification input: random normal data or the "
                             "built-in ill-conditioned instance")
    return parser


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads(ranks, environ):
    """(BLAS threads per rank, whether svdbench must set them).

    A *_NUM_THREADS variable in `environ` is the user's choice: the first
    of BLAS_THREAD_VARS that is set gives the count, and with none of them
    set the library's default of one thread per core holds. Otherwise each
    rank gets max(1, cores // ranks), which needs setting only when it is
    below that default.
    """
    cores = _cores()
    if any(name.endswith("_NUM_THREADS") for name in environ):
        return next((environ[v] for v in BLAS_THREAD_VARS if v in environ), cores), False
    threads = max(1, cores // max(1, ranks))
    return threads, threads < cores


def _reexec_with(threads):
    """Restart this interpreter, as it was started, with `threads` BLAS threads."""
    env = {**os.environ, **{name: str(threads) for name in BLAS_THREAD_VARS}}
    os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def _config_from(args):
    """The BenchConfig the flags fill by dest name; unflagged fields keep defaults."""
    names = {f.name for f in fields(BenchConfig)}
    return BenchConfig(**{k: v for k, v in vars(args).items() if k in names})


def main(argv=None):
    as_program = argv is None
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("run", "verify", "-h", "--help"):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    threads, must_set = blas_threads(args.ranks, os.environ)
    if as_program and must_set:
        _reexec_with(threads)

    try:
        cfg = _config_from(args)
        if args.command == "verify":
            return run_verify(cfg, args.matrix, sys.stdout)
        # Without --out, CSV owns stdout and the table moves to stderr. With
        # it, the file is written after the run, so that a rejected config
        # leaves it alone.
        csv_out = sys.stdout if args.out is None else io.StringIO()
        human_out = sys.stderr if args.out is None else sys.stdout
        code = run_bench(cfg, csv_out, human_out)
        print(f"  BLAS threads per rank: {threads}", file=human_out)
        print(f"  row-pass chunk: {dense.PASS_CHUNK_BYTES / 1024:g} KiB", file=human_out)
        if args.out is not None:
            Path(args.out).write_text(csv_out.getvalue())
        return code
    except ConfigError as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:  # RankFailures among them
        print(f"svdbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
