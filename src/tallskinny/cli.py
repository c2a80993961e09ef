"""svdbench: benchmark and verify the distributed SVD algorithms.

Two subcommands share one flag set; run adds --reps and --out, verify --matrix:

    svdbench run    --algo tssvd --rows 100000 --cols 250 --ranks 4 ...
    svdbench verify --algo cpsvd --rows 5000 --cols 50 --ranks 4 ...

Bare flags (no subcommand) run a benchmark. Exit codes: 0 success,
1 algorithm failure or verification tolerance breach, 2 bad usage. A
missing, unreadable, malformed or short --input file is bad usage, and so
is an --out path that is a directory or whose directory does not exist:
both exit before any rank starts.

verify bounds each |sigma_i - oracle_i| absolutely: by 2 lambda n u
sigma_1 for cpsvd and tssvd, by 0.01 sigma_i for rsvd's leading k. It
checks an --input file's matrix as it is, for every route, and ignores
--rows and --cols. Without --input it generates the matrix:
random normal data (for rsvd, whose 1% gate needs a decaying spectrum, a
low-rank instance instead), or the ill-conditioned instance of
--matrix cond1e6. That instance is built, never read, so --matrix
cond1e6 with --input is bad usage. So is --equal-bytes with --input: it
halves generated rows, and a file's rows are fixed.

Each rank owns a share of the cores, max(1, cores // ranks)
(comm.core_share), and generates its rows on that many threads. The
share also sets the BLAS threads: run as a program with none of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set, svdbench
re-executes itself once with all three set to the share, where that is
below the core count. Rank threads each call BLAS, and with the library's
default of one BLAS thread per core the two levels oversubscribe the
cores. One of the three that the user set is left as it is, and sets the
BLAS threads alone. run's summary prints both counts. Every flag is
checked before that re-execution, so bad usage exits 2 from the first
interpreter.

Run as a program, svdbench first freezes the garbage collector
(gc.freeze): the objects that importing numpy and the package created
move to a permanent generation that no collection walks, neither the
run's nor the ones at interpreter exit, which would otherwise cost a
short run more than its SVD. A library call, main(argv), leaves the
collector as it finds it.
"""

import argparse
import gc
import io
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import dense
from .bench import ALGOS, PRECISIONS, BenchConfig, ConfigError, run_bench, run_verify
from .comm import core_share


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
    for command in (run, verify):
        command.set_defaults(subparser=command)
    return parser


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(ranks, environ):
    """(BLAS threads per rank, whether svdbench must set them).

    The first of BLAS_THREAD_VARS set in `environ` is the user's choice
    and gives the count; other *_NUM_THREADS variables do not count.
    Otherwise each rank gets its core share, comm.core_share(ranks), which
    needs setting only when it is below the library's default of one
    thread per core.
    """
    for name in BLAS_THREAD_VARS:
        if name in environ:
            return environ[name], False
    threads = core_share(ranks)
    return threads, threads < core_share(1)


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
    if as_program:
        gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("run", "verify", "-h", "--help"):
        argv.insert(0, "run")
    parser = build_parser()
    # A subcommand hands the flags it does not know back to the top-level
    # parser, whose usage line would hide which subcommand refused them.
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command is None:
        parser.print_help()
        return 2
    threads, must_set = blas_threads(args.ranks, os.environ)

    try:
        cfg = _config_from(args)
        matrix_kind = getattr(args, "matrix", "random")
        # Without --out, CSV owns stdout and the table moves to stderr. With
        # it, the file is written after the run, so that a rejected config
        # leaves it alone; a path the run could not write is refused first.
        out = None if getattr(args, "out", None) is None else Path(args.out)
        if out is not None and (out.is_dir() or not out.parent.is_dir()):
            raise ConfigError(f"--out {out}: not a file in an existing directory")
        if as_program and must_set:
            # Every flag is checked before the second interpreter start, so
            # bad usage exits 2 at once. The route bound here goes with this
            # interpreter: each process binds it once.
            cfg.validate(matrix_kind)
            _reexec_with(threads)
        if args.command == "verify":
            return run_verify(cfg, matrix_kind, sys.stdout)
        csv_out = sys.stdout if out is None else io.StringIO()
        human_out = sys.stderr if out is None else sys.stdout
        code = run_bench(cfg, csv_out, human_out)
        print(f"  BLAS threads per rank: {threads}", file=human_out)
        if cfg.input_path is None:
            print(f"  generation threads per rank: {core_share(cfg.ranks)}",
                  file=human_out)
        print(f"  row-pass chunk: {dense.PASS_CHUNK_BYTES / 1024:g} KiB", file=human_out)
        if out is not None:
            out.write_text(csv_out.getvalue())
        return code
    except ConfigError as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 2
    # RankFailures among them; a MemoryError from verify's full matrix,
    # which is built outside the ranks.
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
