"""svdbench: benchmark and verify the distributed SVD algorithms.

Two subcommands share one flag set:

    svdbench run    --algo tssvd --rows 100000 --cols 250 --ranks 4 ...
    svdbench verify --algo cpsvd --rows 5000 --cols 50 --ranks 4 ...

Bare flags (no subcommand) run a benchmark. Exit codes: 0 success,
1 algorithm failure or verification tolerance breach, 2 bad usage.
"""

import argparse
import os
import sys

from .bench import ALGOS, PRECISIONS, BenchConfig, ConfigError, run_bench, run_verify
from .comm import RankFailures

ENV_SEED = "SVDBENCH_SEED"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svdbench",
        description="Benchmark distributed tall/skinny SVD algorithms.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("run", "time the singular-value computation, emit CSV"),
        ("verify", "compare an algorithm against the gathered-matrix oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algo", required=True, choices=ALGOS)
        p.add_argument("--rows", type=int, default=BenchConfig.rows,
                       help="global row count m (default %(default)s)")
        p.add_argument("--cols", type=int, default=BenchConfig.cols,
                       help="column count n (default %(default)s)")
        p.add_argument("--precision", choices=tuple(PRECISIONS),
                       default=BenchConfig.precision)
        p.add_argument("--ranks", type=int, default=BenchConfig.ranks,
                       help="in-process rank count p")
        p.add_argument("--k", type=int, default=BenchConfig.k,
                       help="rsvd truncation rank")
        p.add_argument("--q", type=int, default=BenchConfig.q,
                       help="rsvd power iterations")
        p.add_argument("--seed", type=int, default=BenchConfig.seed,
                       help=f"data seed (env {ENV_SEED} overrides)")
        p.add_argument("--reps", type=int, default=BenchConfig.reps,
                       help="repetitions per run")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.add_argument("--input", default=None, metavar="FILE",
                       help="read the matrix from a TSKM binary file")
        p.add_argument("--equal-bytes", action="store_true",
                       help="halve the rows for f64 so byte counts match f32")
        if name == "verify":
            p.add_argument("--matrix", choices=("random", "cond1e6"),
                           default="random",
                           help="verification input: random normal data or the "
                                "built-in ill-conditioned instance")
    return parser


def _config_from(args):
    seed = args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}={env!r} is not an integer")
    return BenchConfig(
        algo=args.algo,
        rows=args.rows,
        cols=args.cols,
        precision=args.precision,
        ranks=args.ranks,
        k=args.k,
        q=args.q,
        seed=seed,
        reps=args.reps,
        input_path=args.input,
        equal_bytes=args.equal_bytes,
    )


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("run", "verify", "-h", "--help"):
        argv.insert(0, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    try:
        cfg = _config_from(args)
        cfg.validate()
        if args.command == "verify":
            return run_verify(cfg, args.matrix, sys.stdout)
        if args.out is not None:
            with open(args.out, "w") as fh:
                return run_bench(cfg, fh, sys.stdout)
        # CSV owns stdout, so the table moves to stderr.
        return run_bench(cfg, sys.stdout, sys.stderr)
    except ConfigError as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 2
    except RankFailures as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"svdbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
