"""Benchmark and verification harness behind the svdbench CLI.

Each bench run spawns the requested in-process ranks, generates (or reads)
the matrix once on every rank, and times only the singular-value
computation, per rep. That is the only portion requiring communication;
factor recovery and data generation stay outside the clock. Every rank
times each rep, and a rep's record holds the max over ranks: rank 0 roots
every collective and returns first. Records are written as CSV rows plus
a human-readable summary with the median.
"""

import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comm import run_ranks
from .distmat import distribute, generate_random, random_rows, read_distributed
from .matfile import MatrixFileError, read_header, read_matrix
from .matrices import conditioned_matrix, low_rank_noise_matrix
from .svd import ROUTES, ParameterError, RsvdParams, route

ALGOS = tuple(ROUTES)
PRECISIONS = {"f32": np.float32, "f64": np.float64}

CSV_HEADER = "algo,precision,m,n,p,k,q,rep,seconds,sigma_sum"

# rsvd approximates the leading k values of a decaying spectrum: verify
# admits 1% relative error on each.
RSVD_VERIFY_TOLERANCE = 1e-2
# lambda of the probabilistic rounding model behind verify_tolerance: a
# sum of rounding errors stays within lambda times its expected size with
# probability at least 1 - 2 exp(-lambda^2 / 2), about 0.98 at lambda = 3
# (Higham & Mary, SISC 2019, Thm 2.4).
ROUNDING_LAMBDA = 3
# Most ranks a run or verify starts, each a thread. Fixed, not read from
# the core count, so that a command valid on one host is valid on all.
MAX_RANKS = 256


class ConfigError(ValueError):
    """Unusable flag combination (maps to exit code 2)."""


@dataclass
class BenchConfig:
    algo: str
    rows: int = 1_000_000
    cols: int = 250
    precision: str = "f64"
    ranks: int = 1
    k: int = 2
    q: int = 2
    seed: int = 42
    reps: int = 5
    input_path: Optional[str] = None
    equal_bytes: bool = False

    def effective_rows(self):
        """--equal-bytes keeps the byte count fixed: half the rows for f64."""
        if self.equal_bytes and self.precision == "f64":
            return self.rows // 2
        return self.rows

    def validate(self):
        if self.precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {self.precision!r}; expected f32 or f64")
        if not 1 <= self.ranks <= MAX_RANKS:
            raise ConfigError(f"ranks must be in 1..{MAX_RANKS}, got {self.ranks}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.input_path is None:
            m, n = self.effective_rows(), self.cols
        elif self.equal_bytes:
            raise ConfigError("--equal-bytes sets the generated rows; it cannot take --input")
        else:
            # Checked here in the calling thread, so that a missing,
            # unreadable, bad or short file is a ConfigError before any
            # rank starts.
            try:
                m, n, dtype = read_header(self.input_path)
            except (MatrixFileError, OSError) as exc:
                raise ConfigError(str(exc)) from exc
            if dtype != PRECISIONS[self.precision]:
                raise ConfigError(
                    f"input file holds {dtype}; pass the matching --precision"
                )
        if not m > n >= 1:
            raise ConfigError(f"need rows > cols >= 1, got {m}x{n}")
        try:
            route(self.algo, n, self.rsvd_params())
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def rsvd_params(self):
        """The rsvd route's parameters.

        Benchmarks draw the projection from uniform(0, 1); it works as well
        as the normal draw and the experiment convention fixes it.
        """
        return RsvdParams(k=self.k, q=self.q, projection="uniform01", seed=self.seed + 1)


def _load_matrix(comm, cfg):
    if cfg.input_path is not None:
        return read_distributed(comm, cfg.input_path)
    return generate_random(
        comm, cfg.effective_rows(), cfg.cols, "standard-normal", cfg.seed,
        PRECISIONS[cfg.precision],
    )


def _bench_worker(comm, cfg):
    """(shape, this rank's seconds per rep, sigma sum per rep)."""
    # One load serves every rep (no route writes to a.block), and the
    # route is bound once, outside the clock.
    a = _load_matrix(comm, cfg)
    solve, _ = route(cfg.algo, a.cols, cfg.rsvd_params())
    seconds, sums = [], []
    for _ in range(cfg.reps):
        comm.barrier()
        start = time.perf_counter()
        sigma = solve(a).sigma
        seconds.append(time.perf_counter() - start)
        sums.append(float(np.sum(sigma)))
    return (a.global_rows, a.cols), seconds, sums


def _csv_row(cfg, shape, rep, seconds, sigma_sum):
    k = cfg.k if cfg.algo == "rsvd" else ""
    q = cfg.q if cfg.algo == "rsvd" else ""
    return (
        f"{cfg.algo},{cfg.precision},{shape[0]},{shape[1]},{cfg.ranks},"
        f"{k},{q},{rep},{seconds:.6f},{sigma_sum!r}"
    )


def run_bench(cfg, csv_out, human_out):
    """Run the configured benchmark; write CSV rows and a summary table."""
    cfg.validate()
    results = run_ranks(cfg.ranks, _bench_worker, cfg)
    shape, _, sums = results[0]
    slowest = [max(rep) for rep in zip(*(seconds for _, seconds, _ in results))]
    records = list(zip(range(cfg.reps), slowest, sums))
    print(CSV_HEADER, file=csv_out)
    for rep, seconds, sigma_sum in records:
        print(_csv_row(cfg, shape, rep, seconds, sigma_sum), file=csv_out)

    med = statistics.median(seconds for _, seconds, _ in records)
    kq = f" k={cfg.k} q={cfg.q}" if cfg.algo == "rsvd" else ""
    print(
        f"{cfg.algo} {cfg.precision} m={shape[0]} n={shape[1]} "
        f"p={cfg.ranks}{kq} reps={cfg.reps}",
        file=human_out,
    )
    print(f"  {'rep':>4} {'seconds':>12} {'sigma_sum':>22}", file=human_out)
    for rep, seconds, sigma_sum in records:
        print(f"  {rep:>4} {seconds:>12.6f} {sigma_sum:>22.12e}", file=human_out)
    print(f"  median seconds: {med:.6f}", file=human_out)
    return 0


def _verify_input(cfg, matrix_kind):
    """The full verification matrix, built once in the calling thread."""
    if cfg.input_path is not None:
        return read_matrix(cfg.input_path)
    m, n, dtype = cfg.effective_rows(), cfg.cols, PRECISIONS[cfg.precision]
    if matrix_kind == "cond1e6":
        return conditioned_matrix(m, n, 1e6, cfg.seed, dtype)
    if matrix_kind == "lowrank":
        leading = np.linspace(10.0, 5.0, cfg.k)
        return low_rank_noise_matrix(m, n, leading, 1e-6, cfg.seed, dtype)
    return random_rows(cfg.seed, 0, m, n, "standard-normal", dtype)


def verify_tolerance(algo, oracle, dtype):
    """Largest absolute error |sigma_i - oracle_i| verify admits, per value.

    `oracle` holds the reference values that are compared (all n, or rsvd's
    leading k) and `dtype` is the working precision. An absolute bound
    gates a zero sigma_i too. For cpsvd and tssvd it is what a
    backward-stable SVD attains. Its backward error dA moves each sigma_i
    by at most ||dA||_2 (Weyl). The route has two
    backward-stable stages, the reduction to an n x n factor and the SVD
    of that factor, and each applies n orthogonal transformations. With
    independent rounding errors on data of mean zero, as verify's
    instances are, an inner product's error no longer grows with its
    length (Higham & Mary, SISC 2020), so each transformation adds at most
    ROUNDING_LAMBDA u ||A||_2. Two stages of n steps give
    |d sigma_i| <= 2 ROUNDING_LAMBDA n u sigma_1, and the f64 oracle,
    backward stable too, adds the same in its own unit roundoff. Input far
    from mean zero can need the sqrt(m) growth this model drops. The
    normal equations are not backward stable: cpsvd errs by up to about
    this bound times sigma_1 / sigma_i, which passes on well-conditioned
    data and fails on the cond1e6 instance. rsvd's bound is
    RSVD_VERIFY_TOLERANCE sigma_i.
    """
    if algo == "rsvd":
        return RSVD_VERIFY_TOLERANCE * oracle
    u = (np.finfo(dtype).eps + np.finfo(np.float64).eps) / 2
    return np.full(len(oracle), 2 * ROUNDING_LAMBDA * len(oracle) * u * oracle[0])


def run_verify(cfg, matrix_kind, out):
    """Compare the chosen algorithm against an f64 SVD of the full matrix.

    The oracle is LAPACK's values-only SVD in float64, a different driver
    from the gesdd or eigh call with vectors the routes make;
    verify_tolerance gives the bound on each value. Truncated SVD is only
    meaningful on a spectrum with decay, so rsvd verification swaps flat
    random data for a decaying low-rank instance. An input file is checked
    as it is, for every route; the built-in cond1e6 instance cannot be
    asked for with one.
    """
    if cfg.input_path is not None and matrix_kind != "random":
        raise ConfigError(
            f"--matrix {matrix_kind} builds its own matrix; it cannot take --input"
        )
    cfg.validate()
    if cfg.input_path is not None:
        matrix_kind = "input"
    elif cfg.algo == "rsvd" and matrix_kind == "random":
        matrix_kind = "lowrank"
    full = _verify_input(cfg, matrix_kind)
    solve, _ = route(cfg.algo, full.shape[1], cfg.rsvd_params())
    sigma = run_ranks(cfg.ranks, lambda c: solve(distribute(c, full)).sigma)[0]
    oracle = np.linalg.svd(full.astype(np.float64, copy=False), compute_uv=False)
    count = len(sigma)
    error = np.abs(sigma[:count] - oracle[:count])
    tolerance = verify_tolerance(cfg.algo, oracle[:count], full.dtype)
    worst = int(np.argmax(error - tolerance))
    print(
        f"{cfg.algo} {cfg.precision} m={full.shape[0]} n={full.shape[1]} "
        f"p={cfg.ranks} matrix={matrix_kind}: max sigma error {error.max():.3e} "
        f"over {count} values (sigma_1 {oracle[0]:.3e}); closest to its bound: "
        f"index {worst}, {error[worst]:.3e} (tolerance {tolerance[worst]:.1e})",
        file=out,
    )
    if not error[worst] <= tolerance[worst]:
        print(f"FAIL: sigma index {worst} exceeds its tolerance", file=out)
        return 1
    print("PASS", file=out)
    return 0
