"""Benchmark and verification harness behind the svdbench CLI.

Each bench run spawns the requested in-process ranks, generates (or reads)
the matrix once on every rank, and times only the singular-value
computation, per rep. That is the only portion requiring communication; factor recovery
and data generation stay outside the clock. Records come back from rank 0
as CSV rows plus a human-readable summary with the median.
"""

import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comm import run_ranks
from .dense import small_svd
from .distmat import gather, generate_random, read_distributed
from .matrices import conditioned_instance, low_rank_noise_instance
from .svd import ROUTES, ParameterError, RsvdParams, route

ALGOS = tuple(ROUTES)
PRECISIONS = {"f32": np.float32, "f64": np.float64}

CSV_HEADER = "algo,precision,m,n,p,k,q,rep,seconds,sigma_sum"

# Max relative sigma error admitted by `verify`, per algorithm and
# precision. rsvd is an approximation; 1% on the leading k values.
VERIFY_TOLERANCES = {
    ("tssvd", "f64"): 1e-12,
    ("tssvd", "f32"): 1e-4,
    ("cpsvd", "f64"): 1e-9,
    ("cpsvd", "f32"): 1e-3,
    ("rsvd", "f64"): 1e-2,
    ("rsvd", "f32"): 1e-2,
}


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
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algorithm {self.algo!r}; expected one of {ALGOS}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {self.precision!r}; expected f32 or f64")
        if self.ranks < 1:
            raise ConfigError(f"ranks must be >= 1, got {self.ranks}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.input_path is None:
            m, n = self.effective_rows(), self.cols
            if not m > n >= 1:
                raise ConfigError(f"need rows > cols >= 1, got {m}x{n}")
        if self.algo == "rsvd":
            try:
                self.rsvd_params().validate(self.cols)
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
        a = read_distributed(comm, cfg.input_path)
        if not a.global_rows > a.cols:
            raise ConfigError(
                f"input file is {a.global_rows}x{a.cols}; need rows > cols"
            )
        if a.dtype != PRECISIONS[cfg.precision]:
            raise ConfigError(
                f"input file holds {a.dtype} data; pass the matching --precision"
            )
        return a
    return generate_random(
        comm, cfg.effective_rows(), cfg.cols, "standard-normal", cfg.seed,
        PRECISIONS[cfg.precision],
    )


def _compute_sigma(a, cfg):
    return route(cfg.algo, cfg.rsvd_params())(a).sigma


def _bench_worker(comm, cfg):
    # One load serves every rep: no route writes to a.local.
    a = _load_matrix(comm, cfg)
    records = []
    for rep in range(cfg.reps):
        comm.barrier()
        start = time.perf_counter()
        sigma = _compute_sigma(a, cfg)
        seconds = time.perf_counter() - start
        if comm.rank == 0:
            records.append((rep, seconds, float(np.sum(sigma))))
    return ((a.global_rows, a.cols), records) if comm.rank == 0 else None


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
    shape, records = run_ranks(cfg.ranks, _bench_worker, cfg)[0]
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


def _verify_worker(comm, cfg, matrix_kind):
    if matrix_kind == "cond1e6":
        a = conditioned_instance(
            comm, cfg.effective_rows(), cfg.cols, 1e6, cfg.seed,
            PRECISIONS[cfg.precision],
        )
    elif matrix_kind == "lowrank":
        leading = np.linspace(10.0, 5.0, cfg.k)
        a, _ = low_rank_noise_instance(
            comm, cfg.effective_rows(), cfg.cols, leading, 1e-6, cfg.seed,
            PRECISIONS[cfg.precision],
        )
    else:
        a = _load_matrix(comm, cfg)
    sigma = _compute_sigma(a, cfg)
    full = gather(a)
    if comm.rank != 0:
        return None
    oracle, _, _ = small_svd(full)
    count = len(sigma) if cfg.algo == "rsvd" else len(oracle)
    rel = np.abs(sigma[:count] - oracle[:count]) / oracle[:count]
    worst = int(np.argmax(rel))
    return (a.global_rows, a.cols), float(rel[worst]), worst, count


def run_verify(cfg, matrix_kind, out):
    """Compare the chosen algorithm against the gathered-matrix oracle.

    Truncated SVD is only meaningful on a spectrum with decay, so rsvd
    verification swaps flat random data for a decaying low-rank instance.
    """
    cfg.validate()
    if cfg.algo == "rsvd" and matrix_kind == "random":
        matrix_kind = "lowrank"
    tolerance = VERIFY_TOLERANCES[(cfg.algo, cfg.precision)]
    shape, err, worst, count = run_ranks(cfg.ranks, _verify_worker, cfg, matrix_kind)[0]
    print(
        f"{cfg.algo} {cfg.precision} m={shape[0]} n={shape[1]} "
        f"p={cfg.ranks} matrix={matrix_kind}: max relative sigma error "
        f"{err:.3e} over {count} values (tolerance {tolerance:.0e})",
        file=out,
    )
    if err > tolerance:
        print(f"FAIL: sigma index {worst} exceeds tolerance", file=out)
        return 1
    print("PASS", file=out)
    return 0
