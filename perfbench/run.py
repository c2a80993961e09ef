"""tallskinny benchmark: three closed-loop workloads over the three SVD routes.

Run from the repository root:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0

One benchmark process runs each workload's op mix in passes until `--seconds`
have elapsed, at most two rank threads at a time (the machine has two
cores). The seed fixes every generated matrix. Every op's result is checked
against an f64 LAPACK oracle (see checks.py). The last stdout line is the
result object; the line before it records the environment and the per-op
timing lists.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json. With `--trace 1` the run alternates untraced and traced
passes and reports the per-layer metrics from the traced ones (tracer.py),
plus the tracing overhead. The untraced run never patches anything.

Workloads (why each exists is in BENCHMARK.json and README.md):
  tall      1e5 x 50 standard-normal data, {cpsvd, tssvd, rsvd} x {f32, f64}
            x {p=1, p=2}, sigma only; cpsvd and rsvd cells run 4 times a pass.
  wide      2e4 x 250, f64: sigma-only routes at p=2 and p=1, and
            pca(method=route, want_scores=True) at p=2; rsvd cells run 8
            times a pass.
  svdbench  `python -m tallskinny run` subprocesses at 1.5e4 x 50 f64,
            --reps 3: per route one p=2 run that generates its data and
            p=1 and p=2 runs that read a TSKM file written in set-up.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# The launcher re-executes itself once under these settings, so numpy and
# glibc read them at start-up; the CLI subprocesses inherit them. They are
# recorded with every result. The program itself sets none of them.
# - One BLAS thread per rank: two rank threads already fill the two cores.
# - One malloc arena: with one arena per rank thread, how much freed memory
#   stayed resident depended on thread timing, and peak RSS spread by 15-25%
#   between runs of the same workload.
LAUNCH_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in LAUNCH_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **LAUNCH_ENV})

import numpy as np  # noqa: E402 - must load after the launcher settings

from checks import means_ok, oracle_sigma, score_norms_ok, sigma_ok, sigma_sum_ok
from tracer import Tracer, layer_value, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("tall", "wide", "svdbench")
RSVD_K = 2
RSVD_Q = 2
CLI_REPS = 3
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 60
# Kinds of cell that run at both p=1 and p=2; speedup_p2 compares them.
PAIRED = ("sigma", "cli-file")
# Times each route's cells run per pass. On tall a cpsvd or rsvd op takes
# tens of milliseconds and a tssvd op ~0.5 s; on wide an rsvd op takes
# ~70 ms and the others seconds, so a 20 s run holds two passes. The cheap
# ops repeat so that their per-cell medians rest on more samples.
REPEATS = {
    "tall": {"cpsvd": 4, "tssvd": 1, "rsvd": 4},
    "wide": {"cpsvd": 1, "tssvd": 1, "rsvd": 8},
}

ts = None  # the tallskinny package, imported once src/ is known to exist


@dataclass(frozen=True)
class Sizes:
    """Matrix shape (rows, cols) of each workload."""

    tall: tuple = (100_000, 50)
    wide: tuple = (20_000, 250)
    svdbench: tuple = (15_000, 50)


FULL = Sizes()


@dataclass(frozen=True)
class Cell:
    route: str
    kind: str  # "sigma", "pca", "cli-gen" or "cli-file"
    p: int
    prec: str

    @property
    def label(self):
        return f"{self.kind}:{self.route}:{self.prec}:p{self.p}"


def _pair(index, route, prec, kind):
    """The p=1 and p=2 cells of one config, alternating order by pass."""
    order = (1, 2) if index % 2 == 0 else (2, 1)
    return [Cell(route, kind, p, prec) for p in order]


def pass_cells(workload, index):
    if workload == "tall":
        return [
            cell
            for route in ts.bench.ALGOS
            for prec in ts.bench.PRECISIONS
            for r in range(REPEATS["tall"][route])
            for cell in _pair(index + r, route, prec, "sigma")
        ]
    if workload == "wide":
        return [
            cell
            for route in ts.bench.ALGOS
            for r in range(REPEATS["wide"][route])
            for cell in _pair(index + r, route, "f64", "sigma") + [Cell(route, "pca", 2, "f64")]
        ]
    return [
        cell
        for route in ts.bench.ALGOS
        for cell in [Cell(route, "cli-gen", 2, "f64")] + _pair(index, route, "f64", "cli-file")
    ]


def setup_plan(workload):
    """(precision, ranks) of every generate_random call in set-up."""
    if workload == "tall":
        return [(prec, p) for prec in ts.bench.PRECISIONS for p in (1, 2)]
    if workload == "wide":
        return [("f64", 1), ("f64", 2)]
    return [("f64", 2)]


class Bench:
    """State of one benchmark run: inputs, oracles, op tallies, timings."""

    def __init__(self, workload, seed, sizes, workdir):
        self.workload = workload
        self.seed = seed
        self.m, self.n = getattr(sizes, workload)
        self.path = str(Path(workdir) / "input.tskm") if workload == "svdbench" else None
        self.params = ts.RsvdParams(k=RSVD_K, q=RSVD_Q, seed=seed + 1)
        self.attempted = 0
        self.failed = 0
        self.blocks = {}
        self.timings = {}

    # -- ops ---------------------------------------------------------------

    def _tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    # -- set-up --------------------------------------------------------------

    def _generate(self, prec, p):
        m, n, seed, dtype = self.m, self.n, self.seed, ts.bench.PRECISIONS[prec]
        return ts.run_ranks(
            p, lambda comm: ts.generate_random(comm, m, n, seed=seed, dtype=dtype).local
        )

    def set_up_once(self):
        """Build every input; returns its wall time and the generated blocks."""
        blocks = {}
        start = time.perf_counter()
        for prec, p in setup_plan(self.workload):
            blocks[(prec, p)] = self._generate(prec, p)
        if self.path is not None:
            ts.write_matrix(self.path, np.vstack(blocks[("f64", 2)]))
        return time.perf_counter() - start, blocks

    def set_up(self, repeats):
        """Set up `repeats` times; check every input; build the oracles.

        The data must not depend on the rank count or the repetition, so
        every generated block is compared with the first full matrix of its
        precision. The cells then run on row views of that one matrix,
        which keeps the resident set the same from run to run.
        """
        self.reference = {}
        times = []
        for _ in range(repeats):
            seconds, blocks = self.set_up_once()
            times.append(seconds)
            for (prec, p), local in blocks.items():
                if prec not in self.reference:
                    self.reference[prec] = np.vstack(local)
                ref = self.reference[prec]
                offsets = np.cumsum([0] + [len(b) for b in local])
                self._tally(
                    offsets[-1] == len(ref)
                    and all(np.array_equal(b, ref[o : o + len(b)]) for b, o in zip(local, offsets))
                    and np.isfinite(ref).all(),
                    f"generate_random {prec} p={p}",
                )
            del blocks, local
        for prec, p in setup_plan(self.workload):
            ref = self.reference[prec]
            self.blocks[(prec, p)] = [
                ref[o : o + c] for o, c in
                (ts.block_range(len(ref), p, r) for r in range(p))
            ]
        self.oracle = {prec: oracle_sigma(full) for prec, full in self.reference.items()}
        if self.workload == "wide":
            full = self.reference["f64"]
            self.means = full.mean(axis=0)
            self.abs_means = np.abs(full).mean(axis=0)
            self.centered_oracle = oracle_sigma(full - self.means)
        return times

    # -- cells ---------------------------------------------------------------

    def run_cell(self, cell, tracer=None):
        """Run one op; returns its wall time. Correctness is tallied."""
        if cell.kind.startswith("cli"):
            return self._cli_cell(cell, tracer)
        blocks = self.blocks[(cell.prec, cell.p)]
        offsets = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        target = _sigma_target if cell.kind == "sigma" else _pca_target
        start = time.perf_counter()
        out = _run_ranks(cell.p, target, blocks, offsets, self.m, cell.route, self.params)
        seconds = time.perf_counter() - start
        if cell.kind == "sigma":
            dtype = ts.bench.PRECISIONS[cell.prec]
            ok = out is not None and all(np.array_equal(s, out[0]) for s in out) and sigma_ok(
                cell.route, out[0], self.oracle[cell.prec], self.m, dtype, RSVD_K
            )
        else:
            ok = out is not None and self._pca_ok(cell.route, out)
        self._tally(ok, cell.label)
        return seconds

    def _pca_ok(self, route, results):
        m, oracle = self.m, self.centered_oracle
        first = results[0]
        ncomp = RSVD_K if route == "rsvd" else self.n
        sigma = first.sdev.astype(np.float64) * np.sqrt(m - 1)
        norms = np.sqrt(sum(
            np.sum(r.scores.local.astype(np.float64) ** 2, axis=0) for r in results
        ))
        return (
            first.rotation.shape == (self.n, ncomp)
            and all(r.scores.local.shape == (len(b), ncomp)
                    for r, b in zip(results, self.blocks[("f64", 2)]))
            and sigma_ok(route, sigma, oracle, m, np.float64, RSVD_K)
            and means_ok(first.means, self.means, self.abs_means, m, np.float64)
            and score_norms_ok(route, norms, sigma, oracle, m, np.float64, RSVD_K)
        )

    def _cli_cell(self, cell, tracer):
        cmd = [sys.executable]
        if tracer is not None:
            trace_out = Path(self.path).with_name("cli-trace.json")
            trace_out.unlink(missing_ok=True)
            cmd += [str(HERE / "traced_cli.py"), str(trace_out)]
        else:
            cmd += ["-m", "tallskinny"]
        cmd += [
            "run", "--algo", cell.route, "--rows", str(self.m), "--cols", str(self.n),
            "--precision", cell.prec, "--ranks", str(cell.p), "--reps", str(CLI_REPS),
            "--k", str(RSVD_K), "--q", str(RSVD_Q), "--seed", str(self.seed),
        ]
        if cell.kind == "cli-file":
            cmd += ["--input", self.path]
        env = {k: v for k, v in os.environ.items() if k != "SVDBENCH_SEED"}
        env["PYTHONPATH"] = str(SRC)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        seconds = time.perf_counter() - start
        ok = proc is not None and proc.returncode == 0 and self._csv_ok(cell, proc.stdout)
        if proc is not None and proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
        self._tally(ok, cell.label)
        if tracer is not None:
            tracer.add("cli", 1, seconds, rank=0)
            if ok:
                merge(tracer.totals, json.loads(trace_out.read_text()))
        return seconds

    def _csv_ok(self, cell, text):
        """Every CSV row names this config and has a sigma_sum inside its bound."""
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        expected = [cell.route, cell.prec, str(self.m), str(self.n), str(cell.p)]
        try:
            sums = [float(row[9]) for row in rows if len(row) == 10 and row[:5] == expected]
        except ValueError:
            return False
        return len(sums) == len(rows) == CLI_REPS and all(
            sigma_sum_ok(cell.route, total, self.oracle["f64"], self.m, np.float64, RSVD_K)
            for total in sums
        )


def _run_ranks(p, target, *args):
    """run_ranks at the library boundary: a failure fails the op, not the run."""
    try:
        return ts.run_ranks(p, target, *args)
    except Exception:  # noqa: BLE001 - any library failure fails the op
        traceback.print_exc(file=sys.stderr)
        return None


def _route(route, a, params):
    if route == "cpsvd":
        return ts.svd_normal_equations(a)
    if route == "tssvd":
        return ts.svd_tsqr(a)
    return ts.svd_randomized(a, params)


def _dist(comm, blocks, offsets, m):
    return ts.DistMatrix(blocks[comm.rank], m, offsets[comm.rank], comm)


def _sigma_target(comm, blocks, offsets, m, route, params):
    a = _dist(comm, blocks, offsets, m)
    comm.barrier()
    return _route(route, a, params).sigma


def _pca_target(comm, blocks, offsets, m, route, params):
    a = _dist(comm, blocks, offsets, m)
    comm.barrier()
    return ts.pca(a, method=route, want_scores=True,
                  params=params if route == "rsvd" else None)


# -- measurement ---------------------------------------------------------------


def run_pass(bench, index, tracer=None):
    """One pass over the op mix; returns its wall time."""
    start = time.perf_counter()
    for cell in pass_cells(bench.workload, index):
        seconds = bench.run_cell(cell, tracer)
        if tracer is None:
            bench.timings.setdefault(cell, []).append(seconds)
    return time.perf_counter() - start


def route_metrics(timings):
    """Per-route time and speedup_p2 from the per-cell median times.

    Medians are taken per cell before summing: the small p=2 cells are
    bimodal (GIL hand-offs between the two rank threads), and a per-pass
    sum would carry that into every route total.
    """
    med = {cell: statistics.median(v) for cell, v in timings.items()}
    values = {f"{route}_s": sum(t for c, t in med.items() if c.route == route)
              for route in ts.bench.ALGOS}
    by_p = {p: sum(t for c, t in med.items() if c.p == p and c.kind in PAIRED)
            for p in (1, 2)}
    values["speedup_p2"] = by_p[1] / by_p[2]
    return values


def timing_summary(values):
    """Sample count, median, and the highest listed percentile with >= 10
    samples beyond it (None when there are too few samples).

    Percentiles are in tenths of a percent so that the index arithmetic
    stays in integers: the value at percentile q is the sample at index
    ceil(q (n - 1)), as numpy's method="higher" picks it.
    """
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for permille in (999, 990, 900, 500):
        index = -(-permille * (n - 1) // 1000)
        if n - 1 - index >= 10:
            tail = {"percentile": permille / 10, "seconds": ordered[index]}
            break
    return {"n": n, "median_s": statistics.median(ordered), "tail": tail}


def reset_peak_rss():
    """Start this process's peak-RSS count afresh from its current RSS.

    Called after set-up, so that peak_rss_mb covers the passes and not the
    generated copies that set-up checks and frees. Returns False where the
    kernel offers no reset (no /proc/self/clear_refs); the peak then also
    covers set-up, and the detail line records that.
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb():
    """The larger of this process's peak RSS and its children's, in MB.

    The CLI children run only in passes. This process's peak is VmHWM,
    which reset_peak_rss() restarts; ru_maxrss is the fallback.
    """
    status = _read("/proc/self/status") or ""
    hwm = [int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")]
    own = hwm[0] if hwm else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


def run_workload(workload, seed, seconds, trace, sizes=FULL):
    """Run one workload; returns (detail, result) dictionaries."""
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        bench = Bench(workload, seed, sizes, workdir)
        setup_tracer = Tracer() if trace else None
        if setup_tracer is not None:
            with setup_tracer.installed():
                setup_times = bench.set_up(1)
        else:
            setup_times = bench.set_up(SETUP_REPEATS)
        rss_reset = reset_peak_rss()

        plain, traced = [], []
        pass_tracer = Tracer() if trace else None
        start = time.perf_counter()
        index = 0
        while True:
            if trace and index % 2 == 1:
                with pass_tracer.installed():
                    traced.append(run_pass(bench, index, pass_tracer))
            else:
                plain.append(run_pass(bench, index))
            index += 1
            if time.perf_counter() - start >= seconds and (traced or not trace):
                break

    if trace:
        totals = merge({}, setup_tracer.totals)
        merge(totals, pass_tracer.totals, scale=1.0 / len(traced))
        values = {m["name"]: layer_value(totals, m["name"]) for m in spec["per_layer"]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(plain),
            **route_metrics(bench.timings),
            "ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "shape": [bench.m, bench.n],
        "setup_s": setup_times,
        "peak_rss_scope": "passes" if rss_reset else "process",
        "passes": {"untraced": plain, "traced": traced},
        "ops": {cell.label: timing_summary(v) for cell, v in bench.timings.items()},
        "environment": environment(),
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    return detail, result


# -- environment -----------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree.

    GIT_CEILING_DIRECTORIES stops git from taking up a repository that
    merely encloses the checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    """Versions, BLAS, thread settings and CPU, recorded next to every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "launcher_env": LAUNCH_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_commit": _git_commit(),
    }


# -- entry point -------------------------------------------------------------------


def import_package():
    """Import tallskinny from the checkout's src/; False when it is absent."""
    global ts
    if not (SRC / "tallskinny" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import tallskinny
    import tallskinny.bench  # noqa: F401 - ALGOS and PRECISIONS

    ts = tallskinny
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_package():
        print(f"perfbench: no tallskinny package under {SRC}", file=sys.stderr)
        return 2
    detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
