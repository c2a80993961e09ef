"""Per-rank span tracer that wraps tallskinny's public functions from outside.

`Tracer.installed()` replaces each traced name where the consuming module
looks it up (`svd.qr_R`, `pca.mean_center_columns`, the collective methods
of `Communicator`, ...) and restores the originals on exit; the untraced
benchmark never patches anything. A span's self time is its duration minus
the time covered by its child spans on the same thread. Spans are
attributed to the rank whose thread runs them: the wrapped `run_ranks`
tags each rank thread before calling the target.

Two attribution rules keep layers apart:
* `qr_R` called inside `allreduce_custom` is the TSQR reduce combine and is
  recorded as `svd.reduce_combine`, not as the local `dense.qr_R`;
* a collective entered inside another (barrier's 1x1 allreduce) belongs to
  the outer one.
Flop and byte counts are computed from argument shapes, not measured.
"""

import contextlib
import functools
import importlib
import threading
import time

import numpy as np

CALLS, SELF_S, BYTES, FLOP = range(4)


def _qr_flop(args, result):
    m, n = np.shape(args[0])
    return 0, 2.0 * n * n * (m - n / 3.0)


def _payload_bytes(args, result):
    return np.asarray(args[1]).nbytes, 0


def _barrier_bytes(args, result):
    return 8, 0


def _result_bytes(args, result):
    return result.nbytes, 0


def _targets():
    """(owner, attribute, span name, work counter) for every traced name."""
    import tallskinny
    from tallskinny import bench, distmat, matfile, svd
    from tallskinny.comm import Communicator

    pca_mod = importlib.import_module("tallskinny.pca")
    return [
        (svd, "qr_R", "dense.qr_R", _qr_flop),
        (svd, "qr_Q", "dense.qr_Q", None),
        (svd, "small_svd", "dense.small_svd", None),
        (svd, "sym_eigen", "dense.sym_eigen", None),
        (svd, "solve_triangular_right", "dense.solve_triangular_right", None),
        (svd, "crossprod", "distmat.crossprod", None),
        (svd, "mult_local", "distmat.mult_local", None),
        (svd, "mult_transpose", "distmat.mult_transpose", None),
        (svd, "random_rows", "distmat.random_rows", None),
        (pca_mod, "mult_local", "distmat.mult_local", None),
        (pca_mod, "mean_center_columns", "distmat.mean_center_columns", None),
        (distmat, "random_rows", "distmat.random_rows", None),
        (tallskinny, "generate_random", "distmat.generate_random", None),
        (bench, "generate_random", "distmat.generate_random", None),
        (tallskinny, "pca", "pca.pca", None),
        (matfile, "read_rows", "matfile.read_rows", _result_bytes),
        (Communicator, "allreduce_sum", "comm.allreduce_sum", _payload_bytes),
        (Communicator, "allreduce_custom", "comm.allreduce_custom", _payload_bytes),
        (Communicator, "barrier", "comm.barrier", _barrier_bytes),
    ]


class Tracer:
    """Accumulates per-rank span totals: rank -> name -> [calls, self_s, bytes, flop]."""

    def __init__(self):
        self.totals = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, calls=0, seconds=0.0, nbytes=0, flop=0.0, rank=None):
        """Add to `name` on `rank` (default: the calling thread's rank)."""
        if rank is None:
            rank = getattr(self._local, "rank", 0)
        with self._lock:
            row = self.totals.setdefault(rank, {}).setdefault(name, [0, 0.0, 0, 0.0])
            row[CALLS] += calls
            row[SELF_S] += seconds
            row[BYTES] += nbytes
            row[FLOP] += flop

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else ""
            if name.startswith("comm.") and parent.startswith("comm."):
                return fn(*args, **kwargs)
            span = "svd.reduce_combine" if (
                name == "dense.qr_R" and parent == "comm.allreduce_custom"
            ) else name
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            nbytes, flop = work(args, result) if work else (0, 0.0)
            self.add(span, 1, elapsed - frame[1], nbytes, flop)
            return result

        return traced

    def wrap_run_ranks(self, run_ranks):
        """run_ranks whose rank threads are tagged and count collectives."""

        @functools.wraps(run_ranks)
        def traced(size, target, *args, **kwargs):
            def ranked(comm, *a, **k):
                self._local.rank = comm.rank
                try:
                    return target(comm, *a, **k)
                finally:
                    self.add("comm.collectives", comm.collective_count)

            return run_ranks(size, ranked, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        import tallskinny
        from tallskinny import bench

        saved = []
        try:
            for owner, attr, span, work in _targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(span, getattr(owner, attr), work))
            for owner in (tallskinny, bench):
                saved.append((owner, "run_ranks", owner.run_ranks))
                owner.run_ranks = self.wrap_run_ranks(owner.run_ranks)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def merge(into, totals, scale=1.0):
    """Add `totals` (rank -> name -> row) times `scale` into `into`."""
    for rank, spans in totals.items():
        dest = into.setdefault(int(rank), {})
        for name, row in spans.items():
            acc = dest.setdefault(name, [0, 0.0, 0, 0.0])
            for i, value in enumerate(row):
                acc[i] += value * scale
    return into


def _stat(row, stat):
    if stat in ("calls", "invocations"):
        return row[CALLS]
    if stat in ("self_s", "wait_s", "wall_s"):
        return row[SELF_S]
    if stat == "bytes":
        return row[BYTES]
    if stat == "gflop":
        return row[FLOP] / 1e9
    if stat == "mb_per_s":
        return row[BYTES] / row[SELF_S] / 1e6 if row[SELF_S] > 0 else 0.0
    raise ValueError(f"unknown stat {stat!r}")


def layer_value(totals, metric):
    """Max over ranks of one `<span>.<stat>` metric, or of a bare counter.

    A bare counter (`comm.collectives`) reads its calls field. A span
    absent on every rank reads 0.
    """
    span, _, stat = metric.rpartition(".")
    values = []
    for spans in totals.values():
        if metric in spans:
            values.append(spans[metric][CALLS])
        elif span in spans:
            values.append(_stat(spans[span], stat))
    return float(max(values, default=0.0))
