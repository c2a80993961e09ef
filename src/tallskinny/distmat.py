"""1-d row-block distributed matrices.

A DistMatrix is a contiguous block of global rows per rank, in rank order.
Row counts are balanced: the first (m mod p) ranks get one extra row, so
the layout is a pure function of (m, p). Random generation draws every
global row from its own counter-based stream keyed on (seed, row index),
which makes the assembled matrix bitwise independent of the rank count.

The two multiply patterns: distributed times replicated stays local and
distributed-transpose times distributed is a local product plus one
sum-allreduce.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import matfile
from .comm import Communicator
from .dense import ShapeError, UnsupportedShape, as_matrix, gemm

# Stream domains keep data matrices and projection matrices decorrelated
# even when a caller reuses one seed for both.
STREAM_DATA = 0
STREAM_PROJECTION = 1

DISTRIBUTIONS = ("standard-normal", "uniform01")


@dataclass
class DistMatrix:
    """One rank's row block plus the global layout metadata."""

    local: np.ndarray
    global_rows: int
    row_offset: int
    comm: Communicator

    @property
    def cols(self):
        return self.local.shape[1]

    @property
    def dtype(self):
        return self.local.dtype

    def same_distribution(self, other):
        return (
            self.global_rows == other.global_rows
            and self.row_offset == other.row_offset
            and self.local.shape[0] == other.local.shape[0]
            and self.comm is other.comm
        )


def block_rows(m, size):
    """Balanced contiguous partition: extras go to the lowest ranks."""
    base, extra = divmod(m, size)
    return [base + 1 if r < extra else base for r in range(size)]


def block_range(m, size, rank):
    """(row_offset, row_count) of `rank` under the balanced partition."""
    counts = block_rows(m, size)
    return sum(counts[:rank]), counts[rank]


def _row_stream(seed, row, domain):
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | (int(row) & 0xFFFFFFFFFFFFFFFF)
    counter = np.array([0, 0, domain, 0], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def random_rows(seed, row_start, row_count, n, dist, dtype, domain=STREAM_DATA):
    """Rows [row_start, row_start + row_count) of the global random matrix."""
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}; expected {DISTRIBUTIONS}")
    dtype = np.dtype(dtype)
    out = np.empty((row_count, n), dtype=dtype)
    for i in range(row_count):
        gen = _row_stream(seed, row_start + i, domain)
        if dist == "standard-normal":
            out[i] = gen.standard_normal(n, dtype=dtype)
        else:
            out[i] = gen.random(n, dtype=dtype)
    return out


def generate_random(comm, m, n, dist="standard-normal", seed=0, dtype=np.float64):
    """Distributed m x n random matrix, reproducible across rank counts."""
    if m < n or n < 1:
        raise UnsupportedShape(f"generate_random needs m >= n >= 1, got {m}x{n}")
    offset, count = block_range(m, comm.size, comm.rank)
    local = random_rows(seed, offset, count, n, dist, dtype)
    return DistMatrix(local, m, offset, comm)


def distribute(comm, full):
    """Split a replicated full matrix by the balanced partition rule."""
    full = as_matrix(full, "full")
    offset, count = block_range(full.shape[0], comm.size, comm.rank)
    return DistMatrix(full[offset : offset + count].copy(), full.shape[0], offset, comm)


def read_distributed(comm, path):
    """Read a TSKM matrix file, split by the balanced partition rule."""
    m, n, _ = matfile.read_header(path)
    offset, count = block_range(m, comm.size, comm.rank)
    return DistMatrix(matfile.read_rows(path, offset, count), m, offset, comm)


def crossprod(a):
    """Replicated N = A^T A, symmetrized by averaging with its transpose."""
    n_local = gemm(True, a.local, a.local)
    n_full = a.comm.allreduce_sum(n_local)
    return (n_full + n_full.T) * n_full.dtype.type(0.5)


def mult_local(a, b):
    """Distributed product A @ b for replicated b; no communication."""
    b = as_matrix(b, "b")
    if a.cols != b.shape[0]:
        raise ShapeError(
            f"mult_local: a has {a.cols} cols but b is {b.shape[0]}x{b.shape[1]}"
        )
    return DistMatrix(a.local @ b, a.global_rows, a.row_offset, a.comm)


def mult_transpose(a, y):
    """Replicated A^T Y for distributed a and y on the same layout."""
    if not a.same_distribution(y):
        raise ShapeError(
            "mult_transpose requires matching row distribution: "
            f"a has m={a.global_rows}, offset={a.row_offset}, "
            f"local={a.local.shape[0]}; y has m={y.global_rows}, "
            f"offset={y.row_offset}, local={y.local.shape[0]}"
        )
    return a.comm.allreduce_sum(gemm(True, a.local, y.local))


def mean_center_columns(a):
    """Subtract global column means; returns (centered, means)."""
    if a.global_rows < 1:
        raise UnsupportedShape("mean_center_columns needs at least one row")
    local_sums = a.local.sum(axis=0, keepdims=True)
    means = a.comm.allreduce_sum(local_sums) / a.dtype.type(a.global_rows)
    centered = a.local - means
    return DistMatrix(centered, a.global_rows, a.row_offset, a.comm), means[0]


def gather(a):
    """Assemble the full matrix on every rank (desk-scale oracles and I/O).

    One sum-allreduce of row-placed blocks. Each rank pads the rows it
    does not own with -0.0, because x + (-0.0) is bitwise x for every x,
    signed zeros, Inf and NaN included; a +0.0 pad would turn -0.0 into
    +0.0. An extra ownership column counts how often each row is placed,
    and a block that does not fit `global_rows` places nothing, so every
    rank raises unless the blocks tile the rows exactly once.
    """
    m, n = a.global_rows, a.cols
    start, stop = a.row_offset, a.row_offset + a.local.shape[0]
    placed = np.full((m, n + 1), -0.0, dtype=a.dtype)
    if 0 <= start and stop <= m:
        placed[start:stop, :n] = a.local
        placed[start:stop, n] = 1
    full = a.comm.allreduce_sum(placed)
    if np.any(full[:, n] != 1):
        raise ShapeError(
            f"gather: the row blocks do not tile the {m} global rows exactly once"
        )
    return np.ascontiguousarray(full[:, :n])
