"""1-d row-block distributed matrices.

A DistMatrix is a contiguous block of global rows per rank, in rank order.
Row counts are balanced: the first (m mod p) ranks get one extra row, so
the layout is a pure function of (m, p). Random generation splits the
global rows into fixed blocks of ROW_BLOCK rows and draws each block from
its own SFC64 stream, seeded through a SeedSequence by one integer that
packs (seed, block index, domain) into separate fields, so no two triples
share a stream. That makes the assembled matrix bitwise independent of the
rank count. For the same reason a range's blocks may be drawn on several
threads: each block's bits depend only on its key, not on which thread
draws it or when, and each thread writes only its blocks' rows of the
result, so the result is bitwise the same for every thread count.
numpy.random itself is imported at the first draw, not with the module:
`import tallskinny` and a run that reads its matrix from a file never
load it.

The two multiply patterns: distributed times replicated stays local and
distributed-transpose times distributed is a local product plus one
sum-allreduce. mult_and_transpose fuses the two for one replicated b:
Y = A b and A^T Y from a single cache-blocked read of the local rows.
Each of the three is one loop over row chunks, shifted or not.

crossprod is the replicated Gram: of A, or of A times a replicated right
factor, one dense.gram and one sum-allreduce either way. It serves both
Gram passes of svd.qr_allreduce's Cholesky QR2, A^T A and then
(A R1^-1)^T (A R1^-1), and the A^T A that cpsvd, and tssvd in its
one-pass band, eigendecompose.

A centered matrix is implicit. mean_center_columns returns a DistMatrix
whose `shift` is the n-vector of its block's column means: the matrix is
block - shift, and no m x n centered copy exists. The kernels here
(crossprod, mult_local, mult_transpose on either argument,
mult_and_transpose) read a block, shifted or not, in row chunks through
dense.row_chunks, each centered into one reused buffer, and so does
qr_allreduce's Householder band. The only other read of a whole block
is mean_center_columns' column sums, taken in float64, which allocate n
plus numpy's fixed casting buffer (np.getbufsize() values). No code in
the package reads `local`; it serves callers outside the package, the
tests and perfbench.
"""

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matfile
from .comm import Communicator, core_share
from .dense import (
    ShapeError,
    UnsupportedDtype,
    UnsupportedShape,
    as_matrix,
    chunk_rows,
    gram,
    row_chunks,
)

# Stream domains keep data matrices and projection matrices decorrelated
# even when a caller reuses one seed for both.
STREAM_DATA = 0
STREAM_PROJECTION = 1

DISTRIBUTIONS = ("standard-normal", "uniform01")

# Rows per random stream. Part of the data definition: changing it changes
# every generated matrix.
ROW_BLOCK = 4096


@dataclass
class DistMatrix:
    """One rank's row block plus the global layout metadata.

    The rank's rows of the matrix are block - shift when shift (an n-vector
    of the block's dtype) is set, and block otherwise. The block must be a
    2-d float32 or float64 array: an integer Gram would wrap around, and
    numpy.linalg factors no float16. Any other block raises
    UnsupportedDtype (or ShapeError when it is not 2-d) on the rank that
    builds it, and so does a shift that is not an n-vector (ShapeError)
    or not of the block's dtype (UnsupportedDtype). The checks read shapes
    and dtypes only, never values.
    """

    block: np.ndarray
    global_rows: int
    row_offset: int
    comm: Communicator
    shift: Optional[np.ndarray] = None

    def __post_init__(self):
        ndim = np.ndim(self.block)
        if ndim != 2:
            raise ShapeError(f"a DistMatrix block must be 2-d, got ndim={ndim}")
        dtype = getattr(self.block, "dtype", None)
        if dtype not in (np.float32, np.float64):
            raise UnsupportedDtype(f"a DistMatrix block must be float32 or float64, got {dtype}")
        if self.shift is None:
            return
        shape = np.shape(self.shift)
        if shape != (self.cols,):
            raise ShapeError(f"a DistMatrix shift must have shape ({self.cols},), got {shape}")
        shift_dtype = getattr(self.shift, "dtype", None)
        if shift_dtype != dtype:
            raise UnsupportedDtype(f"a DistMatrix shift must be {dtype}, got {shift_dtype}")

    @property
    def local(self):
        """The rank's rows of the matrix; a new block - shift when shifted."""
        return self.block if self.shift is None else self.block - self.shift

    @property
    def cols(self):
        return self.block.shape[1]

    @property
    def dtype(self):
        return self.block.dtype

    def same_distribution(self, other):
        return (
            self.global_rows == other.global_rows
            and self.row_offset == other.row_offset
            and self.block.shape[0] == other.block.shape[0]
            and self.comm is other.comm
        )


def block_rows(m, size):
    """Balanced contiguous partition: extras go to the lowest ranks."""
    base, extra = divmod(m, size)
    return [base + 1 if r < extra else base for r in range(size)]


def block_range(m, size, rank):
    """(row_offset, row_count) of `rank` under the balanced partition."""
    if not 0 <= rank < size:
        raise ValueError(f"rank must be in 0..{size - 1}, got {rank!r}")
    counts = block_rows(m, size)
    return sum(counts[:rank]), counts[rank]


def _block_stream(seed, block, domain):
    """The SFC64 stream of one ROW_BLOCK.

    Its SeedSequence key packs three fields, lowest first: the domain in
    one bit, the block index in 64, and above them the seed, zigzag-encoded
    (2s for s >= 0, -2s - 1 for s < 0) so that every integer seed, of any
    size or sign, has a field value of its own.
    """
    # Imported at the first draw: a run that reads its matrix and draws
    # nothing never pays numpy.random's import.
    from numpy.random import SFC64, Generator, SeedSequence

    seed = int(seed)
    zigzag = 2 * seed if seed >= 0 else -2 * seed - 1
    key = zigzag << 65 | int(block) << 1 | int(domain)
    return Generator(SFC64(SeedSequence(key)))


def random_rows(seed, row_start, row_count, n, dist, dtype, domain=STREAM_DATA,
                threads=None):
    """Rows [row_start, row_start + row_count) of the global random matrix.

    Each ROW_BLOCK the range touches is drawn from its own SFC64 stream,
    keyed on the exact (seed, block index, domain), straight into its rows
    of the result: seeds that differ by 2**64, or in sign, draw different
    rows, and the data and projection domains of one seed never share a
    stream. A stream is sequential, so a block first draws and drops its
    rows before the range (none when the range starts on the block's first
    row); numpy carries a half-used 32-bit word from one fill to the next,
    so the two fills give the bits of one. The blocks are drawn on up to
    `threads` threads (default: comm.core_share(1), the whole machine);
    numpy's generator fills release the GIL, so they overlap. A one-block
    range starts no thread. The result is bitwise the same for every
    thread count. A seed that is not an integer, or a row_start, row_count
    or n that is not a nonnegative integer, raises ValueError (numpy
    integers count), as do a domain other than STREAM_DATA and
    STREAM_PROJECTION and a range that ends past ROW_BLOCK * 2**64 rows,
    the reach of the key's block field.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}; expected {DISTRIBUTIONS}")
    if not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    for name, value in (("row_start", row_start), ("row_count", row_count), ("n", n)):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if domain not in (STREAM_DATA, STREAM_PROJECTION):
        raise ValueError(f"domain must be STREAM_DATA or STREAM_PROJECTION, got {domain!r}")
    stop = row_start + row_count
    if stop > ROW_BLOCK << 64:
        raise ValueError(f"rows past ROW_BLOCK * 2**64 have no stream, got stop={stop}")
    dtype = np.dtype(dtype)
    out = np.empty((row_count, n), dtype=dtype)
    blocks = range(row_start // ROW_BLOCK, -(-stop // ROW_BLOCK))

    def draw(block):
        start = block * ROW_BLOCK
        first, last = max(row_start, start), min(stop, start + ROW_BLOCK)
        gen = _block_stream(seed, block, domain)
        fill = gen.standard_normal if dist == "standard-normal" else gen.random
        fill((first - start, n), dtype=dtype)  # the block's rows before the range
        fill(dtype=dtype, out=out[first - row_start : last - row_start])

    workers = min(len(blocks), core_share(1) if threads is None else threads)
    if workers <= 1:
        for block in blocks:
            draw(block)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(draw, blocks))  # re-raises a block's exception
    return out


def generate_random(comm, m, n, dist="standard-normal", seed=0, dtype=np.float64):
    """Distributed m x n random matrix, reproducible across rank counts.

    Each rank draws its rows on its share of the cores, comm.core_share.
    """
    if not (isinstance(m, numbers.Integral) and isinstance(n, numbers.Integral)
            and m >= n >= 1):
        raise UnsupportedShape(f"generate_random needs integers m >= n >= 1, got {m}x{n}")
    offset, count = block_range(m, comm.size, comm.rank)
    local = random_rows(seed, offset, count, n, dist, dtype,
                        threads=core_share(comm.size))
    return DistMatrix(local, m, offset, comm)


def distribute(comm, full):
    """Split a replicated full matrix by the balanced partition rule.

    The local block is a view of `full`, not a copy: the ranks of a group
    share memory, and no operation here writes to a matrix's local block.
    """
    full = as_matrix(full, "full")
    offset, count = block_range(full.shape[0], comm.size, comm.rank)
    return DistMatrix(full[offset : offset + count], full.shape[0], offset, comm)


def read_distributed(comm, path):
    """Read a TSKM matrix file, split by the balanced partition rule."""
    m, n, _ = matfile.read_header(path)
    offset, count = block_range(m, comm.size, comm.rank)
    return DistMatrix(matfile.read_rows(path, offset, count), m, offset, comm)


def _factor(who, a, b):
    """b as a matrix, checked to have a's column count and precision."""
    b = as_matrix(b, "b")
    if a.cols != b.shape[0]:
        raise ShapeError(f"{who}: a has {a.cols} cols but b is {b.shape[0]}x{b.shape[1]}")
    if a.dtype != b.dtype:
        raise ShapeError(
            f"{who} operands must share precision, got {a.dtype} and {b.dtype}"
        )
    return b


def crossprod(a, right=None):
    """Replicated A^T A, or (A right)^T (A right) for a replicated right
    factor of n rows and a's precision; exactly symmetric (see dense.gram).
    """
    if right is not None:
        right = _factor("crossprod", a, right)
    return a.comm.allreduce_sum(gram(a.block, a.shift, right))


def mult_local(a, b):
    """Distributed product A @ b for replicated b; no communication.

    One pass over row chunks, as in mult_and_transpose, writing each
    chunk's product into the result.
    """
    b = _factor("mult_local", a, b)
    out = np.empty((a.block.shape[0], b.shape[1]), a.dtype)
    for start, a_c in row_chunks(a.block, chunk_rows(a.block, b.shape[1]), a.shift):
        np.matmul(a_c, b, out=out[start : start + a_c.shape[0]])
    return DistMatrix(out, a.global_rows, a.row_offset, a.comm)


def mult_transpose(a, y):
    """Replicated A^T Y for distributed a and y on the same layout.

    Both are walked in the same row chunks, sized by chunk_rows for the
    wider of the two; either may be shifted.
    """
    if not a.same_distribution(y) or a.dtype != y.dtype:
        raise ShapeError(
            "mult_transpose requires matching row distribution and precision: "
            f"a has m={a.global_rows}, offset={a.row_offset}, "
            f"local={a.block.shape[0]}, {a.dtype}; y has m={y.global_rows}, "
            f"offset={y.row_offset}, local={y.block.shape[0]}, {y.dtype}"
        )
    chunk = min(chunk_rows(a.block, y.cols), chunk_rows(y.block, a.cols))
    out = np.zeros((a.cols, y.cols), a.dtype)
    for (_, a_c), (_, y_c) in zip(
        row_chunks(a.block, chunk, a.shift), row_chunks(y.block, chunk, y.shift)
    ):
        out += a_c.T @ y_c
    return a.comm.allreduce_sum(out)


def mult_and_transpose(a, b):
    """Distributed Y = A @ b and replicated W = A^T Y, reading A once.

    The local rows are walked in chunks of dense.chunk_rows(a.block,
    b.cols) rows, centered by dense.row_chunks when a is shifted: each
    chunk's Y_c = A_c b is written into Y, and A_c^T Y_c is added into W
    while A_c is still in cache. One
    sum-allreduce of the n x b.cols W follows. Y is bitwise
    mult_local(a, b), and W is mult_transpose(a, Y) up to the order of the
    sums.
    """
    b = _factor("mult_and_transpose", a, b)
    y = np.empty((a.block.shape[0], b.shape[1]), dtype=a.dtype)
    w = np.zeros((a.cols, b.shape[1]), dtype=a.dtype)
    for start, a_c in row_chunks(a.block, chunk_rows(a.block, b.shape[1]), a.shift):
        y_c = y[start : start + a_c.shape[0]]
        np.matmul(a_c, b, out=y_c)
        w += a_c.T @ y_c
    y = DistMatrix(y, a.global_rows, a.row_offset, a.comm)
    return y, a.comm.allreduce_sum(w)


def mean_center_columns(a):
    """Subtract global column means; returns (centered, means).

    The means take one allreduce of the block's column sums, which are
    summed in float64 at any precision and cast to the block's dtype once
    divided by the row count. The centered matrix shares a's block and
    carries the block's column means as its shift, so nothing m x n is
    allocated. For a shifted a, a - mean(a) = block - mean(block), and the
    means are mean(block) - shift.
    """
    if a.global_rows < 1:
        raise UnsupportedShape("mean_center_columns needs at least one row")
    block_sums = a.block.sum(axis=0, keepdims=True, dtype=np.float64)
    block_means = (a.comm.allreduce_sum(block_sums)[0] / a.global_rows).astype(a.dtype)
    means = block_means if a.shift is None else block_means - a.shift
    return DistMatrix(a.block, a.global_rows, a.row_offset, a.comm, block_means), means
