"""Local dense linear-algebra kernels.

Everything here is a pure function on 2-d numpy arrays (row-major, float32
or float64; the dtype selects the working precision). Matrix products go
through BLAS and factorizations through LAPACK, both via numpy. This module
adds the conventions the distributed layer relies on: a QR factor with a
nonnegative diagonal and exact zeros below it, eigenvalues and singular
values in descending order, and a deterministic sign for every vector.
None of these operations communicate; they are the building blocks the
distributed layer calls on local blocks.

Two properties of numpy.linalg shape the QR kernels. Every routine factors
float32 input in float64 (on a float64 copy, cast back at the end), so a
float32 Householder QR costs what a float64 one does. And np.linalg.qr
holds the GIL while it factors, unlike matmul, cholesky, inv and svd, so
two rank threads calling it run one after the other. That is why
svd.qr_allreduce, the distributed R, is built from Grams and n x n
factorizations wherever the input's condition allows, and qr_R
(Householder), the reference, is its fallback.

Passes that read a block against a small replicated factor walk its rows
in chunks of chunk_rows(block, factor columns) through row_chunks: gram,
the one Gram kernel, and every multiply in distmat. gram sums the Gram of
each chunk, or of the chunk's product with a right factor (R1^-1 in
Cholesky QR2's second pass). A chunk is reused while it is still in
cache, and nothing the height of the block is allocated beyond the
pass's output. A block with a shift (an n-vector, the column means of a
centered matrix) stands for block - shift: row_chunks subtracts the
shift from each chunk into one reused buffer, so every pass reads the
centered block without a centered copy of it. Shifted or not, every pass
runs the same loop.
"""

import numpy as np


class ShapeError(ValueError):
    """Input dimensions violate an operation's contract."""


class UnsupportedShape(ShapeError):
    """Shape is valid in general but outside the tall/skinny scope."""


class UnsupportedDtype(TypeError):
    """A dtype the routes do not factor.

    Complex input, which the routes factor as real matrices only, and any
    DistMatrix block that is not float32 or float64.
    """


class ConvergenceError(RuntimeError):
    """LAPACK could not factor the input (for example, it holds NaN or Inf)."""


class NonFiniteInput(ConvergenceError):
    """NaN or Inf in a computed value: from the input, or from an overflow."""


def require_finite(x, what):
    """Return x, or raise NonFiniteInput if any entry is NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} holds NaN or Inf: non-finite input or overflow")
    return x


def _lapack(routine, *args, **kwargs):
    """Call a numpy.linalg routine, raising its failure as ConvergenceError."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{routine.__name__}: {exc}") from exc


def as_matrix(a, name="a"):
    """Coerce to a 2-d float32/float64 array; other real dtypes go to float64.

    A complex array raises UnsupportedDtype rather than losing its
    imaginary part to the cast.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={a.ndim}")
    if a.dtype.kind == "c":
        raise UnsupportedDtype(f"{name} is complex ({a.dtype}); only real input is supported")
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return a


def _tall(a):
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise UnsupportedShape(
            f"qr expects rows >= cols (tall/skinny only), got {m}x{n}"
        )
    return a


# Bytes of a block's rows per chunk of a row-blocked pass. A chunk is read
# twice, or written and read back, and the second access hits the cache only
# while the chunk fits in L2 (Cholesky QR2 of a 1e5 x 50 float64 block took
# 56-62 ms in 256 KiB chunks against 72-78 ms with a whole Q1). Against rsvd's n x 2k
# factors a chunk costs two GEMMs of some 10 us each, so per-call overhead
# counts too. On a 2-core Xeon (2 MiB of L2 per core), one BLAS thread per
# rank, interleaved at 1e5 x 50 and 2e4 x 250, 512 KiB chunks made half the
# calls of 256 KiB ones: rsvd's time moved by -5% to +1% at one rank and
# fell 2-8% at two, pca(rsvd)'s fell up to 15% at two, and tssvd's moved
# within +-4%; 384 KiB tied with 512 within 1-3%. The gain is largest at two
# ranks, whose threads contend for each call's fixed overhead. 1 MiB lost
# 7-12% in float64 and 34% in float32 on rsvd. In float32 the cause is not
# L2 but OpenBLAS leaving its small-matrix kernel above M N K = 1e6: a
# c x 50 by 50 x 4 GEMM went from 8.8 to 19.6 ns a row in float32 (17.5 to
# 35.8 in float64) between c = 5000 and c = 5010, and a float32 1 MiB chunk
# of 50 columns is 5242 rows.
PASS_CHUNK_BYTES = 1 << 19
# Fewest rows per chunk, per column of the factor the chunk is multiplied
# by. Against an n x n factor each chunk's GEMM must be tall enough to run
# at full speed: at 2e4 x 250 float64, one BLAS thread, the byte rule's
# 262-row chunks in place of the floor's 1000 made tssvd 4% slower at one
# and two ranks, and pca with scores 6-7% slower by cpsvd or tssvd. A
# narrow factor (rsvd's n x 2k) never reaches this floor.
PASS_CHUNK_MIN_ROWS_PER_COL = 4


def chunk_rows(a, factor_cols):
    """Rows per chunk of a pass over a's rows against an n x factor_cols factor.

    PASS_CHUNK_BYTES of a, and at least PASS_CHUNK_MIN_ROWS_PER_COL *
    factor_cols rows.
    """
    row_bytes = max(1, a.shape[1] * a.itemsize)
    return max(1, PASS_CHUNK_BYTES // row_bytes,
               PASS_CHUNK_MIN_ROWS_PER_COL * factor_cols)


def row_chunks(a, chunk, shift=None):
    """Yield (start, rows) over a's rows, `chunk` rows at a time.

    Without a shift each chunk is a view of a. With one, each chunk is
    a[start : start + chunk] - shift, written into one buffer that the next
    chunk overwrites. Its entries are the same roundings fl(a_ij - shift_j)
    that an explicit a - shift holds, so a kernel fed these chunks computes
    on the centered values themselves, never on a rank-one correction.
    """
    rows = a.shape[0]
    buf = None if shift is None else np.empty((min(chunk, rows), a.shape[1]), a.dtype)
    for start in range(0, rows, chunk):
        a_c = a[start : start + chunk]
        if buf is not None:
            a_c = np.subtract(a_c, shift, out=buf[: a_c.shape[0]])
        yield start, a_c


def gram(a, shift=None, right=None):
    """(a - shift)^T (a - shift), or ((a - shift) right)^T ((a - shift) right)
    with a right factor, summed over row chunks of a; a itself without a
    shift.

    With `right`, each chunk's product is written into one reused buffer.
    Each chunk's term is a symmetric rank-k update, so the sum is exactly
    symmetric.
    """
    cols = a.shape[1] if right is None else right.shape[1]
    chunk = chunk_rows(a, cols)
    buf = None if right is None else np.empty((min(chunk, a.shape[0]), cols), a.dtype)
    g = np.zeros((cols, cols), dtype=a.dtype)
    for _, a_c in row_chunks(a, chunk, shift):
        if buf is not None:
            a_c = np.matmul(a_c, right, out=buf[: a_c.shape[0]])
        g += a_c.T @ a_c
    return g


def qr_R(a):
    """Upper-triangular R of a tall matrix, with nonnegative diagonal.

    Entries strictly below the diagonal are exactly zero, and the diagonal
    is exactly >= 0; the distributed QR reduction relies on both.
    """
    r = _lapack(np.linalg.qr, _tall(a), mode="r")
    r[np.diag(r) < 0] *= -1
    return np.triu(r)


def qr_Q(a):
    """Thin orthonormal factor Q (m x n) matching qr_R's sign convention."""
    q, r = _lapack(np.linalg.qr, _tall(a))
    q[:, np.diag(r) < 0] *= -1
    return q


def solve_triangular_right(y, r):
    """Solve X @ r = y for X with r upper triangular (returns y @ inv(r))."""
    y = as_matrix(y, "y")
    r = as_matrix(r, "r")
    n = r.shape[0]
    if r.shape[1] != n or y.shape[1] != n:
        raise ShapeError(
            f"triangular solve needs y (k x n) and square r, got {y.shape} "
            f"and {r.shape}"
        )
    x = np.array(y, copy=True)
    for j in range(n):
        if r[j, j] == 0:
            raise ShapeError("triangular factor is exactly singular")
        if j > 0:
            x[:, j] -= x[:, :j] @ r[:j, j]
        x[:, j] /= r[j, j]
    return x


def _fix_column_signs(v, *, follow=None):
    """Flip columns so each column's largest-magnitude entry is positive."""
    if v.size == 0:
        return
    idx = np.argmax(np.abs(v), axis=0)
    flip = v[idx, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1
    if follow is not None:
        follow[:, flip] *= -1


def sym_eigen(n_mat):
    """Eigenvalues (descending) and eigenvectors of a symmetric matrix.

    Returns (values, vectors) via LAPACK's eigh. NaN or Inf input raises
    NonFiniteInput. The input is symmetrized as a + (a^T - a) / 2, exact on
    symmetric input and free of overflow; inputs that are asymmetric beyond
    1e-8 * max|entry| are rejected. Equal eigenvalues keep LAPACK's order.
    Eigenvector columns are ordered to match and sign-fixed so each
    column's largest-magnitude component is positive.
    """
    a = require_finite(as_matrix(n_mat, "n_mat"), "sym_eigen input")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"sym_eigen expects a square matrix, got {a.shape}")
    scale = float(np.max(np.abs(a))) if n else 0.0
    if scale > 0 and float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ShapeError("sym_eigen input is not symmetric within 1e-8 * max|entry|")
    mat = a + (a.T - a) * a.dtype.type(0.5)
    values, vectors = _lapack(np.linalg.eigh, mat)
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    _fix_column_signs(vectors)
    return values[order], vectors


def small_svd(b):
    """Compact SVD of a small dense matrix via LAPACK's gesdd.

    Returns (sigma, u, vt) with sigma descending, length min(rows, cols).
    Each right singular vector is sign-fixed so its largest-magnitude
    component is positive, and the matching column of u follows; columns
    of u whose sigma is exactly 0 are zero.
    """
    b = as_matrix(b, "b")
    if min(b.shape) < 1:
        raise ShapeError(f"small_svd needs min(rows, cols) >= 1, got {b.shape}")
    u, sigma, vt = _lapack(np.linalg.svd, b, full_matrices=False)
    _fix_column_signs(vt.T, follow=u)
    u[:, sigma == 0] = 0
    return sigma, u, vt
