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
two rank threads calling it run one after the other. tall_R, the local R
factor of a rank's block, is therefore a Cholesky QR of GEMMs and n x n
factorizations, in three bands of the first factor's condition number:
one pass where it already meets the error bound of two, Cholesky QR2
above that, and qr_R (Householder), the reference, as the fallback. One
test decides the one-pass band: the exact kappa_2 of the first factor,
from one eigvalsh of the n x n Gram.

Passes that read a block against a small replicated factor walk its rows
in chunks of chunk_rows(block, factor columns) through row_chunks: gram
(the block against itself) and tall_R's second pass here, and every
multiply in distmat. A chunk is reused while it is still in cache, and
nothing the height of the block is allocated beyond the pass's output. A
block with a shift (an n-vector, the column means of a centered matrix)
stands for block - shift: row_chunks subtracts the shift from each chunk
into one reused buffer, so gram and tall_R factor the centered block
without a centered copy of it. Shifted or not, every pass runs the same
loop.
"""

import numpy as np


class ShapeError(ValueError):
    """Input dimensions violate an operation's contract."""


class UnsupportedShape(ShapeError):
    """Shape is valid in general but outside the tall/skinny scope."""


class UnsupportedDtype(TypeError):
    """Complex input: the routes factor real matrices only."""


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
# while the chunk fits in L2 (tall_R at 1e5 x 50 float64 took 56-62 ms in
# 256 KiB chunks against 72-78 ms with a whole Q1). Against rsvd's n x 2k
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


def gram(a, shift=None):
    """(a - shift)^T (a - shift), or a^T a, summed over row chunks.

    Each chunk's product is a symmetric rank-k update, so the sum is
    exactly symmetric.
    """
    g = np.zeros((a.shape[1], a.shape[1]), dtype=a.dtype)
    for _, a_c in row_chunks(a, chunk_rows(a, a.shape[1]), shift):
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


# Largest orthogonality defect ||G2 - I||_F that tall_R accepts from the
# first CholQR pass, where G2 = Q1^T Q1. The Frobenius norm bounds the
# 2-norm, so below the bound every eigenvalue of G2 (the square of a
# singular value of Q1) lies in [1/2, 3/2], and kappa(Q1)^2 <= 3. The
# second pass is a Cholesky QR of Q1, whose errors grow like kappa(Q1)^2 u
# (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015); at most 3 times
# their value for an orthonormal Q1, which keeps CholQR2 within a small
# constant of Householder QR's backward error.
CHOLQR_MAX_DEFECT = 0.5
# Largest condition estimate ||R1||_F ||R1^-1||_F that tall_R accepts.
# Q1 = A R1^-1 is a GEMM against a computed inverse, not a backward-stable
# triangular solve: the GEMM's error |E| <= gamma_n |A| |R1^-1| and the
# inverse's residual R1^-1 R1 - I let the backward error of R = R2 R1 grow
# with kappa(R1) (Higham, ASNA, sec. 14.1). Rounding errors of random sign
# leave far less than that worst case. Over 26,000 draws (m <= 40n, n <= 8,
# kappa from 1e2 to 1e7), CholQR2 kept max|d sigma| <= 3.2 n (u + u64)
# sigma_1 wherever this estimate stayed below 1e4, inside svdbench
# verify's 6 n (u + u64) sigma_1. Above it the error grew with kappa, to
# 28 n (u + u64) sigma_1 at kappa = 1e7 in float64.
CHOLQR_MAX_COND = 1e4
# Largest 2-norm condition number of R1 = chol(A^T A)^T at which tall_R
# returns R1 after one Cholesky QR pass. In the rounding model of svdbench
# verify's gate (bench.verify_tolerance), forming the Gram and factoring
# it are n steps that each add at most lambda u ||A||^2, so
# R1^T R1 = A^T A + E with ||E|| <= lambda n u ||A||^2. By Weyl,
# sigma_i(R1)^2 moves by at most ||E||, so sigma_i by at most
# ||E|| / (2 sigma_min(A)) <= lambda n u sigma_1 kappa / 2. Across ranks
# A^T A = sum_r A_r^T A_r, and lambda_min is concave, so
# sigma_min(A)^2 >= sum_r sigma_min(A_r)^2: when every rank's kappa_r is
# at most tau, sum_r ||A_r||^2 <= tau^2 sigma_min(A)^2, and the summed
# errors move sigma_i by at most lambda n u (tau^2 / 2) sigma_1. tau =
# sqrt(2) holds that to lambda n u sigma_1, the first stage's share of the
# gate 2 lambda n u sigma_1, as CholQR2's two passes are credited with.
# Its loss of orthogonality, of order kappa^2 u, is then what the second
# pass would repair (Yamamoto et al., ETNA 2015), and the pass is skipped.
CHOLQR_ONE_PASS_MAX_COND = np.sqrt(2.0)


def tall_R(a, shift=None):
    """qr_R's factor of a - shift by one or two Cholesky QR passes, or qr_R.

    The first pass is R1 = chol(X^T X)^T on X = a - shift. Three bands of
    R1's condition number kappa_2 pick the rest. One test decides the
    first: the eigenvalues of X^T X, from one eigvalsh, are the squares of
    R1's singular values, and where lambda_max is finite and at most
    CHOLQR_ONE_PASS_MAX_COND^2 lambda_min, R1 is the factor. Above it,
    Cholesky QR2 takes a second pass on Q1 = X R1^-1 and returns
    R = R2 R1. Q1 is never formed whole: the second pass walks a in chunks
    of chunk_rows(a, n) rows, multiplies each by the n x n inverse into
    one reused chunk buffer and adds the chunk's Q1_c^T Q1_c into G2 while
    it is still in cache. Beyond its input the kernel holds one chunk (two
    with a shift) and a few n x n arrays. Each step is a GEMM or an n x n
    LAPACK call, and all of them release the GIL. The last band falls back to
    Householder qr_R: a Cholesky factorization fails, R1's condition
    estimate exceeds CHOLQR_MAX_COND (then before the GEMM), or
    G2 = Q1^T Q1 is further from I than CHOLQR_MAX_DEFECT. Every test
    fails on NaN, and a non-finite entry anywhere in a reaches R1, so every
    non-finite intermediate falls back. The contracts are qr_R's: exact
    zeros below the diagonal and a nonnegative diagonal (here one positive
    Cholesky diagonal or the product of two). With a shift both Grams read
    a's chunks through row_chunks, and the fallback factors an explicit
    a - shift. A block of fewer rows than columns (a rank's, once ranks
    outnumber m / n) has a singular Gram: it gets qr_R of a - shift
    stacked on zero rows up to n x n, so R^T R = (a - shift)^T (a - shift)
    at any height.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        pad = ((0, a.shape[1] - a.shape[0]), (0, 0))
        return qr_R(np.pad(a if shift is None else a - shift, pad))
    r = _cholesky_qr(a, shift)
    if r is not None:
        return r
    return qr_R(a if shift is None else a - shift)


def _cholesky_qr(a, shift):
    """tall_R's one- or two-pass factor of a - shift, or None to fall back."""
    try:
        with np.errstate(all="ignore"):
            g1 = gram(a, shift)
            r1 = np.linalg.cholesky(g1).T
            lam = np.linalg.eigvalsh(g1)
            if lam[-1] <= CHOLQR_ONE_PASS_MAX_COND**2 * lam[0] < np.inf:
                return np.triu(r1)
            r1_inv = np.linalg.inv(r1)
            if not np.linalg.norm(r1) * np.linalg.norm(r1_inv) <= CHOLQR_MAX_COND:
                return None
            g2 = _gram_of_product(a, r1_inv, shift)
            r2 = np.linalg.cholesky(g2).T
            defect = np.linalg.norm(g2 - np.eye(a.shape[1], dtype=g2.dtype))
    except np.linalg.LinAlgError:
        return None
    if not defect <= CHOLQR_MAX_DEFECT:
        return None
    return np.triu(r2 @ r1)


def _gram_of_product(a, x, shift):
    """((a - shift) x)^T ((a - shift) x), summed over row chunks of a."""
    rows, cols = a.shape[0], x.shape[1]
    chunk = chunk_rows(a, cols)
    buf = np.empty((min(chunk, rows), cols), dtype=np.result_type(a, x))
    g = np.zeros((cols, cols), dtype=buf.dtype)
    for _, a_c in row_chunks(a, chunk, shift):
        q_c = buf[: a_c.shape[0]]
        np.matmul(a_c, x, out=q_c)
        g += q_c.T @ q_c
    return g


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
