"""Local dense linear-algebra kernels.

Everything here is a pure function on 2-d numpy arrays (row-major, float32
or float64; the dtype selects the working precision). Matrix products go
through BLAS and factorizations through LAPACK, both via numpy. This module
adds the conventions the distributed layer relies on: a QR factor with a
nonnegative diagonal and exact zeros below it, eigenvalues and singular
values in descending order, and a deterministic sign for every vector.
None of these operations communicate; they are the building blocks the
distributed layer calls on local blocks.
"""

import numpy as np


class ShapeError(ValueError):
    """Input dimensions violate an operation's contract."""


class UnsupportedShape(ShapeError):
    """Shape is valid in general but outside the tall/skinny scope."""


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
    """Coerce to a 2-d float32/float64 array; other dtypes go to float64."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={a.ndim}")
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return a


def gemm(transpose_a, a, b):
    """Compute op(a) @ b, where op is transpose when requested."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.dtype != b.dtype:
        raise ShapeError(
            f"gemm operands must share precision, got {a.dtype} and {b.dtype}"
        )
    op_a = a.T if transpose_a else a
    if op_a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"gemm inner dimensions do not conform: op(a) is {op_a.shape}, "
            f"b is {b.shape}"
        )
    return op_a @ b


def _tall(a):
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise UnsupportedShape(
            f"qr expects rows >= cols (tall/skinny only), got {m}x{n}"
        )
    return a


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


def sym_eigen(n_mat, want_vectors=False):
    """Eigenvalues (descending) of a symmetric matrix via LAPACK's eigh.

    The input is symmetrized by averaging before solving; inputs that are
    asymmetric beyond 1e-8 * max|entry| are rejected. Equal eigenvalues keep
    LAPACK's order. Eigenvector columns, when requested, are ordered to
    match and sign-fixed so each column's largest-magnitude component is
    positive. The eigenvectors are always computed, even when not
    requested, so the values do not depend on `want_vectors`: eigvalsh and
    eigh can differ in the last bits.
    """
    a = as_matrix(n_mat, "n_mat")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"sym_eigen expects a square matrix, got {a.shape}")
    scale = float(np.max(np.abs(a))) if n else 0.0
    if scale > 0 and float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ShapeError("sym_eigen input is not symmetric within 1e-8 * max|entry|")
    mat = (a + a.T) * a.dtype.type(0.5)
    values, vectors = _lapack(np.linalg.eigh, mat)
    order = np.argsort(-values, kind="stable")
    if not want_vectors:
        return values[order], None
    vectors = vectors[:, order]
    _fix_column_signs(vectors)
    return values[order], vectors


def small_svd(b, want_u=False, want_vt=False):
    """Compact SVD of a small dense matrix via LAPACK's gesdd.

    Returns (sigma, u, vt) with sigma descending, length min(rows, cols).
    Each right singular vector is sign-fixed so its largest-magnitude
    component is positive, and the matching column of u follows; columns
    of u whose sigma is exactly 0 are zero. The factors are always
    computed, even when neither is requested, so sigma does not depend on
    which factors the caller asks for.
    """
    b = as_matrix(b, "b")
    if min(b.shape) < 1:
        raise ShapeError(f"small_svd needs min(rows, cols) >= 1, got {b.shape}")
    u, sigma, vt = _lapack(np.linalg.svd, b, full_matrices=False)
    _fix_column_signs(vt.T, follow=u)
    u[:, sigma == 0] = 0
    return sigma, u if want_u else None, vt if want_vt else None
