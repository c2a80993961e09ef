"""Distributed tall/skinny SVD, three ways.

svd_normal_equations: eigendecompose the replicated crossproduct A^T A;
singular values are square roots of the eigenvalues. One allreduce, very
fast, but forming A^T A squares the condition number.

svd_tsqr: communication-avoiding QR. Each rank reduces its block to an R
factor; a custom allreduce stacks R factors two at a time and re-factors,
yielding R of the full matrix, whose local SVD gives sigma and V. The
local factor comes from dense.tall_R, a Cholesky QR2 built from GEMMs and
n x n LAPACK calls that release the GIL, so rank threads overlap. It falls
back to Householder qr_R when a Cholesky fails, an intermediate is not
finite, the first factor's condition estimate exceeds 1e4 (beyond which
the GEMM against its inverse loses accuracy; at n = 50 from a condition
number of about 3e3), or the first pass leaves Q1 too far from
orthonormal. The 2n x n reduce combine and blocks shorter than n rows
stay on qr_R.

svd_randomized: truncated SVD by random projection with q power
iterations; distributed Q factors come from the same QR reduction and
the same local kernel.

All three recover a distributed U from A V inv(Sigma) when asked (the
randomized variant uses U = Q_Y U_B instead).

The first reduced value of each route (the crossproduct, or the R factor
qr_allreduce returns) and the returned sigma are checked for NaN and Inf.
A reduced value is bitwise the same on every rank, so every rank raises
NonFiniteInput together, with no extra message.

ROUTES names them cpsvd, tssvd and rsvd; route() is the one dispatch from
a name to a function, shared by pca and the svdbench harness.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .comm import ReduceOperator
from .dense import (
    ShapeError,
    UnsupportedShape,
    as_matrix,
    qr_Q,
    qr_R,
    require_finite,
    small_svd,
    solve_triangular_right,
    sym_eigen,
    tall_R,
)
from .distmat import (
    STREAM_PROJECTION,
    DistMatrix,
    crossprod,
    mult_local,
    mult_transpose,
    random_rows,
)


class ParameterError(ValueError):
    """Invalid algorithm parameters."""


class DegenerateProjection(RuntimeError):
    """The random projection collapsed the range; retry with a new seed."""


@dataclass
class SvdResult:
    """sigma descending and nonnegative; u distributed, v replicated."""

    sigma: np.ndarray
    u: Optional[DistMatrix] = None
    v: Optional[np.ndarray] = None


@dataclass(frozen=True)
class RsvdParams:
    """Truncation rank k, power iterations q, projection draw, seed."""

    k: int
    q: int = 2
    projection: str = "standard-normal"
    seed: int = 0

    def validate(self, n):
        if self.k < 1 or self.k >= n:
            raise ParameterError(f"rsvd needs 1 <= k < n, got k={self.k}, n={n}")
        if 2 * self.k > n:
            raise ParameterError(
                f"rsvd needs 2k <= n for the n x 2k projection, got k={self.k}, n={n}"
            )
        if self.q < 0:
            raise ParameterError(f"rsvd needs q >= 0, got q={self.q}")


def _require_tall(a, who):
    if a.global_rows <= a.cols:
        raise UnsupportedShape(
            f"{who} needs global_rows > cols, got {a.global_rows}x{a.cols}"
        )


def rank_tolerance(sigma, m, n):
    """Pseudo-inverse cutoff: max(m, n) * eps * sigma_max."""
    if len(sigma) == 0:
        return 0.0
    eps = float(np.finfo(sigma.dtype).eps)
    return max(m, n) * eps * float(sigma[0])


def recover_U(a, v, sigma):
    """Left factor from U = A V inv(Sigma), dropping columns at zero sigma.

    Columns whose singular value falls at or below the rank tolerance are
    removed entirely, so the result always has full column rank.
    """
    v = as_matrix(v, "v")
    sigma = np.asarray(sigma)
    if v.shape[1] != len(sigma):
        raise ShapeError(
            f"recover_U: v has {v.shape[1]} columns but sigma has {len(sigma)}"
        )
    keep = sigma > rank_tolerance(sigma, a.global_rows, a.cols)
    scaled = v[:, keep] / sigma[keep]
    return mult_local(a, scaled)


def _truncate_to_kept(a, result, want_u, want_v, v_full):
    """Attach factors, shrinking sigma/v consistently if U drops columns."""
    sigma = result.sigma
    if want_u:
        keep = sigma > rank_tolerance(sigma, a.global_rows, a.cols)
        result.u = recover_U(a, v_full, sigma)
        result.sigma = sigma[keep]
        if want_v:
            result.v = v_full[:, keep]
    elif want_v:
        result.v = v_full
    return result


def svd_normal_equations(a, want_u=False, want_v=False):
    """Sigma (and factors) from the eigendecomposition of A^T A."""
    _require_tall(a, "svd_normal_equations")
    n_mat = require_finite(crossprod(a), "crossproduct A^T A")
    values, vectors = sym_eigen(n_mat)
    result = SvdResult(sigma=require_finite(np.sqrt(np.maximum(values, 0)), "sigma"))
    return _truncate_to_kept(a, result, want_u, want_v, vectors)


def qr_reduce_operator(n, dtype):
    """Stack two n x n R factors and emit the R factor of the stack."""

    def combine(lower, higher):
        return qr_R(np.vstack((lower, higher)))

    return ReduceOperator(f"qr_reduce(n={n})", n, n, np.dtype(dtype), combine)


def qr_allreduce(comm, r_local):
    """R factor of the implicitly stacked blocks: R^T R = sum R_i^T R_i.

    Every rank contributes an n x n upper triangle with nonnegative
    diagonal and receives the reduced triangle with the same normalization,
    or NonFiniteInput on every rank if it holds NaN or Inf.
    """
    r_local = as_matrix(r_local, "r_local")
    n = r_local.shape[1]
    if r_local.shape[0] != n:
        raise ShapeError(f"qr_allreduce expects square n x n input, got {r_local.shape}")
    if np.any(np.tril(r_local, -1) != 0):
        raise ShapeError("qr_allreduce input has nonzeros below the diagonal")
    if np.any(np.diag(r_local) < 0):
        raise ShapeError("qr_allreduce input has a negative diagonal entry")
    r_full = comm.allreduce_custom(r_local, qr_reduce_operator(n, r_local.dtype))
    return require_finite(r_full, "reduced R factor")


def _local_r_padded(block, n):
    """R factor of a local block: tall_R, or qr_R of a block shorter than
    n rows after zero-padding it to n x n."""
    if block.shape[0] < n:
        padded = np.zeros((n, n), dtype=block.dtype)
        padded[: block.shape[0]] = block
        return qr_R(padded)
    return tall_R(block)


def svd_tsqr(a, want_u=False, want_v=False):
    """Sigma (and factors) via the distributed QR reduction."""
    _require_tall(a, "svd_tsqr")
    r_local = _local_r_padded(a.local, a.cols)
    r_full = qr_allreduce(a.comm, r_local)
    sigma, _, vt = small_svd(r_full)
    result = SvdResult(sigma=require_finite(sigma, "sigma"))
    return _truncate_to_kept(a, result, want_u, want_v, vt.T)


def _distributed_qr_q(y):
    """Q of a distributed tall matrix: reduce to R, then solve Y inv(R).

    Cheap because Y has few columns; if R looks ill-conditioned by its
    diagonal ratio, one re-orthogonalization pass repeats the solve.
    """
    r_full = qr_allreduce(y.comm, _local_r_padded(y.local, y.cols))
    q = _solve_against(y, r_full)
    diag = np.diag(r_full)
    if diag.max() / diag.min() > 1e8:
        r_again = qr_allreduce(q.comm, _local_r_padded(q.local, q.cols))
        q = _solve_against(q, r_again)
    return q


def _solve_against(y, r_full):
    if np.any(np.diag(r_full) == 0):
        raise DegenerateProjection(
            "projection produced an exactly singular R; retry with a new seed"
        )
    return DistMatrix(
        solve_triangular_right(y.local, r_full), y.global_rows, y.row_offset, y.comm
    )


def svd_randomized(a, params, want_u=False, want_v=False):
    """Truncated SVD by random projection and q power iterations.

    Projects onto an n x 2k random matrix, alternates multiply and
    re-orthogonalization q times, then takes the small SVD of the
    projected 2k x n matrix. Only the leading k values/vectors are
    returned; the oversampled half is discarded.
    """
    _require_tall(a, "svd_randomized")
    n = a.cols
    params.validate(n)
    omega = random_rows(
        params.seed, 0, n, 2 * params.k, params.projection, a.dtype,
        domain=STREAM_PROJECTION,
    )
    y = mult_local(a, omega)
    q_y = _distributed_qr_q(y)
    for _ in range(params.q):
        z = mult_transpose(a, q_y)
        q_z = qr_Q(z)
        y = mult_local(a, q_z)
        q_y = _distributed_qr_q(y)
    b = mult_transpose(q_y, a)
    sigma, u_b, vt = small_svd(b)
    k = params.k
    result = SvdResult(sigma=require_finite(sigma[:k], "sigma"))
    if want_u:
        result.u = mult_local(q_y, u_b[:, :k])
    if want_v:
        result.v = vt[:k].T
    return result


ROUTES = {
    "cpsvd": svd_normal_equations,
    "tssvd": svd_tsqr,
    "rsvd": svd_randomized,
}


def route(method, params=None):
    """The SVD route named `method`, as a function of (a, want_u, want_v).

    method is one of ROUTES; rsvd comes bound to `params`, which must be
    its RsvdParams. The other routes ignore `params`.
    """
    if method not in ROUTES:
        raise ParameterError(
            f"unknown method {method!r}; expected one of {tuple(ROUTES)}"
        )
    if method != "rsvd":
        return ROUTES[method]
    if not isinstance(params, RsvdParams):
        raise ParameterError("method 'rsvd' requires RsvdParams via params=")
    return partial(ROUTES[method], params=params)
