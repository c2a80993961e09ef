"""Distributed tall/skinny SVD, three ways.

svd_normal_equations: eigendecompose the replicated crossproduct A^T A;
singular values are square roots of the eigenvalues. One allreduce, very
fast, but forming A^T A squares the condition number.

svd_tsqr: the SVD of the R factor of A, whose local SVD gives sigma and
V, or, where one Cholesky QR pass would give R, the eigendecomposition
of the Gram that R comes from. svd_tsqr forms the Gram summed over the
ranks and its eigendecomposition once, by GEMMs and an n x n LAPACK call
that release the GIL, so rank threads overlap. The summed Gram is
bitwise the same on every rank, so the group takes one of three bands by
A's condition number, whatever the rank count. The eigenvalues decide
the first band once, and qr_allreduce, the one entry for a distributed
R, decides it the same way. Up to sqrt(2) the eigendecomposition already
meets the error bound of two Cholesky QR passes, as one pass's R would,
and A is read once: sigma and V are cpsvd's, bitwise, and no R is
formed. Standard-normal matrices, as the benchmarks draw them, are here.
Past it both entries hand the same Gram, and no eigenvalues, to one
function, _cholqr2_or_tree_R. Its Cholesky QR2 adds a second pass, the
Gram crossprod(a, R1^-1), which streams each block in cache-sized row
chunks against R1^-1 and sums over the ranks, so beyond its block a rank
holds one chunk and a few n x n arrays, never an m x n intermediate.
Ill-conditioned input (a Cholesky fails, an intermediate is not finite,
the first factor's condition estimate exceeds 1e4, beyond which the GEMM
against its inverse loses accuracy, or the first pass leaves Q1 too far
from orthonormal) falls back to the communication-avoiding TSQR tree
(Demmel, Grigori, Hoemmen & Langou, SISC 2012), _tree_R, whose one
combine, the Householder R of two stacked row sets, serves both of its
levels: each rank folds its row chunks one by one into a running n x n
R, and a custom allreduce stacks the ranks' R factors two at a time and
re-factors.
cpsvd's Gram is n x n too, so neither full-spectrum route allocates
anything the height of the block for sigma and V in any band, which is
all pca asks for without scores: the centered matrix pca passes in is
its input block plus a shift (the column means), which every pass over
the rows subtracts chunk by chunk.

svd_randomized: truncated SVD by random projection with q power
iterations, in q + 1 passes over A. Each pass reads the local rows once,
in cache-sized chunks, for both Y = A Omega and W = A^T Y
(distmat.mult_and_transpose). The q power iterations keep W alone: the
next basis is qr_Q(W), which spans what qr_Q(B^T) would, and costs one
sum-allreduce. Only the last pass factors Y = Q_Y R by the QR reduction,
and B = Q_Y^T A = R^-T W^T follows from W, so Q_Y stays implicit as
Y R^-1 and A is not read a second time. A guard on R's column-scaled
condition sends an ill-conditioned Y (a rank-deficient A, say) to a
fallback that factors Q1 = Y R^-1 = Q_Y R2 and reads A again for B;
there Q_Y stays implicit as Q1 R2^-1.

Every route returns sigma and the replicated V, which its n x n
decomposition computes anyway; U is the one optional factor, an extra
pass over the rows. A route has one width, n values for the two
full-spectrum routes and k for the randomized one, and sigma, V and U
have that many columns whatever the flag or the data: asking for U
changes neither sigma nor V. The full-spectrum routes recover a
distributed U from A V inv(Sigma), with a zero column wherever sigma is
at or below rank_tolerance; the randomized one uses U = Q_Y U_B, whose
column is zero where sigma is exactly 0.

The first reduced value of each route (the crossproduct, the W of each
rsvd power iteration, or the R factor qr_allreduce returns, of A in
tssvd and of Y in rsvd) and the returned sigma are checked for NaN and
Inf. tssvd and qr_allreduce check their Gram first, and a non-finite one
goes to the TSQR tree, whose R is then checked. A reduced value is
bitwise the same on every rank, so every rank raises NonFiniteInput
together, with no extra message.

Each route computes sigma and V inside one np.errstate(all="ignore")
block, qr_allreduce computes R inside one, and pca.pca takes its
centering into one too; each quiets warnings up to its own check, and
the band code and the tree open none. Non-finite input or an overflow
would otherwise warn on its way to a check (Inf - Inf in a centered
chunk, Inf times 0 in a product), and with warnings as errors one rank
would fail with a RuntimeWarning and its peers with a CollectiveError,
not NonFiniteInput. Quieting them is safe because the block returns
nothing unchecked: R and sigma are checked as they leave, and V comes
from the same checked n x n factorization. U and pca's scores are
products after the block, with the warnings left on.

ROUTES names them cpsvd, tssvd and rsvd. route(method, n, params) is the
one place that binds a route by name, checks its parameters and knows its
width; pca and the svdbench harness both go through it. Of the three,
only rsvd takes parameters, its RsvdParams. So a new route is one ROUTES
entry, plus one branch in route() if it takes RsvdParams too.
"""

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .comm import ReduceOperator, core_share
from .dense import (
    ShapeError,
    UnsupportedShape,
    as_matrix,
    chunk_rows,
    qr_Q,
    qr_R,
    require_finite,
    row_chunks,
    small_svd,
    solve_triangular_right,  # noqa: F401 - still traced by perfbench
    sym_eigen,
)
from .distmat import (
    DISTRIBUTIONS,
    STREAM_PROJECTION,
    DistMatrix,
    crossprod,
    mult_and_transpose,
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
    """sigma descending and nonnegative; v replicated, n x len(sigma); u
    distributed, m x len(sigma), present only when asked for.

    len(sigma) is the route's width, n for cpsvd and tssvd and k for
    rsvd, with or without u. A column of u is exactly zero where its
    sigma is at or below rank_tolerance (cpsvd, tssvd) or exactly 0
    (rsvd).
    """

    sigma: np.ndarray
    v: np.ndarray
    u: Optional[DistMatrix] = None


@dataclass(frozen=True)
class RsvdParams:
    """Truncation rank k, power iterations q, projection draw, seed."""

    k: int
    q: int = 2
    projection: str = "standard-normal"
    seed: int = 0

    def validate(self, n):
        for name, value in (("k", self.k), ("q", self.q), ("seed", self.seed)):
            if not isinstance(value, numbers.Integral):
                raise ParameterError(f"rsvd needs an integer {name}, got {name}={value!r}")
        if self.k < 1:
            raise ParameterError(f"rsvd needs k >= 1, got k={self.k}")
        if 2 * self.k > n:
            raise ParameterError(
                f"rsvd needs 2k <= n for the n x 2k projection, got k={self.k}, n={n}"
            )
        if self.q < 0:
            raise ParameterError(f"rsvd needs q >= 0, got q={self.q}")
        if self.projection not in DISTRIBUTIONS:
            raise ParameterError(
                f"unknown projection {self.projection!r}; expected one of {DISTRIBUTIONS}"
            )


def _check_rsvd_params(params, n):
    """Raise ParameterError unless params is an RsvdParams valid for n columns."""
    if not isinstance(params, RsvdParams):
        raise ParameterError("method 'rsvd' requires RsvdParams via params=")
    params.validate(n)


def _require_tall(a, who):
    if not a.global_rows > a.cols >= 1:
        raise UnsupportedShape(
            f"{who} needs global_rows > cols >= 1, got {a.global_rows}x{a.cols}"
        )


def rank_tolerance(sigma, m, n):
    """Pseudo-inverse cutoff: max(m, n) * eps * sigma_max."""
    if len(sigma) == 0:
        return 0.0
    eps = float(np.finfo(sigma.dtype).eps)
    return max(m, n) * eps * float(sigma[0])


def recover_U(a, v, sigma):
    """Left factor from U = A V inv(Sigma), one column per sigma.

    A column whose singular value falls at or below the rank tolerance
    is exactly zero; the others are A v_j / sigma_j.
    """
    v = as_matrix(v, "v")
    sigma = np.asarray(sigma)
    if v.shape[1] != len(sigma):
        raise ShapeError(
            f"recover_U: v has {v.shape[1]} columns but sigma has {len(sigma)}"
        )
    keep = sigma > rank_tolerance(sigma, a.global_rows, a.cols)
    scaled = np.zeros_like(v)
    scaled[:, keep] = v[:, keep] / sigma[keep]
    return mult_local(a, scaled)


def _gram_svd(values, vectors):
    """(sigma, V) of A from sym_eigen(A^T A): sigma_i = sqrt(lambda_i), and
    V is the eigenvectors, already descending and sign-fixed."""
    return require_finite(np.sqrt(np.maximum(values, 0)), "sigma"), vectors


def svd_normal_equations(a, want_u=False):
    """Sigma and V (and U) from the eigendecomposition of A^T A."""
    _require_tall(a, "svd_normal_equations")
    with np.errstate(all="ignore"):
        sigma, v = _gram_svd(*sym_eigen(crossprod(a)))
    return SvdResult(sigma, v, recover_U(a, v, sigma) if want_u else None)


def _stack_and_factor(lower, higher):
    """R factor of two row sets of n columns stacked, lower on top: two
    ranks' R factors up the tree, or a rank's running R and its next row
    chunk. qr_R is looked up at call time, so a tracer that patches
    svd.qr_R sees the combine."""
    return qr_R(np.vstack((lower, higher)))


QR_REDUCE = ReduceOperator("qr_reduce", _stack_and_factor)


def qr_allreduce(a):
    """R factor of the distributed A, replicated: R^T R = A^T A.

    A is a's block, less its shift when set. The group takes one band,
    as distributed Cholesky QR2 does (Fukaya, Nakatsukasa, Yanagisawa &
    Yamamoto, ScalA 2014), decided on the summed Gram G1 = crossprod(a).
    Its eigenvalues, from one sym_eigen, decide the one-pass band: where
    they put kappa_2(R1) at or below CHOLQR_ONE_PASS_MAX_COND, R =
    triu(chol(G1)^T). Past it _cholqr2_or_tree_R takes G1 alone: Cholesky
    QR2 where its guards pass, else the Householder tree of _tree_R. A
    non-finite G1 (f32 data near 1e19 overflows it) skips the eigen solve
    and goes to the tree. Every test reads G1, its eigenvalues or the
    second Gram, bitwise the same on every rank, so every rank takes the
    same band with no extra message. svd_tsqr forms G1 and its
    eigendecomposition the same way and answers the one-pass band itself.
    All of it runs with floating-point warnings quieted, up to R's check:
    R is upper triangular with a nonnegative diagonal, and if it holds
    NaN or Inf every rank raises NonFiniteInput. Every rank holds the
    same column count, so an A with none raises UnsupportedShape on every
    rank, before any collective.
    """
    if a.cols < 1:
        raise UnsupportedShape(f"qr_allreduce needs cols >= 1, got {a.cols}")
    with np.errstate(all="ignore"):
        g1 = crossprod(a)
        if _one_pass(_finite_eigen(g1)[0]):
            r1 = np.linalg.cholesky(g1).T
            return require_finite(np.triu(r1), "reduced R factor")
        return _cholqr2_or_tree_R(a, g1)


def _finite_eigen(g1):
    """sym_eigen(G1), or (None, None) where G1 holds NaN or Inf."""
    if not np.all(np.isfinite(g1)):
        return None, None
    return sym_eigen(g1)


def _tree_R(a):
    """R of the distributed A by the TSQR tree of Householder factors.

    Each rank folds its rows, in row_chunks of chunk_rows(block, n), into
    a running R that starts as n x n zeros: _stack_and_factor stacks each
    chunk under R and re-factors, in float64 whatever the block's dtype.
    Every stack thus has at least n rows, and beyond its block a rank
    holds one chunk and its stack. R is cast to the block's dtype once,
    and the QR_REDUCE allreduce stacks the ranks' n x n factors two at a
    time up the tree and re-factors each pair.
    """
    # R runs in float64 and is cast once: rounded to float32 after each
    # of 77 chunks (2e5 x 50, kappa = 1e6) it erred twice as much.
    r = np.zeros((a.cols, a.cols))
    for _, rows in row_chunks(a.block, chunk_rows(a.block, a.cols), a.shift):
        r = _stack_and_factor(r, rows)
    return a.comm.allreduce_custom(r.astype(a.dtype), QR_REDUCE)


# Largest orthogonality defect ||G2 - I||_F that qr_allreduce accepts
# from the first CholQR pass, where G2 = Q1^T Q1. The Frobenius norm
# bounds the 2-norm, so below the bound every eigenvalue of G2 (the square
# of a singular value of Q1) lies in [1/2, 3/2], and kappa(Q1)^2 <= 3. The
# second pass is a Cholesky QR of Q1, whose errors grow like kappa(Q1)^2 u
# (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015); at most 3 times
# their value for an orthonormal Q1, which keeps CholQR2 within a small
# constant of Householder QR's backward error.
CHOLQR_MAX_DEFECT = 0.5
# Largest condition estimate ||R1||_F ||R1^-1||_F that qr_allreduce
# accepts. Q1 = A R1^-1 is a GEMM against a computed inverse, not a
# backward-stable triangular solve: the GEMM's error
# |E| <= gamma_n |A| |R1^-1| and the inverse's residual R1^-1 R1 - I let
# the backward error of R = R2 R1 grow with kappa(R1) (Higham, ASNA,
# sec. 14.1). Rounding errors of random sign leave far less than that
# worst case. Over 26,000 draws (m <= 40n, n <= 8, kappa from 1e2 to
# 1e7), CholQR2 kept max|d sigma| <= 3.2 n (u + u64) sigma_1 wherever
# this estimate stayed below 1e4, inside svdbench verify's
# 6 n (u + u64) sigma_1. Above it the error grew with kappa, to
# 28 n (u + u64) sigma_1 at kappa = 1e7 in float64.
CHOLQR_MAX_COND = 1e4
# Largest 2-norm condition number of R1 = chol(A^T A)^T at which
# qr_allreduce returns R1 after one Cholesky QR pass, and svd_tsqr takes
# sigma and V from the eigendecomposition of A^T A; A^T A is the Gram
# summed over the ranks, a reordering of its sum over A's rows. In the
# rounding model of svdbench verify's gate (bench.verify_tolerance),
# forming the Gram and factoring it are n steps that each add at most
# lambda u ||A||^2, so R1^T R1 = A^T A + E with ||E|| <= lambda n u
# ||A||^2. By Weyl, sigma_i(R1)^2 moves by at most ||E||, so sigma_i by
# at most ||E|| / (2 sigma_min(A)) <= lambda n u sigma_1 kappa / 2.
# kappa = sqrt(2) holds that within lambda n u sigma_1, the first stage's
# share of the gate 2 lambda n u sigma_1, as CholQR2's two passes are
# credited with. Its loss of orthogonality, of order kappa^2 u, is then
# what the second pass would repair (Yamamoto et al., ETNA 2015), and the
# pass is skipped. The eigen solve in place of the Cholesky factor meets
# the same bound: it is backward stable, so its eigenvalues are exact for
# A^T A + E with E of the same form, n steps that each add at most
# lambda u ||A||^2. Weyl moves lambda_i by at most ||E||, and
# sigma_i = sqrt(lambda_i) by at most ||E|| / (2 sigma_min(A)), the term
# above. The square root then adds u sigma_i, where gesdd of R1 would add
# the gate's whole second stage, lambda n u sigma_1, and V is the
# eigenvectors, with no orthogonality for a second pass to repair. So in
# this band svd_tsqr forms neither R1 nor its SVD, and the band test
# reads the eigenvalues that answer it.
CHOLQR_ONE_PASS_MAX_COND = np.sqrt(2.0)


def _one_pass(values):
    """True when G1's eigenvalues (descending) put kappa_2 at or below
    CHOLQR_ONE_PASS_MAX_COND: the one-pass band. A Gram whose smallest
    eigenvalue is not positive, of a rank-deficient or zero A, is outside
    it, and so is a non-finite one, whose values are None."""
    return (values is not None and 0 < values[-1]
            and values[0] <= CHOLQR_ONE_PASS_MAX_COND**2 * values[-1])


def _cholqr2_or_tree_R(a, g1):
    """qr_allreduce's R past the one-pass band, from the summed Gram G1.

    Cholesky QR2 where G1 is finite, chol(G1) exists, R1's condition
    estimate is at most CHOLQR_MAX_COND, chol(G2) exists and G2's
    defect is at most CHOLQR_MAX_DEFECT: R = triu(R2 R1), for the second
    Gram G2 = crossprod(a, R1^-1) = Q1^T Q1. Otherwise _tree_R. The
    caller quiets floating-point warnings; R is checked for NaN and Inf.
    """
    if np.all(np.isfinite(g1)):
        try:
            r1 = np.linalg.cholesky(g1).T
            r1_inv = np.linalg.inv(r1)
            if np.linalg.norm(r1) * np.linalg.norm(r1_inv) <= CHOLQR_MAX_COND:
                g2 = crossprod(a, r1_inv)
                r2 = np.linalg.cholesky(g2).T
                defect = np.linalg.norm(g2 - np.eye(a.cols, dtype=g2.dtype))
                if defect <= CHOLQR_MAX_DEFECT:
                    return require_finite(np.triu(r2 @ r1), "reduced R factor")
        except np.linalg.LinAlgError:
            pass
    return require_finite(_tree_R(a), "reduced R factor")


def svd_tsqr(a, want_u=False):
    """Sigma and V (and U) via the distributed QR reduction.

    As qr_allreduce does, svd_tsqr forms the summed Gram G1 and its
    eigendecomposition once and decides the one-pass band from its
    eigenvalues. There sigma and V come from that eigendecomposition, as
    in svd_normal_equations, bitwise, and no R is formed. Every other
    band takes small_svd of the R that _cholqr2_or_tree_R makes from the
    same G1.
    """
    _require_tall(a, "svd_tsqr")
    with np.errstate(all="ignore"):
        g1 = crossprod(a)
        values, vectors = _finite_eigen(g1)
        if _one_pass(values):
            sigma, v = _gram_svd(values, vectors)
        else:
            sigma, _, vt = small_svd(_cholqr2_or_tree_R(a, g1))
            sigma, v = require_finite(sigma, "sigma"), vt.T
    return SvdResult(sigma, v, recover_U(a, v, sigma) if want_u else None)


# Largest error growth g = ||D R^-1||_2 (D: R's column norms) at which
# svd_randomized solves B from W. The derivation and the sweep behind
# the value are in svd_randomized's docstring.
RSVD_IMPLICIT_MAX_GROWTH = 4.0


def _reduced_r(y):
    """R factor of a distributed Y; DegenerateProjection on a zero diagonal."""
    r = qr_allreduce(y)
    if np.any(np.diag(r) == 0):
        raise DegenerateProjection(
            "projection produced an exactly singular R; retry with a new seed"
        )
    return r


def _implicit_ok(r, w):
    """True when W is finite and g = ||D R^-1||_2 <= RSVD_IMPLICIT_MAX_GROWTH.

    g is 1 / sigma_min(R D^-1), the reciprocal of the smallest singular
    value of Y with its columns scaled to unit norm. Each column of R is
    first divided by its largest |entry|, so its norm cannot overflow
    where R itself is finite; g does not change under column scaling,
    and _reduced_r leaves no zero column. W is replicated, so every rank
    takes the same branch.
    """
    if not np.all(np.isfinite(w)):
        return False
    scaled = r / np.max(np.abs(r), axis=0)
    unit_columns = scaled / np.linalg.norm(scaled, axis=0)
    smallest = np.linalg.svd(unit_columns, compute_uv=False)[-1]
    return smallest * RSVD_IMPLICIT_MAX_GROWTH >= 1


def _project(a, basis):
    """(B, left, R): B = Q_Y^T A for Y = A basis, with Q_Y = left R^-1.

    left and R are Y and its factor on the fast path, and Q1 = Y R^-1 and
    its factor R2 in the fallback, where Y gives way to Q1.
    """
    y, w = mult_and_transpose(a, basis)
    r = _reduced_r(y)
    if _implicit_ok(r, w):
        return np.linalg.solve(r.T, w.T), y, r
    y = mult_local(y, np.linalg.inv(r))  # Q1: Y's buffer is released
    r = _reduced_r(y)
    return np.linalg.solve(r.T, mult_transpose(y, a)), y, r


def svd_randomized(a, params, want_u=False):
    """Truncated SVD by random projection and q power iterations.

    Makes q + 1 passes over A. From an n x 2k basis (random at first)
    each pass gives the distributed Y = A basis and the replicated
    W = A^T Y. The q power-iteration steps keep W alone and take
    qr_Q(W) as the next basis; the last step factors Y. Only the leading
    k values and right vectors (and left ones, with want_u) are returned;
    the oversampled half is discarded.

    Why W alone suffices. A step that factored Y = Q_Y R would take
    qr_Q(B^T) for B = Q_Y^T A, and B^T = A^T Y R^-1 = W R^-1. R^-1 is
    upper triangular with a positive diagonal, so qr_Q(W) R_W R^-1 is a
    QR factorization of W R^-1 with a positive diagonal, and by its
    uniqueness qr_Q(B^T) = qr_Q(W) in exact arithmetic: orthogonal
    iteration on A^T A (Golub & Van Loan, sec. 8.2.4). Such a step makes
    one collective, W's sum-allreduce, and no QR reduction of Y.

    The last step. The QR reduction factors Y = Q_Y R, and
    B = Q_Y^T A = R^-T W^T is solved from W without forming Q_Y.
    small_svd(B) gives sigma and V, and U = Q_Y U_B = Y (R^-1 U_B).

    The guard acts on the last step only. Each column of the computed W
    errs by a multiple of u ||A|| ||y_j||, so the error is E D with
    D = diag(||y_j||), the column norms of R; the QR's backward error in
    Y is columnwise too. The implicit B carries R^-T D E^T: at most
    g = ||D R^-1||_2 times the error of Q_Y^T A with an orthonormal Q_Y.
    g is 1 for orthogonal columns. On standard-normal 2e4 x 50 data at
    k = 2 it read at most 1.4 at q = 0 with a standard-normal projection
    and 2.8 with a uniform(0, 1) one, and 1.01 after a power iteration.
    It is of order 1/u when Y is rank deficient, as for a rank-one A at
    q = 0, and then the implicit B is wrong in its leading digits. After
    power iterations the basis is orthonormal, and a rank-one A reads g
    of order 10, no longer 1/u: 60 to 80 on a 2000 x 20 outer product,
    1.0 to 10 on a centered 300 x 12 one. Such an input may take either
    side of the guard.

    B is solved from W while g <= RSVD_IMPLICIT_MAX_GROWTH = 4. Forced on
    the last step of 80,000 random inputs (float32 and float64, k <= 3,
    2k < n <= 2k + 9, m < 400, p <= 3, q <= 2, rank 1 to 2k + 1, flat,
    log-uniform or geometric spectra), that path erred upward by at most
    0.87 of svdbench verify's rounding term 2 lambda n (u + u64) sigma_1
    for g <= 6; it first exceeded the term at g = 6.4 (float32, rank one,
    q = 1). Y's R may come from one Cholesky QR pass (qr_allreduce), so
    48,000 more such inputs were swept with the path forced: at g <= 4 it
    erred upward by at most 0.58 of the term, as with two passes on every
    Y, and by at most 0.45 on the 4,821 whose Y took one pass on every
    rank; the term was first exceeded at g = 9.5. Past the guard the last
    step factors twice, as CholQR2 does (Yamamoto et al., ETNA 2015):
    Q1 = Y R^-1 = Q_Y R2, B = R2^-T Q1^T A by one more pass over A, and
    U = Q1 (R2^-1 U_B). This B errs as an explicit Q_Y^T A would, by
    multiples of ||R2^-1||, and in 1366 of 4000 draws that fell back
    g2 = ||D2 R2^-1||_2 had median 1.0 and max 9.9. A zero on the
    diagonal of either R raises DegenerateProjection.

    Like cpsvd's crossproduct, W = A^T Y holds sigma_1^2-sized values, so
    float32 input with sigma_1 above about 1.8e19 overflows it. With
    q >= 1 the first W's check then raises NonFiniteInput on every rank,
    where tssvd factors the same input. At q = 0 an overflowing W sends
    the last step to the fallback, whose B = R2^-T Q1^T A stays finite.
    """
    _require_tall(a, "svd_randomized")
    n = a.cols
    _check_rsvd_params(params, n)
    basis = random_rows(
        params.seed, 0, n, 2 * params.k, params.projection, a.dtype,
        domain=STREAM_PROJECTION, threads=core_share(a.comm.size),
    )
    with np.errstate(all="ignore"):
        for _ in range(params.q):
            basis = qr_Q(require_finite(mult_and_transpose(a, basis)[1], "W = A^T Y"))
        b, left, r = _project(a, basis)
        sigma, u_b, vt = small_svd(b)
    k = params.k
    sigma = require_finite(sigma[:k], "sigma")
    u = mult_local(left, np.linalg.solve(r, u_b[:, :k])) if want_u else None
    return SvdResult(sigma, vt[:k].T, u)


ROUTES = {
    "cpsvd": svd_normal_equations,
    "tssvd": svd_tsqr,
    "rsvd": svd_randomized,
}


def route(method, n, params=None):
    """(solve, width): the SVD route named `method` for n columns.

    solve is the route as a function of (a, want_u=False), and width is
    how many values, V columns and U columns it returns: n for cpsvd and
    tssvd, params.k for rsvd. method is one of ROUTES. rsvd is the one
    route that takes parameters: it comes bound to `params`, which must
    be its RsvdParams and pass validate(n) here, so a bad k fails before
    the route runs. The other routes ignore `params`.
    """
    if method not in ROUTES:
        raise ParameterError(
            f"unknown method {method!r}; expected one of {tuple(ROUTES)}"
        )
    if method != "rsvd":
        return ROUTES[method], n
    _check_rsvd_params(params, n)
    return partial(ROUTES[method], params=params), params.k
