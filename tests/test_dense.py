from unittest import mock

import numpy as np
import pytest

from tallskinny import svd
from tallskinny.comm import solo_communicator
from tallskinny.dense import (
    ConvergenceError,
    NonFiniteInput,
    ShapeError,
    UnsupportedDtype,
    UnsupportedShape,
    as_matrix,
    chunk_rows,
    gram,
    qr_Q,
    qr_R,
    small_svd,
    solve_triangular_right,
    sym_eigen,
)
from tallskinny.distmat import DistMatrix, random_rows
from tallskinny.matrices import conditioned_matrix
from tallskinny.svd import CHOLQR_MAX_COND, CHOLQR_MAX_DEFECT, qr_allreduce


class TestQr:
    @pytest.mark.parametrize("factor", [as_matrix, qr_R, qr_Q])
    def test_complex_input_rejected(self, factor):
        # A cast to float64 would drop the imaginary part and factor the
        # real part alone, a plausible wrong answer.
        a = np.eye(4, 2) + 1j * np.ones((4, 2))
        with pytest.raises(UnsupportedDtype, match="complex"):
            factor(a)

    def test_identity(self):
        assert np.array_equal(qr_R(np.eye(4)), np.eye(4))
        assert np.array_equal(qr_Q(np.eye(4)), np.eye(4))

    def test_single_column(self):
        assert np.array_equal(qr_R([[3.0], [4.0]]), [[5.0]])
        assert np.allclose(qr_Q([[3.0], [4.0]]), [[0.6], [0.8]], rtol=0, atol=1e-15)

    def test_gram_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3))
        r = qr_R(a)
        gram = a.T @ a
        assert np.max(np.abs(gram - r.T @ r)) <= 1e-13 * np.max(np.abs(gram))

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 4))
        q = qr_Q(a)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reconstruction_double(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 7))
        err = np.max(np.abs(qr_Q(a) @ qr_R(a) - a))
        assert err <= 1e-13 * np.max(np.abs(a))

    def test_reconstruction_single(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 7)).astype(np.float32)
        q, r = qr_Q(a), qr_R(a)
        assert q.dtype == r.dtype == np.float32
        err = np.max(np.abs(q @ r - a))
        assert err <= 1e-4 * np.max(np.abs(a))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_diagonal_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((9, 5))
        a[0] = -np.abs(a[0])
        assert np.all(np.diag(qr_R(a)) >= 0)

    def test_diagonal_nonnegative_adversarial(self):
        # negative leading entries, an exactly zero column, a repeated column
        a = np.zeros((6, 4))
        a[:, 0] = [-1, -2, -3, 0, 0, 0]
        a[:, 2] = [5, -1, 2, 0, 1, 1]
        a[:, 3] = a[:, 2]
        r = qr_R(a)
        assert np.all(np.diag(r) >= 0)
        assert np.array_equal(np.tril(r, -1), np.zeros((4, 4)))
        q = qr_Q(a)
        assert np.max(np.abs(q @ r - a)) <= 1e-13 * np.max(np.abs(a))

    def test_below_diagonal_exactly_zero(self):
        rng = np.random.default_rng(6)
        r = qr_R(rng.standard_normal((10, 6)))
        assert np.count_nonzero(np.tril(r, -1)) == 0

    def test_wide_rejected(self):
        with pytest.raises(UnsupportedShape, match="tall"):
            qr_R(np.ones((2, 3)))
        with pytest.raises(UnsupportedShape):
            qr_Q(np.ones((2, 3)))


def cholesky_fails(g):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return True
    return False


def solo_R(a, shift=None):
    """qr_allreduce's R of a - shift, with a as one rank's whole matrix."""
    a = as_matrix(a)
    return qr_allreduce(DistMatrix(a, a.shape[0], 0, solo_communicator(), shift))


def first_factor_cond(a):
    """||R1||_F ||R1^-1||_F of CholQR's first factor, as qr_allreduce forms it."""
    r1 = np.linalg.cholesky(a.T @ a).T
    return np.linalg.norm(r1) * np.linalg.norm(np.linalg.inv(r1))


def first_pass_gram(a):
    """G2 = Q1^T Q1 after CholQR's first pass, formed as qr_allreduce forms it."""
    with np.errstate(all="ignore"):
        q1 = a @ np.linalg.inv(np.linalg.cholesky(a.T @ a).T)
        return q1.T @ q1


def one_chunk_fold(x):
    """The Householder band's R of a block x of one chunk: x stacked under
    the band's n x n zero seed, factored in float64 and cast to x's dtype."""
    n = x.shape[1]
    assert x.shape[0] <= chunk_rows(x, n)
    return qr_R(np.vstack((np.zeros((n, n)), x))).astype(x.dtype)


def falls_back(a):
    """solo_R(a) is the Householder band's fold of a, NonFiniteInput for NaN."""
    with mock.patch.object(svd, "qr_R", wraps=qr_R) as householder:
        try:
            r = solo_R(a)
        except NonFiniteInput:
            return householder.called and not np.all(np.isfinite(qr_R(a)))
    return householder.called and r.dtype == a.dtype and np.array_equal(r, one_chunk_fold(a))


def takes_second_pass(a, shift=None):
    """solo_R(a, shift) runs Cholesky QR2's second, chunked pass: a
    crossprod with a right factor, R1^-1."""
    with mock.patch.object(svd, "crossprod", wraps=svd.crossprod) as grams:
        solo_R(a, shift)
    return any(len(c.args) > 1 or "right" in c.kwargs for c in grams.call_args_list)


def one_pass_factor(a, shift=None):
    """R1 of the first Cholesky QR pass, as qr_allreduce returns it."""
    return np.triu(np.linalg.cholesky(gram(a, shift)).T)


def assert_matches_householder(a, kappa=1.0):
    """solo_R(a) is Cholesky QR's, and within kappa sqrt(m) n u ||a|| of qr_R(a)."""
    r = solo_R(a)
    assert not falls_back(a)
    assert r.dtype == a.dtype
    assert np.count_nonzero(np.tril(r, -1)) == 0 and np.all(np.diag(r) > 0)
    # R with a positive diagonal is unique, and moves with a by up to
    # kappa times a's perturbation.
    m, n = a.shape
    u = np.finfo(a.dtype).eps / 2
    diff = r.astype(np.float64) - qr_R(a)
    bound = kappa * np.sqrt(m) * n * u * np.linalg.norm(a, 2)
    assert np.linalg.norm(diff, 2) <= bound


def chunk_boundary_rows(rows, n, dtype):
    """Block heights just short of, on, or just past a chunk boundary."""
    chunk = chunk_rows(np.empty((0, n), dtype), n)
    return {"chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
            "2chunk+1": 2 * chunk + 1}[rows]


class TestTallR:
    """The R factor of a tall matrix: qr_allreduce on one rank, whose
    bands these tests pin. test_svd's band test repeats them across ranks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cholqr2_matches_householder(self, dtype):
        # Standard-normal input takes the one pass; the kappa = 10
        # case below takes both.
        a = np.random.default_rng(11).standard_normal((2000, 12)).astype(dtype)
        assert_matches_householder(a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cholqr2_second_pass_matches_householder(self, dtype):
        # kappa = 10 is past the one-pass bound that standard-normal
        # blocks meet, so both Cholesky QR passes run.
        a = conditioned_matrix(2000, 12, 10.0, 11, dtype)
        assert takes_second_pass(a)
        assert_matches_householder(a, kappa=10.0)

    @pytest.mark.parametrize("rows", ["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_boundaries_match_householder(self, dtype, rows):
        m = chunk_boundary_rows(rows, 12, dtype)
        a = np.random.default_rng(16).standard_normal((m, 12)).astype(dtype)
        assert_matches_householder(a)

    @pytest.mark.parametrize("rows", ["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_second_pass_chunk_boundaries_match_householder(self, dtype, rows):
        # The second pass walks the rows in chunks; blocks that end just
        # short of, on, or just past a chunk boundary lose no rows.
        m = chunk_boundary_rows(rows, 12, dtype)
        a = conditioned_matrix(m, 12, 10.0, 16, dtype)
        assert takes_second_pass(a)
        assert_matches_householder(a, kappa=10.0)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kappa", [1.0, 1.2, 1.4, 1.43, 2.0, "column-scaled"])
    def test_one_pass_up_to_the_bound(self, kappa, dtype, shifted):
        # kappa_2 <= sqrt(2): R is the first pass's Cholesky factor itself.
        # Past it, Cholesky QR2 takes its second pass, as it does on a
        # standard-normal block with one column scaled by 2.
        if kappa == "column-scaled":
            a = np.random.default_rng(18).standard_normal((2000, 50)).astype(dtype)
            a[:, 3] *= 2
            one_pass = False
        else:
            a = conditioned_matrix(500, 8, kappa, 17, dtype)
            one_pass = kappa <= np.sqrt(2)
        shift = None
        if shifted:
            shift = np.random.default_rng(17).standard_normal(a.shape[1]).astype(dtype)
            a = a + shift
        assert takes_second_pass(a, shift) != one_pass
        r = solo_R(a, shift)
        assert r.dtype == dtype
        assert np.array_equal(r, one_pass_factor(a, shift)) == one_pass

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_deficient_block_falls_back(self, dtype):
        a = np.random.default_rng(12).standard_normal((50, 5)).astype(dtype)
        a[:, 2] = 0
        assert cholesky_fails(a.T @ a)
        assert falls_back(a)

    def test_float32_kappa_1e6_falls_back(self):
        a = conditioned_matrix(2000, 20, 1e6, 13, np.float32)
        assert cholesky_fails(a.T @ a)
        assert falls_back(a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_falls_back(self, dtype, bad):
        # The Cholesky factors of a NaN Gram come back NaN without an error,
        # so only the NaN-safe guards send this input to qr_R, whose
        # non-finite R then raises NonFiniteInput.
        a = np.random.default_rng(14).standard_normal((50, 5)).astype(dtype)
        a[7, 2] = bad
        assert falls_back(a)

    def test_float32_gram_overflow_falls_back(self):
        a = np.random.default_rng(29).standard_normal((500, 10)).astype(np.float32)
        a[:, 3] *= np.float32(1e20)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(a.T @ a))
        assert falls_back(a)

    @pytest.mark.parametrize("dtype, cond", [(np.float64, 3e8), (np.float32, 1e4)])
    def test_defect_bound_falls_back(self, monkeypatch, dtype, cond):
        a = conditioned_matrix(200, 5, cond, 3, dtype)
        g2 = first_pass_gram(a)
        defect = np.linalg.norm(g2 - np.eye(5))
        assert np.all(np.isfinite(g2)) and not cholesky_fails(g2)
        assert defect > CHOLQR_MAX_DEFECT
        assert falls_back(a)
        # With the condition test out of the way, the defect test alone
        # sends it there.
        monkeypatch.setattr(svd, "CHOLQR_MAX_COND", np.inf)
        assert falls_back(a)
        monkeypatch.setattr(svd, "CHOLQR_MAX_DEFECT", 2 * defect)
        assert not falls_back(a)

    @pytest.mark.parametrize("cond", [1e5, 1e7])
    def test_condition_bound_falls_back(self, monkeypatch, cond):
        # float64 kappa = 1e5 and 1e7: the first pass stays nearly orthogonal,
        # but the GEMM against R1^-1 would cost accuracy.
        a = conditioned_matrix(200, 5, cond, 3, np.float64)
        g2 = first_pass_gram(a)
        assert not cholesky_fails(g2)
        assert np.linalg.norm(g2 - np.eye(5)) <= CHOLQR_MAX_DEFECT
        assert first_factor_cond(a) > CHOLQR_MAX_COND
        assert falls_back(a)
        # The condition test alone sent it there.
        monkeypatch.setattr(svd, "CHOLQR_MAX_COND", np.inf)
        assert not falls_back(a)

    def test_benchmark_shapes_take_one_pass(self):
        # Standard-normal matrices as the benchmark draws them, and their
        # halves: 1e5 x 50 and its halves (kappa about 1.06), 2e4 x 250
        # (1.24) and its halves (1.37) are all within the one-pass bound.
        blocks = [
            random_rows(15, start, 50_000, 50, "standard-normal", dtype)
            for start in (0, 50_000)
            for dtype in (np.float32, np.float64)
        ] + [
            random_rows(15, start, rows, 250, "standard-normal", np.float64)
            for start, rows in ((0, 20_000), (0, 10_000), (10_000, 10_000))
        ]
        for a in blocks:
            assert np.array_equal(solo_R(a), one_pass_factor(a))
            assert not takes_second_pass(a)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_short_block_is_zero_padded(self, rows, dtype, shifted):
        # Fewer rows than n = 5: the Gram is singular, and the Householder
        # band factors the rows stacked under its n x n zero seed, so every
        # stack has at least n rows and nothing is padded.
        rng = np.random.default_rng(16)
        a = rng.standard_normal((rows, 5)).astype(dtype)
        shift = rng.standard_normal(5).astype(dtype) if shifted else None
        x = a if shift is None else a - shift
        r = solo_R(a, shift)
        assert r.dtype == dtype
        assert np.array_equal(r, one_chunk_fold(x))
        assert np.all(np.tril(r, -1) == 0) and np.all(np.diag(r) >= 0)
        gram = x.T.astype(np.float64) @ x
        tol = 100 * np.finfo(dtype).eps * max(1.0, np.max(np.abs(gram)))
        assert np.max(np.abs(r.T.astype(np.float64) @ r - gram)) <= tol


class TestSolveTriangularRight:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        r = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
        x = rng.standard_normal((8, 5))
        assert np.allclose(solve_triangular_right(x @ r, r), x, atol=1e-12)

    def test_singular_rejected(self):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0
        with pytest.raises(ShapeError, match="singular"):
            solve_triangular_right(np.ones((2, 3)), r)


def eigen_2x2_oracle(mat):
    """Characteristic polynomial roots for a symmetric 2x2."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    half_tr = (a + c) / 2.0
    disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return np.array([half_tr + disc, half_tr - disc])


class TestSymEigen:
    def test_diagonal_input(self):
        values, _ = sym_eigen(np.diag([1.0, 4.0, 2.0]))
        assert np.array_equal(values, [4.0, 2.0, 1.0])

    def test_identity(self):
        values, _ = sym_eigen(np.eye(5))
        assert np.array_equal(values, np.ones(5))

    def test_two_by_two_matches_characteristic_polynomial(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        values, vectors = sym_eigen(mat)
        assert np.allclose(values, eigen_2x2_oracle(mat), atol=1e-14)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-14)
        assert np.allclose(vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_on_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((50, 50))
        n_mat = (g + g.T) / 2
        values, vectors = sym_eigen(n_mat)
        resid = np.max(np.abs(n_mat @ vectors - vectors * values))
        assert resid <= 1e-12 * np.max(np.abs(n_mat))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(50))) <= 1e-12

    def test_trace_conserved(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((40, 40))
        n_mat = g @ g.T
        values, _ = sym_eigen(n_mat)
        trace = np.trace(n_mat)
        assert abs(np.sum(values) - trace) <= 1e-12 * abs(trace)

    def test_descending_with_stable_ties(self):
        values, _ = sym_eigen(np.diag([2.0, 3.0, 2.0, 1.0]))
        assert np.array_equal(values, [3.0, 2.0, 2.0, 1.0])

    def test_sign_rule(self):
        values, vectors = sym_eigen(np.diag([5.0, 1.0]))
        assert vectors[0, 0] > 0 and vectors[1, 1] > 0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            sym_eigen(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        mat = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ShapeError, match="symmetric"):
            sym_eigen(mat)

    def test_mild_asymmetry_averaged(self):
        mat = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        values, _ = sym_eigen(mat)
        assert np.allclose(values, [3.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        mat = np.array([[2.0, 0.0], [0.0, 1.0]])
        mat[where] = bad
        with pytest.raises(NonFiniteInput):
            sym_eigen(mat)

    def test_symmetrizing_does_not_overflow(self):
        # Every entry is finite in float32, but a + a^T is not.
        mat = np.array([[2e38, 1e38], [1e38, 2e38]], dtype=np.float32)
        values, _ = sym_eigen(mat)
        assert np.allclose(values, [3e38, 1e38], rtol=1e-6)

    def test_float32(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((20, 20)).astype(np.float32)
        n_mat = (g + g.T) / np.float32(2)
        values, vectors = sym_eigen(n_mat)
        assert values.dtype == np.float32
        resid = np.max(np.abs(n_mat @ vectors - vectors * values))
        assert resid <= 1e-4 * np.max(np.abs(n_mat))


class TestSmallSvd:
    def test_diagonal(self):
        sigma, _, _ = small_svd(np.diag([3.0, 2.0]))
        assert np.array_equal(sigma, [3.0, 2.0])

    def test_permuted_diagonal(self):
        sigma, _, _ = small_svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.array_equal(sigma, [2.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sqrt_of_gram_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((5, 3))
        sigma, _, _ = small_svd(b)
        lam, _ = sym_eigen(b.T @ b)
        want = np.sqrt(np.maximum(lam, 0))
        assert np.max(np.abs(sigma - want) / want) <= 1e-12

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (6, 6), (9, 1), (1, 5)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(sum(shape))
        b = rng.standard_normal(shape)
        sigma, u, vt = small_svd(b)
        err = np.linalg.norm(b - (u * sigma) @ vt)
        assert err <= 1e-13 * np.linalg.norm(b)
        r = min(shape)
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-13
        assert np.max(np.abs(vt @ vt.T - np.eye(r))) <= 1e-13

    def test_descending(self):
        rng = np.random.default_rng(10)
        sigma, _, _ = small_svd(rng.standard_normal((12, 8)))
        assert np.all(np.diff(sigma) <= 0)
        assert np.all(sigma >= 0)

    def test_rank_deficient(self):
        b = np.ones((6, 3))
        sigma, u, vt = small_svd(b)
        assert sigma[0] == pytest.approx(np.sqrt(18), rel=1e-14)
        assert np.all(sigma[1:] <= 1e-12 * sigma[0])
        err = np.linalg.norm(b - (u * sigma) @ vt)
        assert err <= 1e-13 * np.linalg.norm(b)

    def test_zero_matrix(self):
        sigma, u, vt = small_svd(np.zeros((4, 2)))
        assert np.array_equal(sigma, np.zeros(2))
        assert np.array_equal(u, np.zeros((4, 2)))

    def test_float32_reconstruction(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((8, 5)).astype(np.float32)
        sigma, u, vt = small_svd(b)
        assert sigma.dtype == np.float32
        err = np.linalg.norm(b - (u * sigma) @ vt)
        assert err <= 1e-5 * np.linalg.norm(b)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            small_svd(np.zeros((0, 3)))

    def test_lapack_failure_raises_convergence_error(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((30, 20))
        b[4, 7] = np.nan
        with pytest.raises(ConvergenceError):
            small_svd(b)
        gram = rng.standard_normal((20, 20))
        gram = gram @ gram.T
        gram[7, :] = gram[:, 7] = np.nan
        with pytest.raises(ConvergenceError):
            sym_eigen(gram)
        assert issubclass(ConvergenceError, RuntimeError)
