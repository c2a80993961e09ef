import numpy as np
import pytest

from tallskinny.dense import (
    ConvergenceError,
    ShapeError,
    UnsupportedShape,
    gemm,
    qr_Q,
    qr_R,
    small_svd,
    solve_triangular_right,
    sym_eigen,
)


def gemm_oracle(transpose_a, a, b):
    """Brute-force triple loop; deliberately ignorant of numpy matmul."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if transpose_a:
        a = a.T
    m, kk = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(kk):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


class TestGemm:
    def test_identity_passthrough(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(gemm(False, np.eye(3), b), b)

    def test_transpose_column(self):
        a = np.array([[3.0], [4.0]])
        assert np.array_equal(gemm(True, a, a), [[25.0]])

    def test_two_by_two(self):
        out = gemm(False, [[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out, [[19.0, 22.0], [43.0, 50.0]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transpose_a", [False, True])
    def test_matches_triple_loop(self, seed, transpose_a):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 4) if not transpose_a else (4, 6))
        b = rng.standard_normal((4, 3))
        want = gemm_oracle(transpose_a, a, b)
        got = gemm(transpose_a, a, b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            gemm(False, np.ones((2, 3)), np.ones((2, 2)))

    def test_mixed_precision_rejected(self):
        with pytest.raises(ShapeError, match="precision"):
            gemm(False, np.ones((2, 2), np.float32), np.ones((2, 2), np.float64))

    def test_float32_stays_float32(self):
        out = gemm(False, np.ones((2, 2), np.float32), np.ones((2, 2), np.float32))
        assert out.dtype == np.float32


class TestQr:
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
        values, vectors = sym_eigen(mat, want_vectors=True)
        assert np.allclose(values, eigen_2x2_oracle(mat), atol=1e-14)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-14)
        assert np.allclose(vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_on_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((50, 50))
        n_mat = (g + g.T) / 2
        values, vectors = sym_eigen(n_mat, want_vectors=True)
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
        values, vectors = sym_eigen(np.diag([5.0, 1.0]), want_vectors=True)
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

    def test_float32(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((20, 20)).astype(np.float32)
        n_mat = (g + g.T) / np.float32(2)
        values, vectors = sym_eigen(n_mat, want_vectors=True)
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
        sigma, u, vt = small_svd(b, want_u=True, want_vt=True)
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

    def test_optional_factors_default_off(self):
        sigma, u, vt = small_svd(np.eye(3))
        assert u is None and vt is None
        assert np.array_equal(sigma, np.ones(3))

    def test_rank_deficient(self):
        b = np.ones((6, 3))
        sigma, u, vt = small_svd(b, want_u=True, want_vt=True)
        assert sigma[0] == pytest.approx(np.sqrt(18), rel=1e-14)
        assert np.all(sigma[1:] <= 1e-12 * sigma[0])
        err = np.linalg.norm(b - (u * sigma) @ vt)
        assert err <= 1e-13 * np.linalg.norm(b)

    def test_zero_matrix(self):
        sigma, u, vt = small_svd(np.zeros((4, 2)), want_u=True, want_vt=True)
        assert np.array_equal(sigma, np.zeros(2))
        assert np.array_equal(u, np.zeros((4, 2)))

    def test_float32_reconstruction(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((8, 5)).astype(np.float32)
        sigma, u, vt = small_svd(b, want_u=True, want_vt=True)
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
