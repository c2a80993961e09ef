"""Property tests for the contracts the distributed layer relies on.

QR: exact zeros below the diagonal, a nonnegative diagonal, and Q whose
column signs match R. Eigen and SVD: descending values, the sign rule
(each vector's largest-magnitude entry is positive) and zero u columns at
sigma = 0. Inputs cover float32 and float64, m >= n with m == n and n == 1,
negative leading entries, and zero or repeated columns. The distributed R
(svd.qr_allreduce: Cholesky QR of the summed Gram, or its Householder
band) also gets a sweep over the condition number, on one rank and on
three, across its one-pass, two-pass and Householder bands, where its
singular values must meet the bound svdbench verify applies, as qr_R's do.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tallskinny.bench import verify_tolerance
from tallskinny import dense, svd
from tallskinny.comm import run_ranks
from tallskinny.dense import qr_Q, qr_R, small_svd, sym_eigen
from tallskinny.distmat import distribute
from tallskinny.svd import qr_allreduce

ENTRIES = st.floats(-100, 100, width=32, allow_subnormal=False)


@st.composite
def tall_matrices(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 3 * n + 2))
    a = draw(arrays(dtype, (m, n), elements=ENTRIES))
    if draw(st.booleans()):
        a[0] = -np.abs(a[0])
    column = draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "zero", "repeat", "all-zero"]))
    if edit == "zero":
        a[:, column] = 0
    elif edit == "repeat":
        a[:, column] = a[:, 0]
    elif edit == "all-zero":
        a[:] = 0
    return a


# Condition numbers swept per precision, f64 up to 1e7 and f32 up to 1e6:
# both cross sqrt(2), where qr_allreduce's one Cholesky QR pass gives way
# to two, and the few thousand where it hands over to qr_R.
NEAR_ONE_PASS_BOUND = (1.2, 1.40, 1.43, 2.0)
KAPPA_SWEEP = [
    (np.float64, k) for k in (1.0, *NEAR_ONE_PASS_BOUND, 1e1, 1e3, 1e5, 1e7)
] + [
    (np.float32, k) for k in (1.0, *NEAR_ONE_PASS_BOUND, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
]


def conditioned(dtype, kappa, m, n, scale, seed):
    """U diag(s) V^T, s log-spaced from scale down to scale / kappa."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((m, n)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0]
    values = scale * np.logspace(0, -math.log10(kappa), n)
    return ((left * values) @ right.T).astype(dtype)


@st.composite
def tall_shapes(draw):
    n = draw(st.integers(1, 8))
    return draw(st.integers(n, 40 * n)), n


@st.composite
def symmetric_matrices(draw):
    a = draw(tall_matrices())
    n = a.shape[1]
    return (a[:n] + a[:n].T) * a.dtype.type(0.5)


def tol(a, factor=1.0):
    """Backward-error bound: a small multiple of size * eps * ||a||."""
    return 30 * sum(a.shape) * np.finfo(a.dtype).eps * factor


def sign_rule_holds(v):
    idx = np.argmax(np.abs(v), axis=0)
    return bool(np.all(v[idx, np.arange(v.shape[1])] >= 0))


def f64(x):
    return x.astype(np.float64)


@given(tall_matrices())
def test_qr_contracts(a):
    r = qr_R(a)
    q = qr_Q(a)
    n = a.shape[1]
    assert r.shape == (n, n) and q.shape == a.shape
    assert r.dtype == q.dtype == a.dtype
    assert np.count_nonzero(np.tril(r, -1)) == 0
    assert np.all(np.diag(r) >= 0)
    norm = np.linalg.norm(f64(a))
    assert np.linalg.norm(f64(q) @ f64(r) - a) <= tol(a, norm)
    assert np.max(np.abs(f64(q).T @ f64(q) - np.eye(n))) <= tol(a)
    # Q^T A = R holds only if each column of Q carries its row of R's sign.
    assert np.linalg.norm(f64(q).T @ f64(a) - r) <= tol(a, norm)


@given(symmetric_matrices())
def test_sym_eigen_contracts(s):
    values, vectors = sym_eigen(s)
    assert values.dtype == vectors.dtype == s.dtype
    assert np.all(np.diff(values) <= 0)
    assert sign_rule_holds(vectors)
    resid = f64(s) @ f64(vectors) - f64(vectors) * f64(values)
    assert np.linalg.norm(resid) <= tol(s, np.linalg.norm(f64(s)))
    n = s.shape[0]
    assert np.max(np.abs(f64(vectors).T @ f64(vectors) - np.eye(n))) <= tol(s)


@given(tall_matrices(), st.booleans())
def test_small_svd_contracts(a, wide):
    b = np.ascontiguousarray(a.T) if wide else a
    sigma, u, vt = small_svd(b)
    assert sigma.dtype == u.dtype == vt.dtype == b.dtype
    assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)
    assert sign_rule_holds(vt.T)
    assert np.all(u[:, sigma == 0] == 0)
    # u follows v's signs, so the factors still reconstruct b.
    recon = (f64(u) * f64(sigma)) @ f64(vt)
    assert np.linalg.norm(recon - b) <= tol(b, np.linalg.norm(f64(b)))


def check_r_backward_stable(dtype, kappa, shape, exponent, seed, size=1):
    """qr_allreduce's R of a on `size` ranks, bitwise the same on each,
    meets verify's gate as qr_R's does."""
    a = conditioned(dtype, kappa, *shape, 10.0**exponent, seed)
    want = np.linalg.svd(f64(a), compute_uv=False)
    # verify's gate: |d sigma_i| <= 2 lambda n (u + u64) sigma_1.
    bound = verify_tolerance("tssvd", want, dtype)
    with mock.patch.object(svd, "crossprod", wraps=svd.crossprod) as grams:
        rs = run_ranks(size, lambda comm: qr_allreduce(distribute(comm, a)))
    r_chol = rs[0]
    assert all(np.array_equal(r, r_chol) for r in rs)
    # One pass up to kappa = sqrt(2), two just past it, at any rank count:
    # the second pass is the crossprod with a right factor, R1^-1.
    second = [c for c in grams.call_args_list if len(c.args) > 1 or "right" in c.kwargs]
    if kappa <= 1.40:
        assert not second
    elif kappa <= 2 and shape[1] > 1:
        assert second
    for r in (qr_R(a), r_chol):
        assert r.dtype == a.dtype
        assert np.count_nonzero(np.tril(r, -1)) == 0
        assert np.all(np.diag(r) >= 0)
        got = np.linalg.svd(f64(r), compute_uv=False)
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("dtype, kappa", KAPPA_SWEEP)
@given(tall_shapes(), st.integers(-3, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_tall_R_backward_stable(dtype, kappa, shape, exponent, seed):
    check_r_backward_stable(dtype, kappa, shape, exponent, seed)


@pytest.mark.parametrize("dtype, kappa", KAPPA_SWEEP)
@given(tall_shapes(), st.integers(-3, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_tall_R_backward_stable_in_n_row_chunks(dtype, kappa, shape, exponent, seed):
    # At m <= 40 n the default chunk holds every draw whole; n-row chunks
    # walk up to 40 of them, and most draws end on a short one.
    with mock.patch.multiple(dense, PASS_CHUNK_BYTES=1, PASS_CHUNK_MIN_ROWS_PER_COL=1):
        check_r_backward_stable(dtype, kappa, shape, exponent, seed)


@pytest.mark.parametrize("dtype, kappa", KAPPA_SWEEP)
@given(tall_shapes(), st.integers(-3, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_qr_allreduce_backward_stable_on_three_ranks(dtype, kappa, shape, exponent, seed):
    # The band is decided on the Gram summed over the ranks, so it is the
    # one-rank band whatever the blocks' own condition numbers. Blocks
    # shorter than n fold under the Householder band's n x n zero seed.
    check_r_backward_stable(dtype, kappa, shape, exponent, seed, size=3)
