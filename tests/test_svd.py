from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tallskinny import dense, svd
from tallskinny.bench import verify_tolerance
from tallskinny.comm import ReduceOperator, RankFailures, run_ranks, solo_communicator
from tallskinny.dense import (
    NonFiniteInput,
    ShapeError,
    UnsupportedDtype,
    UnsupportedShape,
    chunk_rows,
    gram,
    qr_Q,
    qr_R,
    small_svd,
)
from tallskinny.distmat import (
    STREAM_PROJECTION,
    block_rows,
    distribute,
    generate_random,
    mean_center_columns,
    mult_local,
    random_rows,
)
from tallskinny.matrices import conditioned_matrix, low_rank_noise_matrix
from tallskinny.pca import pca
from tallskinny.svd import (
    DegenerateProjection,
    ParameterError,
    RsvdParams,
    qr_allreduce,
    rank_tolerance,
    recover_U,
    route,
    svd_normal_equations,
    svd_randomized,
    svd_tsqr,
)


def orthogonal_columns_matrix(norms, rows):
    """Columns along distinct axes with the given norms; sigma is exact."""
    out = np.zeros((rows, len(norms)))
    for j, norm in enumerate(norms):
        out[j, j] = norm
    return out


def max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / want))


def random_full(m, n, seed):
    """The matrix generate_random distributes, whole."""
    return generate_random(solo_communicator(), m, n, seed=seed).local


def rank_one_matrix(m, n, sigma, seed):
    """sigma u v^T for random unit vectors u and v."""
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(m)
    v0 = rng.standard_normal(n)
    return sigma * np.outer(u0 / np.linalg.norm(u0), v0 / np.linalg.norm(v0))


class TestNormalEquations:
    def test_stacked_identities(self):
        def worker(comm):
            return svd_normal_equations(distribute(comm, np.vstack([np.eye(3), np.eye(3)]))).sigma

        sigma = run_ranks(2, worker)[0]
        assert np.allclose(sigma, np.sqrt(2) * np.ones(3), rtol=1e-14)

    def test_orthogonal_columns(self):
        a = distribute(solo_communicator(), orthogonal_columns_matrix([3, 2, 1], 8))
        sigma = svd_normal_equations(a).sigma
        assert np.allclose(sigma, [3, 2, 1], rtol=1e-13)

    def test_random_matches_gathered_oracle(self):
        def worker(comm):
            return svd_normal_equations(generate_random(comm, 100, 8, seed=42)).sigma

        sigma = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(random_full(100, 8, 42))
        compare = oracle >= 1e-6 * oracle[0]
        assert max_rel_err(sigma[compare], oracle[compare]) <= 1e-10

    def test_factors_orthonormal(self):
        def worker(comm):
            a = generate_random(comm, 60, 6, seed=1)
            res = svd_normal_equations(a, want_u=True)
            return res.sigma, res.u.local, res.v

        out = run_ranks(2, worker)
        sigma, _, v = out[0]
        u = np.vstack([u for _, u, _ in out])
        full = random_full(60, 6, 1)
        assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(recon - full) <= 1e-10 * np.linalg.norm(full)

    def test_wide_rejected(self):
        a = distribute(solo_communicator(), np.ones((3, 3)))
        with pytest.raises(UnsupportedShape):
            svd_normal_equations(a)


def count_calls(monkeypatch, module, name):
    """Count calls of module.name for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_grams(monkeypatch):
    """Record each svd.crossprod call, over all ranks, for the rest of the
    test: "first" for the Gram A^T A, "second" for one with a right factor,
    R1^-1, which is Cholesky QR2's second Gram."""
    calls = []
    original = svd.crossprod

    def counted(a, right=None):
        calls.append("first" if right is None else "second")
        return original(a, right)

    monkeypatch.setattr(svd, "crossprod", counted)
    return calls


def count_combines(monkeypatch):
    """Count QR_REDUCE's combines, over all ranks, for the rest of the test."""
    combines = []

    def combine(lower, higher):
        combines.append(1)
        return svd._stack_and_factor(lower, higher)

    monkeypatch.setattr(svd, "QR_REDUCE", ReduceOperator(svd.QR_REDUCE.name, combine))
    return combines


def tree_full(m, n, seed):
    """kappa = 1e6: qr_allreduce's condition guard sends it to the TSQR tree."""
    return conditioned_matrix(m, n, 1e6, seed)


class TestQrAllreduce:
    def test_single_rank_unchanged(self, monkeypatch):
        # One rank: R is its band's own factor, with no tree combine. This
        # 30 x 4 draw (kappa_2 = 2.1) takes both Cholesky QR passes.
        combines = count_combines(monkeypatch)
        full = random_full(30, 4, 8)
        got = qr_allreduce(distribute(solo_communicator(), full))
        r1 = np.linalg.cholesky(gram(full)).T
        q1 = full @ np.linalg.inv(r1)
        assert np.array_equal(got, np.triu(np.linalg.cholesky(gram(q1)).T @ r1))
        # kappa = 1e6 takes the Householder band: the block, one chunk, is
        # folded onto the n x n zero seed in float64.
        full = tree_full(30, 4, 8)
        got = qr_allreduce(distribute(solo_communicator(), full))
        assert np.array_equal(got, qr_R(np.vstack((np.zeros((4, 4)), full))).astype(full.dtype))
        assert combines == []

    def test_stacked_identities(self):
        def worker(comm):
            return qr_allreduce(distribute(comm, np.vstack((np.eye(3), np.eye(3)))))

        for got in run_ranks(2, worker):
            assert np.allclose(got, np.sqrt(2) * np.eye(3), rtol=1e-15)

    @pytest.mark.parametrize("size", [2, 3, 4, 7])
    def test_matches_gathered_qr(self, monkeypatch, size):
        # Random input takes a Cholesky QR band and no tree; kappa = 1e6
        # takes the tree, whose p - 1 combines make a binary tree.
        m = 64 if size != 7 else 63
        combines = count_combines(monkeypatch)
        for full, tree in ((random_full(m, 6, 9), False), (tree_full(m, 6, 9), True)):
            combines.clear()
            got = run_ranks(size, lambda comm: qr_allreduce(distribute(comm, full)))[0]
            want = qr_R(full)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert len(combines) == (size - 1 if tree else 0)

    def test_gram_identity(self):
        r = run_ranks(4, lambda comm: qr_allreduce(generate_random(comm, 40, 5, seed=10)))[0]
        full = random_full(40, 5, 10)
        gram = full.T @ full
        assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_result_normalized(self, monkeypatch):
        combines = count_combines(monkeypatch)
        for full, tree in ((random_full(48, 6, 11), False), (tree_full(48, 6, 11), True)):
            combines.clear()
            r = run_ranks(3, lambda comm: qr_allreduce(distribute(comm, full)))[0]
            assert np.all(np.diag(r) >= 0)
            assert np.count_nonzero(np.tril(r, -1)) == 0
            assert len(combines) == (2 if tree else 0)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_centered_matches_explicitly_centered(self, monkeypatch, size):
        # The shift reaches every band: R is that of the centered rows, not
        # of the block, whose column means are 3.
        combines = count_combines(monkeypatch)

        def worker(comm):
            return qr_allreduce(mean_center_columns(distribute(comm, full))[0])

        for full, tree in ((random_full(60, 5, 12), False), (tree_full(60, 5, 12), True)):
            combines.clear()
            full = full + 3.0
            got = run_ranks(size, worker)[0]
            want = qr_R(full - full.mean(axis=0))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert len(combines) == (size - 1 if tree else 0)

    def test_ranks_without_rows(self, monkeypatch):
        # 5 rows over 8 ranks: ranks 5, 6 and 7 hold none. In the tree,
        # a rank's R starts as 3 x 3 zeros, and a rank without rows keeps it.
        combines = count_combines(monkeypatch)

        def worker(comm):
            a = distribute(comm, full)
            return a.block.shape[0], qr_allreduce(a)

        for full, tree in ((random_full(5, 3, 13), False), (tree_full(5, 3, 13), True)):
            combines.clear()
            out = run_ranks(8, worker)
            assert [rows for rows, _ in out] == [1, 1, 1, 1, 1, 0, 0, 0]
            want = qr_R(full)
            for _, got in out:
                assert np.array_equal(got, out[0][1])
            assert np.max(np.abs(out[0][1] - want)) <= 1e-12 * np.max(np.abs(want))
            assert len(combines) == (7 if tree else 0)


class TestBands:
    """One band per group, decided on the summed Gram, at any rank count."""

    BAND_INPUTS = {
        "one-pass": lambda dtype: random_rows(40, 0, 2000, 20, "standard-normal", dtype),
        "two-pass": lambda dtype: conditioned_matrix(2000, 20, 1e2, 41, dtype),
        "tree": lambda dtype: conditioned_matrix(2000, 20, 1e6, 42, dtype),
    }

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("band", list(BAND_INPUTS))
    def test_each_input_takes_its_band(self, monkeypatch, band, dtype, size):
        # Standard-normal 2000 x 20 (kappa_2 about 1.2) is read once at
        # every rank count; its blocks at p = 4 and 7 are above sqrt(2), so
        # a per-rank decision would read them twice.
        full = self.BAND_INPUTS[band](dtype)
        grams = count_grams(monkeypatch)
        householder = count_calls(monkeypatch, svd, "qr_R")
        combines = count_combines(monkeypatch)
        rs = run_ranks(size, lambda comm: qr_allreduce(distribute(comm, full)))
        assert grams.count("second") == (size if band == "two-pass" else 0)
        assert len(combines) == (size - 1 if band == "tree" else 0)
        # In the tree each rank folds its block, one chunk here, and each
        # combine factors its pair.
        assert len(householder) == (2 * size - 1 if band == "tree" else 0)
        for r in rs:
            assert r.dtype == dtype
            assert np.array_equal(r, rs[0])
            assert np.count_nonzero(np.tril(r, -1)) == 0 and np.all(np.diag(r) >= 0)


class TestTsqrBands:
    """svd_tsqr forms the summed Gram and its sym_eigen once per rank. The
    one-pass band answers from them as svd_normal_equations does; every
    other band hands the Gram to the CholQR2-or-tree code qr_allreduce
    shares."""

    @staticmethod
    def run(size, full, centered, route):
        def worker(comm):
            a = distribute(comm, full)
            if centered:
                a = mean_center_columns(a)[0]
            return route(a)

        return run_ranks(size, worker)[0]

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_pass_band_is_cpsvd_bitwise(self, monkeypatch, dtype, centered, size):
        full = TestBands.BAND_INPUTS["one-pass"](dtype)
        want = self.run(size, full, centered, svd_normal_equations)
        grams = count_grams(monkeypatch)
        factors = count_calls(monkeypatch, svd, "small_svd")
        got = self.run(size, full, centered, svd_tsqr)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.v, want.v)
        assert got.sigma.dtype == got.v.dtype == dtype
        assert grams == ["first"] * size
        assert factors == []

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("band", ["two-pass", "tree"])
    def test_other_bands_reuse_the_gram(self, monkeypatch, band, dtype, size):
        full = TestBands.BAND_INPUTS[band](dtype)
        want = self.run(size, full, False, svd_normal_equations)
        grams = count_grams(monkeypatch)
        eigens = count_calls(monkeypatch, svd, "sym_eigen")
        factors = count_calls(monkeypatch, svd, "small_svd")
        got = self.run(size, full, False, svd_tsqr)
        assert not np.array_equal(got.sigma, want.sigma)
        # No Gram and no eigen solve twice: one of each per rank, plus
        # Cholesky QR2's second Gram, and R's SVD.
        assert grams.count("first") == size
        assert grams.count("second") == (size if band == "two-pass" else 0)
        assert len(eigens) == size
        assert len(factors) == size
        oracle = np.linalg.svd(full.astype(np.float64), compute_uv=False)
        assert np.all(np.abs(got.sigma - oracle) <= verify_tolerance("tssvd", oracle, dtype))


def folded_R(x):
    """The Householder band's R of one rank's rows x, written out: each
    chunk stacked under the running float64 R and factored, from n x n
    zeros, then cast to x's dtype once."""
    n = x.shape[1]
    chunk = chunk_rows(x, n)
    r = np.zeros((n, n))
    for start in range(0, x.shape[0], chunk):
        r = qr_R(np.vstack((r, x[start : start + chunk])))
    return r.astype(x.dtype)


class TestTreeBandFold:
    """kappa = 1e6 takes the Householder band, where each rank folds its
    rows into R chunk by chunk. With 1 KiB chunks a chunk is the floor of
    4n rows, so every rank's block spans at least 3 of them."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_multi_chunk_blocks(self, monkeypatch, dtype, shifted, size):
        monkeypatch.setattr(dense, "PASS_CHUNK_BYTES", 1024)
        m, n = 500, 10
        full = conditioned_matrix(m, n, 1e6, 43, dtype)
        chunk = chunk_rows(full, n)
        assert min(block_rows(m, size)) >= 3 * chunk
        householder = count_calls(monkeypatch, svd, "qr_R")

        def worker(comm):
            a = distribute(comm, full)
            if shifted:
                a = mean_center_columns(a)[0]
            return qr_allreduce(a), a.shift

        out = run_ranks(size, worker)
        # One factor per chunk on each rank, and one per combine.
        chunks = sum(-(-rows // chunk) for rows in block_rows(m, size))
        assert len(householder) == chunks + size - 1
        r, shift = out[0]
        for got, _ in out:
            assert np.array_equal(got, r)
        assert r.dtype == dtype
        assert np.count_nonzero(np.tril(r, -1)) == 0 and np.all(np.diag(r) >= 0)
        x = full if shift is None else full - shift
        oracle = np.linalg.svd(x.astype(np.float64), compute_uv=False)
        error = np.abs(small_svd(r)[0] - oracle)
        assert np.all(error <= verify_tolerance("tssvd", oracle, dtype))
        if size == 1:
            assert np.array_equal(r, folded_R(x))


class TestTsqr:
    def test_orthogonal_columns(self):
        def worker(comm):
            a = distribute(comm, orthogonal_columns_matrix([3, 2, 1], 9))
            return svd_tsqr(a).sigma

        sigma = run_ranks(3, worker)[0]
        assert np.allclose(sigma, [3, 2, 1], rtol=1e-13)

    def test_random_matches_gathered_oracle(self):
        def worker(comm):
            return svd_tsqr(generate_random(comm, 200, 10, seed=12)).sigma

        sigma = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(random_full(200, 10, 12))
        assert max_rel_err(sigma, oracle) <= 1e-12

    def test_agrees_with_normal_equations(self):
        def worker(comm):
            a = generate_random(comm, 150, 9, seed=13)
            return svd_tsqr(a).sigma, svd_normal_equations(a).sigma

        ts, cp = run_ranks(2, worker)[0]
        assert max_rel_err(ts, cp) <= 1e-9

    def test_local_blocks_shorter_than_n(self):
        def worker(comm):
            a = generate_random(comm, 10, 6, seed=14)  # blocks of 3,3,2,2 rows
            return svd_tsqr(a).sigma

        sigma = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(random_full(10, 6, 14))
        assert max_rel_err(sigma, oracle) <= 1e-12

    def test_empty_local_blocks(self):
        def worker(comm):
            a = generate_random(comm, 5, 3, seed=15)  # three ranks get 0 rows
            return svd_tsqr(a).sigma

        sigma = run_ranks(8, worker)[0]
        oracle, _, _ = small_svd(random_full(5, 3, 15))
        assert max_rel_err(sigma, oracle) <= 1e-12

    # kappa = 1e6 twins of the two tests above, which the tree does reach:
    # each rank with rows folds its block onto the n x n zero seed, and the
    # p - 1 combines stack the ranks' factors.
    @pytest.mark.parametrize(
        "m, n, size, seed", [(10, 6, 4, 14), (5, 3, 8, 15)], ids=["short", "empty"]
    )
    def test_short_and_empty_blocks_in_the_tree(self, monkeypatch, m, n, size, seed):
        full = tree_full(m, n, seed)
        householder = count_calls(monkeypatch, svd, "qr_R")
        sigma = run_ranks(size, lambda comm: svd_tsqr(distribute(comm, full)).sigma)[0]
        with_rows = sum(rows > 0 for rows in block_rows(m, size))
        assert len(householder) == with_rows + size - 1
        oracle = np.linalg.svd(full, compute_uv=False)
        assert np.all(np.abs(sigma - oracle) <= verify_tolerance("tssvd", oracle, np.float64))

    def test_reconstruction_full_rank(self):
        def worker(comm):
            a = generate_random(comm, 300, 20, seed=16)
            res = svd_tsqr(a, want_u=True)
            return res.sigma, res.u.local, res.v

        out = run_ranks(4, worker)
        sigma, _, v = out[0]
        u = np.vstack([u for _, u, _ in out])
        full = random_full(300, 20, 16)
        assert np.max(np.abs(v.T @ v - np.eye(20))) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(20))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(full - recon) <= 1e-12 * np.linalg.norm(full)


class TestRandomized:
    def test_exact_rank_one(self):
        full = rank_one_matrix(300, 12, 10.0, 71)

        def worker(comm):
            a = distribute(comm, full)
            return svd_randomized(a, RsvdParams(k=1, q=0, seed=3)).sigma

        sigma = run_ranks(3, worker)[0]
        assert len(sigma) == 1
        assert abs(sigma[0] - 10.0) <= 1e-10 * 10.0

    @pytest.mark.parametrize("q", [0, 2])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_deficient_projection(self, dtype, size, k, q):
        # Y = A Omega has rank one, so its R factor is singular to working
        # precision, in float32 as in float64.
        full = rank_one_matrix(300, 12, 10.0, 71).astype(dtype)

        def worker(comm):
            return svd_randomized(distribute(comm, full), RsvdParams(k=k, q=q, seed=3)).sigma

        sigma = run_ranks(size, worker)[0]
        assert abs(sigma[0] - 10.0) <= 0.01 * 10.0

    def test_decaying_spectrum_top2_within_1pct(self):
        full = low_rank_noise_matrix(400, 30, [10, 9, 8, 7, 6], 0.0, seed=4)

        def worker(comm):
            return svd_randomized(distribute(comm, full), RsvdParams(k=2, q=2, seed=5)).sigma

        got = run_ranks(2, worker)[0]
        oracle, _, _ = small_svd(full)
        assert max_rel_err(got, oracle[:2]) <= 0.01

    def test_power_iterations_sharpen(self):
        full = low_rank_noise_matrix(500, 30, [4, 3, 2], 0.02, seed=6)
        oracle, _, _ = small_svd(full)

        def worker(comm):
            a = distribute(comm, full)
            errs = {}
            for q in (0, 2):
                got = svd_randomized(a, RsvdParams(k=3, q=q, seed=7)).sigma
                errs[q] = abs(got[2] - oracle[2]) / oracle[2]
            return errs

        errs = run_ranks(2, worker)[0]
        assert errs[2] <= errs[0]

    def test_uniform_projection(self):
        full = low_rank_noise_matrix(300, 20, [5, 4], 0.0, seed=8)

        def worker(comm):
            params = RsvdParams(k=2, q=1, projection="uniform01", seed=9)
            return svd_randomized(distribute(comm, full), params).sigma

        got = run_ranks(3, worker)[0]
        oracle, _, _ = small_svd(full)
        assert max_rel_err(got, oracle[:2]) <= 0.01

    def test_factors(self):
        full = low_rank_noise_matrix(200, 16, [6, 5, 4], 1e-9, seed=10)

        def worker(comm):
            a = distribute(comm, full)
            res = svd_randomized(a, RsvdParams(k=3, q=2, seed=11), want_u=True)
            return res.sigma, res.u.local, res.v

        out = run_ranks(2, worker)
        sigma, _, v = out[0]
        u = np.vstack([u for _, u, _ in out])
        assert u.shape == (200, 3) and v.shape == (16, 3)
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(full - recon) <= 1e-6 * np.linalg.norm(full)

    @pytest.mark.parametrize("q", [0, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "m, n, leading, k, size",
        [
            (10, 6, [10, 5], 2, 4),  # Y's blocks of 3, 3, 2, 2 rows, 2k = 4 cols
            (5, 3, [10], 1, 8),  # three ranks get 0 rows
        ],
        ids=["short", "empty"],
    )
    def test_short_local_blocks(self, m, n, leading, k, size, dtype, q):
        full = low_rank_noise_matrix(m, n, leading, 1e-6, seed=17, dtype=dtype)
        oracle = np.linalg.svd(full.astype(np.float64), compute_uv=False)[:k]

        def worker(comm):
            return svd_randomized(distribute(comm, full), RsvdParams(k=k, q=q, seed=18)).sigma

        sigma = run_ranks(size, worker)[0]
        assert np.all(np.abs(sigma - oracle) <= verify_tolerance("rsvd", oracle, dtype))

    def test_oversampling_must_fit(self):
        a = generate_random(solo_communicator(), 20, 5, seed=1)
        with pytest.raises(ParameterError, match="2k"):
            svd_randomized(a, RsvdParams(k=3, q=0))

    def test_k_bounds(self):
        a = generate_random(solo_communicator(), 20, 5, seed=1)
        with pytest.raises(ParameterError):
            svd_randomized(a, RsvdParams(k=0, q=0))
        with pytest.raises(ParameterError):
            svd_randomized(a, RsvdParams(k=2, q=-1))

    def test_unknown_projection(self):
        params = RsvdParams(k=2, q=1, projection="gaussian")
        with pytest.raises(ParameterError, match="projection"):
            params.validate(10)

        def worker(comm, solve):
            return solve(generate_random(comm, 40, 10, seed=1))

        for solve in (partial(svd_randomized, params=params),
                      partial(pca, method="rsvd", params=params)):
            with pytest.raises(RankFailures) as info:
                run_ranks(2, worker, solve)
            assert sorted(info.value.failures) == [0, 1]
            for exc in info.value.failures.values():
                assert isinstance(exc, ParameterError)

    @pytest.mark.parametrize("k, q", [(2.5, 1), (2, 1.5), (2.0, 1)])
    def test_non_integer_k_or_q_rejected(self, k, q):
        params = RsvdParams(k=k, q=q)
        with pytest.raises(ParameterError, match="integer"):
            params.validate(10)

        def worker(comm):
            return svd_randomized(generate_random(comm, 40, 10, seed=1), params)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        for exc in info.value.failures.values():
            assert isinstance(exc, ParameterError)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("params", [None, {"k": 2}, 2], ids=["none", "dict", "int"])
    def test_params_must_be_rsvd_params(self, params, size):
        def worker(comm):
            return svd_randomized(generate_random(comm, 40, 10, seed=1), params)

        with pytest.raises(RankFailures) as info:
            run_ranks(size, worker)
        assert sorted(info.value.failures) == list(range(size))
        for exc in info.value.failures.values():
            assert isinstance(exc, ParameterError) and "RsvdParams" in str(exc)

    @pytest.mark.parametrize("seed", [2.5, 2.9, None])
    def test_non_integer_seed_rejected_before_any_draw(self, monkeypatch, seed):
        params = RsvdParams(k=2, q=1, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            params.validate(10)
        data = generate_random(solo_communicator(), 40, 10, seed=1).local
        draws = []
        monkeypatch.setattr(svd, "random_rows", lambda *args, **kw: draws.append(args))

        def worker(comm):
            return svd_randomized(distribute(comm, data), params)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        for exc in info.value.failures.values():
            assert isinstance(exc, ParameterError) and "seed" in str(exc)
        assert draws == []

    def test_numpy_integer_seed_accepted(self):
        a = generate_random(solo_communicator(), 40, 10, seed=1)
        got = svd_randomized(a, RsvdParams(k=2, seed=np.int64(5)))
        assert np.array_equal(got.sigma, svd_randomized(a, RsvdParams(k=2, seed=5)).sigma)

    def test_numpy_integer_k_and_q_accepted(self):
        params = RsvdParams(k=np.int64(2), q=np.int32(1))
        params.validate(10)
        a = generate_random(solo_communicator(), 40, 10, seed=1)
        assert len(svd_randomized(a, params).sigma) == 2

    def test_zero_matrix_degenerate_projection(self):
        a = distribute(solo_communicator(), np.zeros((30, 6)))
        with pytest.raises(DegenerateProjection, match="seed"):
            svd_randomized(a, RsvdParams(k=2, q=0, seed=12))


class TestImplicitGuard:
    """Which side of svd_randomized's guard an input takes.

    The fast path never calls mult_transpose; the fallback calls it once,
    on the last step, on every rank to form Q1^T A, from which it solves
    B = Q_Y^T A = R2^-T Q1^T A. Both keep Q_Y implicit as left R^-1.
    """

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_data_stays_implicit(self, monkeypatch, dtype, size):
        passes = count_calls(monkeypatch, svd, "mult_transpose")

        def worker(comm):
            a = generate_random(comm, 3000, 20, seed=60, dtype=dtype)
            return svd_randomized(a, RsvdParams(k=3, q=2, seed=61)).sigma

        sigma = run_ranks(size, worker)[0]
        assert passes == []
        oracle = np.linalg.svd(random_full(3000, 20, 60), compute_uv=False)
        assert np.all(sigma <= oracle[:3] * (1 + 1e-5))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_deficient_falls_back(self, monkeypatch, dtype, size):
        passes = count_calls(monkeypatch, svd, "mult_transpose")
        full = rank_one_matrix(400, 10, 10.0, 62).astype(dtype)

        def worker(comm):
            return svd_randomized(distribute(comm, full), RsvdParams(k=2, q=0, seed=63)).sigma

        sigma = run_ranks(size, worker)[0]
        assert len(passes) == size
        assert abs(sigma[0] - 10.0) <= 1e-5 * 10.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_guard_is_what_keeps_rank_deficient_input_exact(self, monkeypatch, dtype):
        full = rank_one_matrix(400, 10, 10.0, 62).astype(dtype)
        a = distribute(solo_communicator(), full)
        params = RsvdParams(k=2, q=0, seed=63)
        monkeypatch.setattr(svd, "RSVD_IMPLICIT_MAX_GROWTH", np.finfo(np.float64).max)
        forced = svd_randomized(a, params).sigma
        assert abs(forced[0] - 10.0) > 0.01 * 10.0

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fallback_keeps_q_y_implicit(self, monkeypatch, dtype, size):
        # A rank-one A at q = 0 falls back, and _project returns the fast
        # path's form: an upper-triangular R with Q_Y = left R^-1. The
        # second factorization leaves that Q_Y orthonormal to rounding
        # however ill-conditioned Y was (observed: 4.4 eps).
        full = rank_one_matrix(400, 10, 10.0, 62).astype(dtype)
        params = RsvdParams(k=2, q=0, seed=63)
        basis = random_rows(
            params.seed, 0, 10, 4, params.projection, dtype, domain=STREAM_PROJECTION
        )

        def project(comm):
            _, left, r = svd._project(distribute(comm, full), basis)
            assert r is not None and np.array_equal(r, np.triu(r))
            return svd.mult_local(left, np.linalg.inv(r)).local

        q_y = np.vstack(run_ranks(size, project)).astype(np.float64)
        assert np.max(np.abs(q_y.T @ q_y - np.eye(4))) <= 40 * np.finfo(dtype).eps

        products = count_calls(monkeypatch, svd, "mult_local")
        run_ranks(size, lambda comm: svd_randomized(distribute(comm, full), params).sigma)
        assert len(products) == size

    def test_large_finite_w_stays_implicit(self, monkeypatch):
        # In float32 the column norms of R overflow past about 1.8e19
        # while W = A^T Y is still finite: the guard takes the fast path.
        full = np.random.default_rng(0).standard_normal((500, 10)).astype(np.float32)
        params = RsvdParams(k=2, q=0)
        scale = np.float32(2.0**58)

        def worker(comm, x):
            return svd_randomized(distribute(comm, x), params).sigma

        plain = run_ranks(2, worker, full)[0]
        passes = count_calls(monkeypatch, svd, "mult_transpose")
        scaled = run_ranks(2, worker, full * scale)[0]
        assert passes == []
        oracle = np.linalg.svd(full.astype(np.float64), compute_uv=False)
        bound = verify_tolerance("tssvd", oracle, np.float32)[:2]
        assert np.all(np.abs(scaled / scale - plain) <= bound)

    def test_overflowing_w_falls_back(self, monkeypatch):
        full = np.random.default_rng(0).standard_normal((500, 10)).astype(np.float32)
        scaled = full * np.float32(2.0**63)
        passes = count_calls(monkeypatch, svd, "mult_transpose")

        def worker(comm):
            return svd_randomized(distribute(comm, scaled), RsvdParams(k=2, q=0)).sigma

        sigma = run_ranks(2, worker)[0]
        assert len(passes) == 2
        assert np.all(np.isfinite(sigma))

    def test_fallback_agrees_with_fast_path(self, monkeypatch):
        a = generate_random(solo_communicator(), 2000, 16, seed=64)
        params = RsvdParams(k=3, q=1, seed=65)
        fast = svd_randomized(a, params, want_u=True)
        monkeypatch.setattr(svd, "RSVD_IMPLICIT_MAX_GROWTH", 0.0)
        slow = svd_randomized(a, params, want_u=True)
        assert max_rel_err(fast.sigma, slow.sigma) <= 1e-12
        assert np.max(np.abs(fast.u.local - slow.u.local)) <= 1e-10
        assert np.max(np.abs(fast.v - slow.v)) <= 1e-10


def per_step_rsvd(a, params):
    """(sigma of B, leading k of V) from the per-step loop that factored Y
    on every step: each basis after the first is qr_Q(B^T), not qr_Q(W)."""
    basis = random_rows(
        params.seed, 0, a.cols, 2 * params.k, params.projection, a.dtype,
        domain=STREAM_PROJECTION,
    )
    for step in range(params.q + 1):
        b, _, _ = svd._project(a, basis)
        if step < params.q:
            basis = qr_Q(b.T)
    sigma, _, vt = small_svd(b)
    return sigma, vt[: params.k].T


class TestStepStructure:
    """q steps on W alone, then one step that factors Y."""

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_collectives_and_reductions_per_call(self, monkeypatch, q):
        reductions = count_calls(monkeypatch, svd, "_reduced_r")

        def worker(comm):
            a = generate_random(comm, 3000, 20, seed=66)
            before = comm.collective_count
            svd_randomized(a, RsvdParams(k=3, q=q, seed=67))
            return comm.collective_count - before

        # One sum-allreduce of W per step, and Y's R on the last: one Gram
        # allreduce, and G2's second one where Y takes two Cholesky QR
        # passes. At q = 0 Y = A Omega keeps Omega's kappa_2 (above sqrt(2)
        # for a 20 x 6 standard-normal draw), so it takes two; after power
        # iterations Y's columns are near-orthogonal and take one.
        # _reduced_r runs once on each of the two ranks.
        grams = 2 if q == 0 else 1
        assert run_ranks(2, worker) == [q + 1 + grams] * 2
        assert len(reductions) == 2

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_one_at_q2(self, monkeypatch, dtype, size):
        passes = count_calls(monkeypatch, svd, "mult_transpose")
        full = rank_one_matrix(400, 10, 10.0, 62).astype(dtype)

        def worker(comm):
            return svd_randomized(distribute(comm, full), RsvdParams(k=2, q=2, seed=63)).sigma

        sigma = run_ranks(size, worker)[0]
        assert len(passes) <= size
        assert abs(sigma[0] - 10.0) <= 1e-5 * 10.0

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_step_factoring(self, dtype, size, q):
        # In exact arithmetic qr_Q(W) = qr_Q(W R^-1) = qr_Q(B^T), so both
        # loops build the same bases and differ by rounding alone. Take
        # verify's term t = 2 lambda n (u + u64) as the relative backward
        # error of B: sigma moves by up to t sigma_1, and Davis-Kahan bounds
        # each right singular vector's change by t sigma_1^2 over its
        # squared gap to the rest of B's spectrum.
        full = low_rank_noise_matrix(2000, 16, [10, 8, 6, 5], 1e-2, 68, dtype)
        params = RsvdParams(k=3, q=q, seed=69)

        def worker(comm):
            a = distribute(comm, full)
            got = svd_randomized(a, params)
            return got.sigma, got.v, *per_step_rsvd(a, params)

        for sigma, v, ref_sigma, ref_v in run_ranks(size, worker):
            term = verify_tolerance("tssvd", ref_sigma, dtype)[0] / ref_sigma[0]
            assert np.all(np.abs(sigma - ref_sigma[: params.k]) <= term * ref_sigma[0])
            squares = ref_sigma.astype(np.float64) ** 2
            gaps = np.abs(squares[:, None] - squares[None, :])
            gaps += np.diag(np.full(len(squares), np.inf))
            v_tol = term * squares[0] / gaps.min(axis=1)[: params.k]
            assert np.all(np.abs(v - ref_v) <= v_tol)


@st.composite
def rank_limited_inputs(draw):
    """(A, k, q, dtype): A of rank 1..2k+1 with n > 2k, as U diag(s) V^T."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2 * k + 1, 2 * k + 6))
    m = draw(st.integers(n + 1, 200))
    rank = draw(st.integers(1, 2 * k + 1))
    exponents = draw(st.lists(st.floats(-4, 1), min_size=rank, max_size=rank))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    full = (left * 10.0 ** np.array(exponents)) @ right.T
    return full.astype(dtype), k, draw(st.integers(0, 2)), seed


@given(rank_limited_inputs(), st.integers(1, 3))
@settings(max_examples=150)
def test_rsvd_never_exceeds_sigma_beyond_rounding(case, size):
    # B = Q_Y^T A with orthonormal Q_Y interlaces: sigma_i^ <= sigma_i(A).
    # Either path may add only rounding, svdbench verify's
    # 2 lambda n (u + u64) sigma_1.
    full, k, q, seed = case
    oracle = np.linalg.svd(full.astype(np.float64), compute_uv=False)
    bound = verify_tolerance("tssvd", oracle, full.dtype)

    def worker(comm):
        a = distribute(comm, full)
        return svd_randomized(a, RsvdParams(k=k, q=q, seed=seed)).sigma

    sigma = run_ranks(size, worker)[0]
    assert np.all(sigma <= oracle[:k] + bound[:k])


@st.composite
def one_pass_blocks(draw):
    """(A, p): p blocks of equal height, each with kappa_2 <= sqrt(2).

    Each block is s_r U_r diag(d_r) V_r^T with its own scale s_r (1e-2 to
    1e2), its own right basis V_r and its own d_r, log-spaced over a
    ratio kappa_r <= 1.40: the blocks weigh A's columns differently, and
    A's singular values spread over the blocks' scales.
    """
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(n + 1, 10 * n))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(p):
        kappa = draw(st.floats(1.0, 1.40))
        scale = 10.0 ** draw(st.floats(-2, 2))
        left, _ = np.linalg.qr(rng.standard_normal((rows, n)))
        right, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = scale * np.logspace(0, -np.log10(kappa), n)
        blocks.append(((left * values) @ right.T).astype(dtype))
    return blocks, dtype


@given(one_pass_blocks())
@settings(max_examples=100)
def test_tssvd_from_one_pass_blocks_within_verify_tolerance(case):
    # Blocks of kappa_2 <= sqrt(2) sum to a Gram of kappa_2 <= sqrt(2):
    # lambda_max is convex and lambda_min concave on the ranks' Grams. So
    # R comes from one Cholesky QR pass of the summed Gram, and the bound
    # behind CHOLQR_ONE_PASS_MAX_COND holds it to the first stage's share
    # of verify's gate, whatever the blocks' relative scales.
    blocks, dtype = case
    full = np.vstack(blocks)
    for block in blocks:
        local = np.linalg.svd(block.astype(np.float64), compute_uv=False)
        assert local[0] <= np.sqrt(2) * local[-1]
    oracle = np.linalg.svd(full.astype(np.float64), compute_uv=False)
    with mock.patch.object(svd, "crossprod", wraps=svd.crossprod) as grams:
        sigma = run_ranks(len(blocks), lambda comm: svd_tsqr(distribute(comm, full)).sigma)[0]
    # No second pass: no crossprod with a right factor, R1^-1.
    assert not [c for c in grams.call_args_list if len(c.args) > 1 or "right" in c.kwargs]
    assert np.all(np.abs(sigma - oracle) <= verify_tolerance("tssvd", oracle, dtype))


class TestRecoverU:
    def test_known_factors(self):
        rng = np.random.default_rng(20)
        u0, _ = np.linalg.qr(rng.standard_normal((40, 2)))
        full = u0 @ np.diag([3.0, 2.0])

        def worker(comm):
            a = distribute(comm, full)
            return recover_U(a, np.eye(2), np.array([3.0, 2.0])).local

        got = np.vstack(run_ranks(2, worker))
        assert np.max(np.abs(got - u0)) <= 1e-13

    def test_all_zero_sigma_gives_zero_columns(self):
        a = distribute(solo_communicator(), np.zeros((10, 2)))
        u = recover_U(a, np.eye(2), np.zeros(2))
        assert u.local.shape == (10, 2)
        assert np.array_equal(u.local, np.zeros((10, 2)))

    def test_orthonormal_on_well_conditioned(self):
        def worker(comm):
            a = generate_random(comm, 120, 8, seed=21)
            res = svd_tsqr(a)
            return recover_U(a, res.v, res.sigma).local

        u = np.vstack(run_ranks(3, worker))
        assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-10

    def test_length_mismatch(self):
        a = generate_random(solo_communicator(), 10, 3, seed=1)
        with pytest.raises(ShapeError):
            recover_U(a, np.eye(3), np.ones(2))


class TestConditioningSeparation:
    def test_tsqr_beats_normal_equations_at_kappa_1e6(self):
        full = conditioned_matrix(2000, 50, cond=1e6, seed=22)

        def worker(comm):
            a = distribute(comm, full)
            return svd_tsqr(a).sigma, svd_normal_equations(a).sigma

        ts, cp = run_ranks(2, worker)[0]
        oracle, _, _ = small_svd(full)
        ts_err = abs(ts[-1] - oracle[-1]) / oracle[-1]
        cp_err = abs(cp[-1] - oracle[-1]) / oracle[-1]
        assert ts_err <= 1e-9
        assert cp_err >= ts_err


class TestRankCountInvariance:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_sigma_stable_across_rank_counts(self, dtype, tol):
        def worker(comm):
            a = generate_random(comm, 400, 24, seed=23, dtype=dtype)
            return (
                svd_normal_equations(a).sigma,
                svd_tsqr(a).sigma,
                svd_randomized(a, RsvdParams(k=4, q=2, seed=24)).sigma,
            )

        base = worker(solo_communicator())
        for size in (2, 4, 8):
            multi = run_ranks(size, worker)[0]
            for got, want in zip(multi, base):
                assert max_rel_err(got, want) <= tol, f"p={size}"


class TestDeterminism:
    @pytest.mark.parametrize("size", [1, 3])
    def test_bitwise_repeatable(self, size):
        def worker(comm):
            a = generate_random(comm, 90, 7, seed=25)
            return (
                svd_normal_equations(a).sigma,
                svd_tsqr(a).sigma,
                svd_randomized(a, RsvdParams(k=3, q=1, seed=26)).sigma,
            )

        first = run_ranks(size, worker)[0]
        second = run_ranks(size, worker)[0]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def rank_deficient_full():
    """200 x 6 with a zero column and a repeated one: two singular values
    at or near zero, below the rank tolerance."""
    full = np.random.default_rng(44).standard_normal((200, 6))
    full[:, 4] = 0
    full[:, 5] = full[:, 0]
    return full


class TestFactorFlags:
    """Every route returns sigma and V; want_u adds U, one column per
    sigma, and changes nothing else."""

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_sigma_bitwise_independent_of_flags(self, method, size):
        solve, _ = route(method, 60, RsvdParams(k=3, seed=41))

        def worker(comm):
            a = generate_random(comm, 2000, 60, seed=40)
            return np.array_equal(solve(a, want_u=True).sigma, solve(a).sigma)

        assert all(run_ranks(size, worker))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_routes_leave_input_untouched(self, method, size):
        solve, _ = route(method, 12, RsvdParams(k=3, seed=43))

        def worker(comm):
            a = generate_random(comm, 500, 12, seed=42)
            before = a.local.copy()
            for want_u in (False, True):
                solve(a, want_u=want_u)
            return np.array_equal(a.local.view(np.uint64), before.view(np.uint64))

        assert all(run_ranks(size, worker))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_v_comes_back_with_one_column_per_sigma(self, method, size):
        # rank_deficient_full has rank 4, so rsvd's 2k columns of Y fit.
        solve, width = route(method, 6, RsvdParams(k=2, seed=45))

        def worker(comm):
            a = distribute(comm, rank_deficient_full())
            return [(len(res.sigma), res.v.shape) for res in (solve(a), solve(a, want_u=True))]

        # rsvd returns its leading k; the others all n.
        for (bare_len, bare_shape), (u_len, u_shape) in run_ranks(size, worker):
            assert bare_len == width and bare_shape == (6, width)
            assert u_shape == (6, u_len)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_v_with_u_is_a_prefix_of_v_alone(self, method, size):
        solve, _ = route(method, 6, RsvdParams(k=2, seed=46))

        def worker(comm):
            a = distribute(comm, rank_deficient_full())
            with_u = solve(a, want_u=True)
            return np.array_equal(with_u.v, solve(a).v[:, : with_u.u.cols])

        assert all(run_ranks(size, worker))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd"])
    def test_rank_deficient_zeroes_u_columns(self, method, size):
        # The two values below the rank tolerance stay in sigma and V; U
        # keeps their columns as exact zeros, and its other columns are
        # bitwise A V inv(Sigma) over the kept values.
        full = rank_deficient_full()
        solve, _ = route(method, full.shape[1])

        def worker(comm):
            a = distribute(comm, full)
            bare, res = solve(a), solve(a, want_u=True)
            keep = res.sigma > rank_tolerance(res.sigma, a.global_rows, a.cols)
            kept = mult_local(a, res.v[:, keep] / res.sigma[keep]).local
            return bare, res, keep, kept

        for bare, res, keep, kept in run_ranks(size, worker):
            assert np.array_equal(res.sigma, bare.sigma)
            assert np.array_equal(res.v, bare.v)
            assert 0 < keep.sum() < full.shape[1]
            assert res.u.cols == len(res.sigma) == full.shape[1]
            assert not np.any(res.u.local[:, ~keep])
            assert np.array_equal(res.u.local[:, keep], kept)


@st.composite
def deficient_inputs(draw):
    """(A, method, k, dtype): small A with zeroed or repeated columns.

    For rsvd, 2k stays at or below A's rank, so Y's R is nonsingular.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(n + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.standard_normal((m, n))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n - 1)):
        source = draw(st.sampled_from([None, *range(n)]))
        full[:, j] = 0 if source is None else full[:, source]
    rank = np.linalg.matrix_rank(full)
    method = draw(st.sampled_from(["cpsvd", "tssvd", "rsvd"] if rank >= 2 else ["cpsvd", "tssvd"]))
    k = draw(st.integers(1, max(1, rank // 2)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return full.astype(dtype), method, k, dtype


@given(deficient_inputs(), st.integers(1, 3))
@settings(max_examples=150)
def test_one_width_with_or_without_u(case, size):
    # sigma, V and U have the route's width, n or k, and want_u leaves
    # sigma and V bitwise as they are without it.
    full, method, k, dtype = case
    solve, width = route(method, full.shape[1], RsvdParams(k=k, seed=47))

    def worker(comm):
        a = distribute(comm, full)
        return solve(a), solve(a, want_u=True)

    for bare, res in run_ranks(size, worker):
        assert len(res.sigma) == res.v.shape[1] == res.u.cols == width
        assert res.sigma.dtype == res.v.dtype == res.u.dtype == dtype
        assert np.array_equal(res.sigma, bare.sigma)
        assert np.array_equal(res.v, bare.v)


@pytest.mark.parametrize("method", ["cpsvd", "tssvd"])
def test_u_keeps_sigma_whole_at_paper_height(method):
    # From m of about 1/eps rows, rank_tolerance = m eps sigma_1 passes
    # every sigma of a standard-normal f32 input; U's columns go to zero,
    # but sigma and V come back whole. 8.5e6 x 2 in f32 is 68 MB.
    solve, _ = route(method, 2)

    def worker(comm):
        a = generate_random(comm, 8_500_000, 2, seed=48, dtype=np.float32)
        return solve(a), solve(a, want_u=True)

    for bare, res in run_ranks(2, worker):
        assert len(bare.sigma) == 2 and np.all(bare.sigma > 0)
        assert np.array_equal(res.sigma, bare.sigma)
        assert np.array_equal(res.v, bare.v) and res.v.shape == (2, 2)
        assert res.u.cols == 2


class TestComplexInput:
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_raises_on_every_rank(self, method, size):
        # Cast to float64, this matrix would give the real part's
        # sigma_1 = 15.50, not its own 22.27.
        rng = np.random.default_rng(30)
        full = rng.standard_normal((200, 5)) + 1j * rng.standard_normal((200, 5))
        solve, _ = route(method, 5, RsvdParams(k=2, seed=31))

        def worker(comm):
            return solve(distribute(comm, full)).sigma

        with pytest.raises(RankFailures) as info:
            run_ranks(size, worker)
        assert sorted(info.value.failures) == list(range(size))
        for exc in info.value.failures.values():
            assert isinstance(exc, UnsupportedDtype)


class TestZeroColumns:
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_raises_on_every_rank(self, method, size):
        # Bound for n = 2: at n = 0 route() refuses rsvd's k = 1 before any
        # rank starts. Each route checks the shape it is given itself.
        solve, _ = route(method, 2, RsvdParams(k=1))

        def worker(comm):
            return solve(distribute(comm, np.zeros((5, 0))))

        with pytest.raises(RankFailures) as info:
            run_ranks(size, worker)
        assert sorted(info.value.failures) == list(range(size))
        for exc in info.value.failures.values():
            assert isinstance(exc, UnsupportedShape)

    @pytest.mark.parametrize("size", [1, 2])
    def test_qr_allreduce_raises_before_any_collective(self, size):
        def worker(comm):
            with pytest.raises(UnsupportedShape):
                qr_allreduce(distribute(comm, np.zeros((5, 0))))
            return comm.collective_count

        assert run_ranks(size, worker) == [0] * size


class TestNonFiniteInput:
    """One NaN or Inf entry must fail every rank, never yield a sigma.

    These run with warnings as errors: a floating-point warning raised on
    the way to the check would fail a rank with the wrong error.
    """

    @staticmethod
    def assert_every_rank_raises(size, bad, solve):
        # One bad entry, in float32 and in float64.
        for dtype in (np.float32, np.float64):
            full = np.random.default_rng(27).standard_normal((1000, 20)).astype(dtype)
            full[123, 7] = bad
            with pytest.raises(RankFailures) as info:
                run_ranks(size, lambda comm: solve(distribute(comm, full)))
            assert sorted(info.value.failures) == list(range(size)), dtype
            for exc in info.value.failures.values():
                assert isinstance(exc, NonFiniteInput), (dtype, exc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_raises_on_every_rank(self, method, size, bad):
        solve, _ = route(method, 20, RsvdParams(k=2, seed=28))
        self.assert_every_rank_raises(size, bad, solve)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_pca_raises_on_every_rank(self, method, size, bad):
        # Centering an Inf column computes Inf - Inf before the route's check.
        solve = partial(pca, method=method, want_scores=True,
                        params=RsvdParams(k=2, seed=28))
        self.assert_every_rank_raises(size, bad, solve)

    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_qr_allreduce_raises_on_every_rank(self, size, bad, centered):
        # A centered Inf column holds Inf - Inf in the Householder tree's
        # chunks, which qr_allreduce's own errstate must quiet.
        def solve(a):
            return qr_allreduce(mean_center_columns(a)[0] if centered else a)

        self.assert_every_rank_raises(size, bad, solve)

    @pytest.mark.parametrize("size", [1, 2])
    def test_float32_gram_overflow(self, size):
        # (1e20)^2 overflows float32, so the routes that form sigma_1^2-sized
        # values fail: cpsvd's crossproduct and rsvd's W = A^T Y. TSQR's local
        # CholQR2 overflows in its Gram too, but then falls back to
        # Householder QR, which never squares an entry: sigma stays finite.
        full = np.random.default_rng(29).standard_normal((500, 10)).astype(np.float32)
        full[:, 3] *= np.float32(1e20)
        params = RsvdParams(k=2, seed=28)

        def worker(comm, method):
            return route(method, full.shape[1], params)[0](distribute(comm, full)).sigma

        for method in ("cpsvd", "rsvd"):
            with pytest.raises(RankFailures) as info:
                run_ranks(size, worker, method)
            assert sorted(info.value.failures) == list(range(size))
            for exc in info.value.failures.values():
                assert isinstance(exc, NonFiniteInput)
        sigma = run_ranks(size, worker, "tssvd")[0]
        want = np.linalg.svd(full.astype(np.float64), compute_uv=False)
        assert np.all(np.isfinite(sigma))
        assert abs(sigma[0] - want[0]) <= 1e-5 * want[0]

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd"])
    def test_float32_finite_gram_near_overflow(self, method, size):
        # The crossproduct's largest entry, 2.43e38, is finite in float32;
        # symmetrizing it must not overflow on the way to the eigensolver.
        full = np.array([[9e18, 0], [9e18, 0], [9e18, 9e17]], dtype=np.float32)

        def worker(comm):
            return route(method, full.shape[1])[0](distribute(comm, full)).sigma

        want = np.linalg.svd(full.astype(np.float64), compute_uv=False)
        for sigma in run_ranks(size, worker):
            assert max_rel_err(sigma, want) <= 1e-6
