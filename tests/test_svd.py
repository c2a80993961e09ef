import numpy as np
import pytest

from tallskinny.comm import RankFailures, run_ranks, solo_communicator
from tallskinny.dense import (
    NonFiniteInput,
    ShapeError,
    UnsupportedShape,
    qr_R,
    small_svd,
)
from tallskinny.distmat import distribute, gather, generate_random
from tallskinny.matrices import conditioned_instance, low_rank_noise_instance
from tallskinny.svd import (
    DegenerateProjection,
    ParameterError,
    RsvdParams,
    qr_allreduce,
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
            a = generate_random(comm, 100, 8, seed=42)
            return svd_normal_equations(a).sigma, gather(a)

        sigma, full = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(full)
        compare = oracle >= 1e-6 * oracle[0]
        assert max_rel_err(sigma[compare], oracle[compare]) <= 1e-10

    def test_factors_orthonormal(self):
        def worker(comm):
            a = generate_random(comm, 60, 6, seed=1)
            res = svd_normal_equations(a, want_u=True, want_v=True)
            return res.sigma, gather(res.u), res.v, gather(a)

        sigma, u, v, full = run_ranks(2, worker)[0]
        assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(recon - full) <= 1e-10 * np.linalg.norm(full)

    def test_wide_rejected(self):
        a = distribute(solo_communicator(), np.ones((3, 3)))
        with pytest.raises(UnsupportedShape):
            svd_normal_equations(a)


class TestQrAllreduce:
    def test_single_rank_unchanged(self):
        r = qr_R(np.arange(12.0).reshape(4, 3))
        got = qr_allreduce(solo_communicator(), r)
        assert np.array_equal(got, r)

    def test_stacked_identities(self):
        def worker(comm):
            return qr_allreduce(comm, np.eye(3))

        for got in run_ranks(2, worker):
            assert np.allclose(got, np.sqrt(2) * np.eye(3), rtol=1e-15)

    @pytest.mark.parametrize("size", [2, 3, 4, 7])
    def test_matches_gathered_qr(self, size):
        def worker(comm):
            a = generate_random(comm, 64 if comm.size != 7 else 63, 6, seed=9)
            return qr_allreduce(comm, qr_R(a.local)), gather(a)

        got, full = run_ranks(size, worker)[0]
        want = qr_R(full)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gram_identity(self):
        def worker(comm):
            a = generate_random(comm, 40, 5, seed=10)
            return qr_allreduce(comm, qr_R(a.local)), gather(a)

        r, full = run_ranks(4, worker)[0]
        gram = full.T @ full
        assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_result_normalized(self):
        def worker(comm):
            a = generate_random(comm, 48, 6, seed=11)
            return qr_allreduce(comm, qr_R(a.local))

        r = run_ranks(3, worker)[0]
        assert np.all(np.diag(r) >= 0)
        assert np.count_nonzero(np.tril(r, -1)) == 0

    def test_rejects_non_triangular(self):
        with pytest.raises(ShapeError, match="diagonal"):
            qr_allreduce(solo_communicator(), np.ones((3, 3)))

    def test_rejects_negative_diagonal(self):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = -2.0
        with pytest.raises(ShapeError, match="negative"):
            qr_allreduce(solo_communicator(), r)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError, match="square"):
            qr_allreduce(solo_communicator(), np.triu(np.ones((2, 3))))


class TestTsqr:
    def test_orthogonal_columns(self):
        def worker(comm):
            a = distribute(comm, orthogonal_columns_matrix([3, 2, 1], 9))
            return svd_tsqr(a).sigma

        sigma = run_ranks(3, worker)[0]
        assert np.allclose(sigma, [3, 2, 1], rtol=1e-13)

    def test_random_matches_gathered_oracle(self):
        def worker(comm):
            a = generate_random(comm, 200, 10, seed=12)
            return svd_tsqr(a).sigma, gather(a)

        sigma, full = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(full)
        assert max_rel_err(sigma, oracle) <= 1e-12

    def test_agrees_with_normal_equations(self):
        def worker(comm):
            a = generate_random(comm, 150, 9, seed=13)
            return svd_tsqr(a).sigma, svd_normal_equations(a).sigma

        ts, cp = run_ranks(2, worker)[0]
        assert max_rel_err(ts, cp) <= 1e-9

    def test_short_local_blocks_are_padded(self):
        def worker(comm):
            a = generate_random(comm, 10, 6, seed=14)  # blocks of 3,3,2,2 rows
            return svd_tsqr(a).sigma, gather(a)

        sigma, full = run_ranks(4, worker)[0]
        oracle, _, _ = small_svd(full)
        assert max_rel_err(sigma, oracle) <= 1e-12

    def test_empty_local_blocks(self):
        def worker(comm):
            a = generate_random(comm, 5, 3, seed=15)  # three ranks get 0 rows
            return svd_tsqr(a).sigma, gather(a)

        sigma, full = run_ranks(8, worker)[0]
        oracle, _, _ = small_svd(full)
        assert max_rel_err(sigma, oracle) <= 1e-12

    def test_reconstruction_full_rank(self):
        def worker(comm):
            a = generate_random(comm, 300, 20, seed=16)
            res = svd_tsqr(a, want_u=True, want_v=True)
            return res.sigma, gather(res.u), res.v, gather(a)

        sigma, u, v, full = run_ranks(4, worker)[0]
        assert np.max(np.abs(v.T @ v - np.eye(20))) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(20))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(full - recon) <= 1e-12 * np.linalg.norm(full)


class TestRandomized:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(71)
        u0 = rng.standard_normal(300)
        u0 /= np.linalg.norm(u0)
        v0 = rng.standard_normal(12)
        v0 /= np.linalg.norm(v0)
        full = 10.0 * np.outer(u0, v0)

        def worker(comm):
            a = distribute(comm, full)
            return svd_randomized(a, RsvdParams(k=1, q=0, seed=3)).sigma

        sigma = run_ranks(3, worker)[0]
        assert len(sigma) == 1
        assert abs(sigma[0] - 10.0) <= 1e-10 * 10.0

    def test_decaying_spectrum_top2_within_1pct(self):
        def worker(comm):
            a, _ = low_rank_noise_instance(comm, 400, 30, [10, 9, 8, 7, 6], 0.0, seed=4)
            got = svd_randomized(a, RsvdParams(k=2, q=2, seed=5)).sigma
            oracle, _, _ = small_svd(gather(a))
            return got, oracle

        got, oracle = run_ranks(2, worker)[0]
        assert max_rel_err(got, oracle[:2]) <= 0.01

    def test_power_iterations_sharpen(self):
        def worker(comm):
            a, _ = low_rank_noise_instance(comm, 500, 30, [4, 3, 2], 0.02, seed=6)
            oracle, _, _ = small_svd(gather(a))
            errs = {}
            for q in (0, 2):
                got = svd_randomized(a, RsvdParams(k=3, q=q, seed=7)).sigma
                errs[q] = abs(got[2] - oracle[2]) / oracle[2]
            return errs

        errs = run_ranks(2, worker)[0]
        assert errs[2] <= errs[0]

    def test_uniform_projection(self):
        def worker(comm):
            a, _ = low_rank_noise_instance(comm, 300, 20, [5, 4], 0.0, seed=8)
            params = RsvdParams(k=2, q=1, projection="uniform01", seed=9)
            got = svd_randomized(a, params).sigma
            oracle, _, _ = small_svd(gather(a))
            return got, oracle

        got, oracle = run_ranks(3, worker)[0]
        assert max_rel_err(got, oracle[:2]) <= 0.01

    def test_factors(self):
        def worker(comm):
            a, _ = low_rank_noise_instance(comm, 200, 16, [6, 5, 4], 1e-9, seed=10)
            res = svd_randomized(a, RsvdParams(k=3, q=2, seed=11), want_u=True, want_v=True)
            return res.sigma, gather(res.u), res.v, gather(a)

        sigma, u, v, full = run_ranks(2, worker)[0]
        assert u.shape == (200, 3) and v.shape == (16, 3)
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-10
        recon = (u * sigma) @ v.T
        assert np.linalg.norm(full - recon) <= 1e-6 * np.linalg.norm(full)

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

    def test_zero_matrix_degenerate_projection(self):
        a = distribute(solo_communicator(), np.zeros((30, 6)))
        with pytest.raises(DegenerateProjection, match="seed"):
            svd_randomized(a, RsvdParams(k=2, q=0, seed=12))


class TestRecoverU:
    def test_known_factors(self):
        rng = np.random.default_rng(20)
        u0, _ = np.linalg.qr(rng.standard_normal((40, 2)))
        full = u0 @ np.diag([3.0, 2.0])

        def worker(comm):
            a = distribute(comm, full)
            return gather(recover_U(a, np.eye(2), np.array([3.0, 2.0])))

        got = run_ranks(2, worker)[0]
        assert np.max(np.abs(got - u0)) <= 1e-13

    def test_all_zero_sigma_drops_everything(self):
        a = distribute(solo_communicator(), np.zeros((10, 2)))
        u = recover_U(a, np.eye(2), np.zeros(2))
        assert u.local.shape == (10, 0)

    def test_orthonormal_on_well_conditioned(self):
        def worker(comm):
            a = generate_random(comm, 120, 8, seed=21)
            res = svd_tsqr(a, want_v=True)
            u = recover_U(a, res.v, res.sigma)
            return gather(u)

        u = run_ranks(3, worker)[0]
        assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-10

    def test_length_mismatch(self):
        a = generate_random(solo_communicator(), 10, 3, seed=1)
        with pytest.raises(ShapeError):
            recover_U(a, np.eye(3), np.ones(2))


class TestConditioningSeparation:
    def test_tsqr_beats_normal_equations_at_kappa_1e6(self):
        def worker(comm):
            a = conditioned_instance(comm, 2000, 50, cond=1e6, seed=22)
            ts = svd_tsqr(a).sigma
            cp = svd_normal_equations(a).sigma
            oracle, _, _ = small_svd(gather(a))
            return ts, cp, oracle

        ts, cp, oracle = run_ranks(2, worker)[0]
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


class TestFactorFlags:
    """The flags pick which factors come back; they change nothing else."""

    FLAGS = [(False, True), (True, False), (True, True)]

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_sigma_bitwise_independent_of_flags(self, method, size):
        solve = route(method, RsvdParams(k=3, seed=41))

        def worker(comm):
            a = generate_random(comm, 2000, 60, seed=40)
            bare = solve(a).sigma
            return [
                np.array_equal(solve(a, want_u=u, want_v=v).sigma, bare)
                for u, v in self.FLAGS
            ]

        for same in run_ranks(size, worker):
            assert all(same)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_routes_leave_input_untouched(self, method, size):
        solve = route(method, RsvdParams(k=3, seed=43))

        def worker(comm):
            a = generate_random(comm, 500, 12, seed=42)
            before = a.local.copy()
            for u, v in [(False, False)] + self.FLAGS:
                solve(a, want_u=u, want_v=v)
            return np.array_equal(a.local.view(np.uint64), before.view(np.uint64))

        assert all(run_ranks(size, worker))


class TestNonFiniteInput:
    """One NaN or Inf entry must fail every rank, never yield a sigma."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_raises_on_every_rank(self, method, size, bad):
        full = np.random.default_rng(27).standard_normal((1000, 20))
        full[123, 7] = bad
        solve = route(method, RsvdParams(k=2, seed=28))

        def worker(comm):
            return solve(distribute(comm, full)).sigma

        with pytest.raises(RankFailures) as info:
            run_ranks(size, worker)
        assert sorted(info.value.failures) == list(range(size))
        for exc in info.value.failures.values():
            assert isinstance(exc, NonFiniteInput)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("size", [1, 2])
    def test_float32_gram_overflow(self, size):
        # (1e20)^2 overflows float32, so only the crossproduct route fails;
        # TSQR never squares an entry and keeps a finite sigma.
        full = np.random.default_rng(29).standard_normal((500, 10)).astype(np.float32)
        full[:, 3] *= np.float32(1e20)

        def worker(comm, method):
            return route(method)(distribute(comm, full)).sigma

        with pytest.raises(RankFailures) as info:
            run_ranks(size, worker, "cpsvd")
        assert sorted(info.value.failures) == list(range(size))
        for exc in info.value.failures.values():
            assert isinstance(exc, NonFiniteInput)
        sigma = run_ranks(size, worker, "tssvd")[0]
        want = np.linalg.svd(full.astype(np.float64), compute_uv=False)
        assert np.all(np.isfinite(sigma))
        assert abs(sigma[0] - want[0]) <= 1e-5 * want[0]
