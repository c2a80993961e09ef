import numpy as np
import pytest

from tallskinny.comm import RankFailures, run_ranks, solo_communicator
from tallskinny.distmat import distribute, generate_random, mean_center_columns
from tallskinny.pca import pca
from tallskinny.svd import ParameterError, RsvdParams


def exact_covariance_data():
    """5x2 centered data with sample covariance exactly diag(2, 1)."""
    root2 = np.sqrt(2.0)
    return np.array(
        [
            [2.0, 0.0],
            [-2.0, 0.0],
            [0.0, root2],
            [0.0, -root2],
            [0.0, 0.0],
        ]
    )


class TestPca:
    def test_constant_columns_center_to_zero(self):
        def worker(comm):
            a = distribute(comm, np.tile([3.0, -1.0, 7.5], (8, 1)))
            res = pca(a, method="tssvd", want_scores=False)
            return res.sdev, res.means

        sdev, means = run_ranks(2, worker)[0]
        assert np.all(sdev <= 1e-14)
        assert np.allclose(means, [3.0, -1.0, 7.5], rtol=0, atol=0)

    def test_identical_columns_leave_one_component(self):
        rng = np.random.default_rng(31)
        col = rng.standard_normal((12, 1))
        a = distribute(solo_communicator(), np.hstack([col, col, col]))
        res = pca(a, method="tssvd")
        assert res.sdev[0] > 0
        assert np.all(res.sdev[1:] <= 1e-12 * res.sdev[0])

    def test_exact_covariance_ratio(self):
        def worker(comm):
            a = distribute(comm, exact_covariance_data())
            return pca(a, method="tssvd").sdev

        sdev = run_ranks(2, worker)[0]
        ratio = sdev[0] ** 2 / sdev[1] ** 2
        assert abs(ratio - 2.0) <= 1e-10

    def test_scores_centered_with_matching_variance(self):
        def worker(comm):
            a = generate_random(comm, 60, 4, seed=32)
            res = pca(a, method="tssvd", want_scores=True)
            return res.sdev, res.scores.local

        out = run_ranks(3, worker)
        sdev = out[0][0]
        scores = np.vstack([s for _, s in out])
        assert np.max(np.abs(scores.mean(axis=0))) <= 1e-12
        variances = scores.var(axis=0, ddof=1)
        assert np.max(np.abs(variances - sdev**2) / sdev**2) <= 1e-10

    def test_variance_conserved_at_full_ncomp(self):
        def worker(comm):
            return pca(generate_random(comm, 50, 5, seed=33), method="cpsvd").sdev

        sdev = run_ranks(2, worker)[0]
        full = generate_random(solo_communicator(), 50, 5, seed=33).local
        centered = full - full.mean(axis=0)
        total = np.sum(centered**2) / (centered.shape[0] - 1)
        assert abs(np.sum(sdev**2) - total) <= 1e-10 * total

    def test_methods_agree(self):
        def worker(comm):
            a = generate_random(comm, 80, 6, seed=34)
            return pca(a, method="cpsvd").sdev, pca(a, method="tssvd").sdev

        cp, ts = run_ranks(2, worker)[0]
        assert np.max(np.abs(cp - ts) / ts) <= 1e-9

    def test_rotation_orthonormal(self):
        a = generate_random(solo_communicator(), 40, 5, seed=35)
        res = pca(a, method="tssvd", ncomp=3)
        assert res.rotation.shape == (5, 3)
        assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(3))) <= 1e-12

    def test_rsvd_method(self):
        def worker(comm):
            a = generate_random(comm, 100, 10, seed=36)
            params = RsvdParams(k=3, q=2, seed=37)
            res = pca(a, method="rsvd", ncomp=2, params=params, want_scores=True)
            full = pca(a, method="tssvd", ncomp=2)
            return res.sdev, full.sdev

        approx, exact = run_ranks(2, worker)[0]
        assert len(approx) == 2
        assert np.max(np.abs(approx - exact) / exact) <= 0.05

    def test_rsvd_ncomp_beyond_k_rejected(self):
        a = generate_random(solo_communicator(), 30, 8, seed=38)
        with pytest.raises(ParameterError, match="ncomp"):
            pca(a, method="rsvd", ncomp=4, params=RsvdParams(k=2))

    def test_rsvd_requires_params(self):
        a = generate_random(solo_communicator(), 30, 8, seed=38)
        with pytest.raises(ParameterError, match="params"):
            pca(a, method="rsvd", ncomp=2)

    def test_unknown_method(self):
        a = generate_random(solo_communicator(), 30, 8, seed=38)
        with pytest.raises(ParameterError, match="method"):
            pca(a, method="qrsvd")

    def test_needs_two_rows(self):
        a = distribute(solo_communicator(), np.ones((1, 1)))
        with pytest.raises(ParameterError, match="rows"):
            pca(a, method="tssvd")

    def test_ncomp_bounds(self):
        a = generate_random(solo_communicator(), 30, 4, seed=39)
        with pytest.raises(ParameterError, match="ncomp"):
            pca(a, method="tssvd", ncomp=5)

    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_non_integer_ncomp_rejected_on_every_rank(self, method):
        def worker(comm):
            a = generate_random(comm, 40, 6, seed=39)
            return pca(a, method=method, ncomp=2.5, params=RsvdParams(k=3))

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        for exc in info.value.failures.values():
            assert isinstance(exc, ParameterError) and "ncomp" in str(exc)

    def test_non_integer_k_named_on_every_rank(self):
        # ncomp defaults to k, but the error names k, the caller's value.
        def worker(comm):
            a = generate_random(comm, 40, 6, seed=39)
            return pca(a, method="rsvd", params=RsvdParams(k=2.5))

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        for exc in info.value.failures.values():
            assert isinstance(exc, ParameterError)
            assert "k=2.5" in str(exc) and "ncomp" not in str(exc)

    def test_means_replicated_across_ranks(self):
        def worker(comm):
            a = generate_random(comm, 40, 3, seed=40)
            return pca(a, method="cpsvd").means

        means = run_ranks(4, worker)
        for other in means[1:]:
            assert np.array_equal(means[0], other)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
    def test_centered_input_matches_raw_input(self, method, size):
        # Centering a centered matrix recenters its block against the
        # block's own means, the shift it already carries, so pca sees the
        # same matrix bit for bit; the means it reports are zero.
        params = RsvdParams(k=2, q=1, seed=41) if method == "rsvd" else None
        full = np.random.default_rng(41).standard_normal((60, 6)) + 50.0

        def worker(comm):
            a = distribute(comm, full)
            raw = pca(a, method=method, want_scores=True, params=params)
            centered = pca(
                mean_center_columns(a)[0], method=method, want_scores=True, params=params
            )
            return raw, centered

        for raw, centered in run_ranks(size, worker):
            assert np.array_equal(centered.sdev, raw.sdev)
            assert np.array_equal(centered.rotation, raw.rotation)
            assert np.array_equal(centered.scores.local, raw.scores.local)
            assert np.all(centered.means == 0)
