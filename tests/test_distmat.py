import numpy as np
import pytest

from tallskinny.comm import RankFailures, run_ranks, solo_communicator
from tallskinny.dense import ShapeError, UnsupportedShape, sym_eigen
from tallskinny.distmat import (
    DistMatrix,
    block_range,
    block_rows,
    crossprod,
    distribute,
    gather,
    generate_random,
    mean_center_columns,
    mult_local,
    mult_transpose,
    random_rows,
    read_distributed,
)
from tallskinny.matfile import MatrixFileError, read_header, read_matrix, write_matrix


class TestPartition:
    def test_balanced_rule(self):
        assert block_rows(10, 4) == [3, 3, 2, 2]

    def test_exact_split(self):
        assert block_rows(8, 4) == [2, 2, 2, 2]

    def test_more_ranks_than_rows(self):
        assert block_rows(2, 4) == [1, 1, 0, 0]

    def test_offsets_contiguous(self):
        offsets = [block_range(10, 4, r) for r in range(4)]
        assert offsets == [(0, 3), (3, 3), (6, 2), (8, 2)]


class TestGeneration:
    def test_local_shapes(self):
        out = run_ranks(4, lambda c: generate_random(c, 10, 2, seed=1).local.shape)
        assert out == [(3, 2), (3, 2), (2, 2), (2, 2)]

    @pytest.mark.parametrize("size", [2, 4])
    def test_rank_count_invariant_bitwise(self, size):
        solo = generate_random(solo_communicator(), 11, 3, seed=99).local
        blocks = run_ranks(size, lambda c: generate_random(c, 11, 3, seed=99).local)
        assert np.array_equal(np.vstack(blocks), solo)

    def test_uniform01_range(self):
        a = generate_random(solo_communicator(), 50, 4, dist="uniform01", seed=5)
        assert np.all(a.local >= 0) and np.all(a.local < 1)

    def test_seed_changes_data(self):
        comm = solo_communicator()
        a = generate_random(comm, 10, 2, seed=1).local
        b = generate_random(comm, 10, 2, seed=2).local
        assert not np.array_equal(a, b)

    def test_wide_rejected(self):
        with pytest.raises(UnsupportedShape):
            generate_random(solo_communicator(), 3, 5)

    def test_float32_dtype(self):
        a = generate_random(solo_communicator(), 8, 2, seed=0, dtype=np.float32)
        assert a.local.dtype == np.float32

    def test_projection_stream_differs_from_data_stream(self):
        data = random_rows(7, 0, 4, 3, "standard-normal", np.float64, domain=0)
        proj = random_rows(7, 0, 4, 3, "standard-normal", np.float64, domain=1)
        assert not np.array_equal(data, proj)


class TestCrossprod:
    def test_stacked_identities(self):
        def worker(comm):
            return crossprod(distribute(comm, np.vstack([np.eye(3), np.eye(3)])))

        for got in run_ranks(2, worker):
            assert np.array_equal(got, 2 * np.eye(3))

    def test_single_column(self):
        def worker(comm):
            return crossprod(distribute(comm, np.array([[3.0], [4.0]])))

        for got in run_ranks(2, worker):
            assert np.array_equal(got, [[25.0]])

    @pytest.mark.parametrize("size", [1, 4])
    def test_matches_gather_multiply_oracle(self, size):
        def worker(comm):
            a = generate_random(comm, 40, 5, seed=11)
            return crossprod(a), gather(a)

        n_dist, full = run_ranks(size, worker)[0]
        want = full.T @ full
        assert np.max(np.abs(n_dist - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exactly_symmetric(self):
        def worker(comm):
            return crossprod(generate_random(comm, 30, 6, seed=3))

        got = run_ranks(3, worker)[0]
        assert np.array_equal(got, got.T)

    def test_positive_semidefinite(self):
        got = crossprod(generate_random(solo_communicator(), 25, 6, seed=8))
        values, _ = sym_eigen(got)
        norm2 = values[0]
        assert np.all(values >= -1e-10 * norm2)


class TestMultLocal:
    def test_identity(self):
        a = generate_random(solo_communicator(), 12, 4, seed=2)
        out = mult_local(a, np.eye(4))
        assert np.array_equal(out.local, a.local)

    def test_ones_vector_sums_rows(self):
        a = generate_random(solo_communicator(), 12, 4, seed=2)
        out = mult_local(a, np.ones((4, 1)))
        assert np.allclose(out.local[:, 0], a.local.sum(axis=1))

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((5, 3))

        def worker(comm):
            a = generate_random(comm, 21, 5, seed=21)
            return gather(mult_local(a, b)), gather(a)

        got, full = run_ranks(3, worker)[0]
        want = full @ b
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_collectives(self):
        def worker(comm):
            a = generate_random(comm, 10, 2, seed=1)
            before = comm.collective_count
            mult_local(a, np.eye(2))
            return comm.collective_count - before

        assert run_ranks(3, worker) == [0, 0, 0]

    def test_dimension_mismatch(self):
        a = generate_random(solo_communicator(), 10, 2, seed=1)
        with pytest.raises(ShapeError):
            mult_local(a, np.eye(3))


class TestMultTranspose:
    def test_equals_crossprod_on_self(self):
        def worker(comm):
            a = generate_random(comm, 30, 4, seed=4)
            return mult_transpose(a, a), crossprod(a)

        got, want = run_ranks(2, worker)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_ones_columns(self):
        def worker(comm):
            ones = distribute(comm, np.ones((8, 1)))
            return mult_transpose(ones, ones)

        for got in run_ranks(4, worker):
            assert np.array_equal(got, [[8.0]])

    def test_matches_gather_oracle(self):
        def worker(comm):
            a = generate_random(comm, 24, 3, seed=5)
            y = generate_random(comm, 24, 2, seed=6)
            return mult_transpose(a, y), gather(a), gather(y)

        got, fa, fy = run_ranks(3, worker)[0]
        want = fa.T @ fy
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_distribution_mismatch_rejected(self):
        def worker(comm):
            a = generate_random(comm, 10, 2, seed=1)
            y = generate_random(comm, 12, 2, seed=1)
            with pytest.raises(ShapeError, match="distribution"):
                mult_transpose(a, y)
            return True

        assert all(run_ranks(2, worker))


class TestMeanCenter:
    def test_constant_column(self):
        def worker(comm):
            a = distribute(comm, np.full((9, 1), 4.25))
            centered, means = mean_center_columns(a)
            return gather(centered), means

        centered, means = run_ranks(3, worker)[0]
        assert np.array_equal(centered, np.zeros((9, 1)))
        assert np.array_equal(means, [4.25])

    def test_already_centered_unchanged(self):
        col = np.arange(8.0) - 3.5  # mean exactly zero
        a = distribute(solo_communicator(), col.reshape(-1, 1))
        centered, means = mean_center_columns(a)
        assert np.max(np.abs(centered.local - a.local)) <= 1e-14
        assert abs(means[0]) <= 1e-16

    def test_gathered_means_vanish(self):
        def worker(comm):
            a = generate_random(comm, 30, 3, seed=30)
            centered, _ = mean_center_columns(a)
            return gather(centered)

        full = run_ranks(4, worker)[0]
        assert np.max(np.abs(full.mean(axis=0))) <= 1e-13


class TestGatherDistribute:
    def test_solo_gather(self):
        a = generate_random(solo_communicator(), 6, 2, seed=1)
        assert np.array_equal(gather(a), a.local)

    def test_two_ranks(self):
        def worker(comm):
            full = np.array([[1.0], [2.0]])
            return gather(distribute(comm, full))

        for got in run_ranks(2, worker):
            assert np.array_equal(got, [[1.0], [2.0]])

    def test_round_trip(self):
        def worker(comm):
            a = generate_random(comm, 13, 3, seed=44)
            again = distribute(comm, gather(a))
            return np.array_equal(again.local, a.local) and again.row_offset == a.row_offset

        assert all(run_ranks(4, worker))

    @pytest.mark.parametrize("dtype, bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_bitwise_exact_for_special_values(self, size, dtype, bits):
        tiny = np.finfo(dtype).smallest_subnormal
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1.0]
        full = np.array(special * 3, dtype=dtype).reshape(8, 3)

        def worker(comm):
            return gather(distribute(comm, full))

        for got in run_ranks(size, worker):
            assert got.dtype == full.dtype
            assert np.array_equal(got.view(bits), full.view(bits))

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_blocks_that_do_not_tile_fail_every_rank(self, rank, delta):
        def worker(comm):
            a = distribute(comm, np.ones((10, 2)))
            if comm.rank == rank:
                rows = a.local.shape[0] + delta
                a = DistMatrix(np.ones((rows, 2)), a.global_rows, a.row_offset, comm)
            return gather(a)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker, timeout=10)
        assert set(info.value.failures) == {0, 1}
        for exc in info.value.failures.values():
            assert isinstance(exc, ShapeError)


class TestPartitionInvariance:
    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_replicated_results_match_solo(self, size):
        def worker(comm):
            a = generate_random(comm, 32, 4, seed=77)
            centered, means = mean_center_columns(a)
            return crossprod(a), mult_transpose(a, a), means, crossprod(centered)

        solo = worker(solo_communicator())
        multi = run_ranks(size, worker)[0]
        for got, want in zip(multi, solo):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(55)
        a = rng.standard_normal((9, 4))
        path = tmp_path / "a.tskm"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)
        assert read_header(path) == (9, 4, np.dtype(np.float64))

    def test_round_trip_float32(self, tmp_path):
        a = np.arange(12, dtype=np.float32).reshape(4, 3)
        path = tmp_path / "a32.tskm"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, a)

    def test_header_is_32_bytes(self, tmp_path):
        path = tmp_path / "h.tskm"
        write_matrix(path, np.zeros((2, 2)))
        raw = path.read_bytes()
        assert len(raw) == 32 + 2 * 2 * 8
        assert raw[:4] == b"TSKM"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tskm"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(MatrixFileError, match="magic"):
            read_matrix(path)

    def test_distributed_read_matches_full(self, tmp_path):
        rng = np.random.default_rng(56)
        a = rng.standard_normal((10, 3))
        path = tmp_path / "d.tskm"
        write_matrix(path, a)

        def worker(comm):
            d = read_distributed(comm, path)
            return d.local, d.row_offset

        blocks = run_ranks(4, worker)
        assert np.array_equal(np.vstack([b for b, _ in blocks]), a)
        assert [off for _, off in blocks] == [0, 3, 6, 8]
