import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tallskinny import distmat
from tallskinny.comm import RankFailures, run_ranks, solo_communicator
from tallskinny.dense import (
    PASS_CHUNK_BYTES,
    ShapeError,
    UnsupportedDtype,
    UnsupportedShape,
    chunk_rows,
    row_chunks,
    sym_eigen,
)
from tallskinny.distmat import (
    ROW_BLOCK,
    DistMatrix,
    block_range,
    block_rows,
    crossprod,
    distribute,
    generate_random,
    mean_center_columns,
    mult_and_transpose,
    mult_local,
    mult_transpose,
    random_rows,
    read_distributed,
)
from tallskinny.matfile import (
    MatrixFileError,
    read_header,
    read_matrix,
    read_rows,
    write_matrix,
)


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

    @pytest.mark.parametrize("rank", [-1, 2, 5])
    def test_rank_outside_the_group_rejected(self, rank):
        with pytest.raises(ValueError, match="rank"):
            block_range(10, 2, rank)


class TestGeneration:
    def test_local_shapes(self):
        out = run_ranks(4, lambda c: generate_random(c, 10, 2, seed=1).local.shape)
        assert out == [(3, 2), (3, 2), (2, 2), (2, 2)]

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_rank_count_invariant_bitwise(self, size):
        # The second shape puts rank boundaries inside the random-stream
        # blocks, so ranks draw partial blocks.
        for m in (11, 2 * ROW_BLOCK + 5):
            solo = generate_random(solo_communicator(), m, 3, seed=99).local
            blocks = run_ranks(size, lambda c: generate_random(c, m, 3, seed=99).local)
            assert np.array_equal(np.vstack(blocks), solo), f"m={m}"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dist", ["standard-normal", "uniform01"])
    def test_unaligned_range_is_slice_of_full_draw(self, dist, dtype):
        full = random_rows(17, 0, 2 * ROW_BLOCK + 5, 4, dist, dtype)
        for start, count in [(5, 10), (ROW_BLOCK - 6, 20), (ROW_BLOCK, ROW_BLOCK),
                             (2 * ROW_BLOCK - 1, 6), (7, 2 * ROW_BLOCK - 2)]:
            part = random_rows(17, start, count, 4, dist, dtype)
            assert np.array_equal(part, full[start : start + count]), (start, count)
        assert random_rows(17, ROW_BLOCK + 3, 0, 4, dist, dtype).shape == (0, 4)

    def test_uniform01_range(self):
        a = generate_random(solo_communicator(), 50, 4, dist="uniform01", seed=5)
        assert np.all(a.local >= 0) and np.all(a.local < 1)

    def test_seed_changes_data(self):
        comm = solo_communicator()
        a = generate_random(comm, 10, 2, seed=1).local
        b = generate_random(comm, 10, 2, seed=2).local
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [2.5, 2.9, 2.0, None, "2"])
    def test_non_integer_seed_rejected(self, seed):
        # int() used to truncate 2.5 and 2.9 to the stream of seed 2.
        with pytest.raises(ValueError, match="seed"):
            random_rows(seed, 0, 4, 3, "standard-normal", np.float64)
        with pytest.raises(ValueError, match="seed"):
            generate_random(solo_communicator(), 10, 2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        comm = solo_communicator()
        got = generate_random(comm, 10, 2, seed=np.int64(2)).local
        assert np.array_equal(got, generate_random(comm, 10, 2, seed=2).local)

    @pytest.mark.parametrize("row_start, row_count, n, name", [
        (-5, 3, 3, "row_start"),  # would key block -1
        (2.0, 3, 3, "row_start"),
        (0, -1, 3, "row_count"),
        (0, 3.0, 3, "row_count"),
        (0, 3, -1, "n"),
        (0, 3, 3.0, "n"),
    ])
    def test_bad_row_range_rejected(self, row_start, row_count, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            random_rows(0, row_start, row_count, n, "uniform01", np.float64)

    def test_numpy_integer_row_range_accepted(self):
        got = random_rows(0, np.int64(2), np.int32(3), np.int64(3), "uniform01", np.float64)
        assert np.array_equal(got, random_rows(0, 2, 3, 3, "uniform01", np.float64))

    @pytest.mark.parametrize("m, n", [(1e5, 50), (10, 2.0)])
    def test_non_integer_shape_rejected_on_every_rank(self, m, n):
        with pytest.raises(RankFailures) as info:
            run_ranks(2, lambda comm: generate_random(comm, m, n))
        assert sorted(info.value.failures) == [0, 1]
        for exc in info.value.failures.values():
            assert isinstance(exc, UnsupportedShape)

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

    @pytest.mark.parametrize("seed, other", [(0, 2**64), (-1, 2**64 - 1), (5, -5),
                                             (2**32, 2**32 + 1), (2**40, 2**40 + 2**32)])
    def test_every_integer_seed_has_its_own_stream(self, seed, other):
        # A seed field masked to 64 bits would give 0 the rows of 2**64,
        # and -1 those of 2**64 - 1.
        a = random_rows(seed, 0, 4, 3, "standard-normal", np.float64)
        b = random_rows(other, 0, 4, 3, "standard-normal", np.float64)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**70, -(2**70)])
    def test_adjacent_blocks_draw_different_rows(self, seed):
        a, b = (random_rows(seed, block * ROW_BLOCK, 4, 3, "uniform01", np.float64)
                for block in (6, 7))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("domain", [2, -1, 0.5])
    def test_unknown_domain_rejected(self, domain):
        with pytest.raises(ValueError, match="^domain must be"):
            random_rows(0, 0, 4, 3, "uniform01", np.float64, domain=domain)

    def test_rows_past_the_block_field_rejected(self):
        # The key holds the block index in 64 bits; one block past that
        # would share the seed field's lowest bit.
        last = ROW_BLOCK << 64
        assert random_rows(0, last - 2, 2, 0, "uniform01", np.float64).shape == (2, 0)
        with pytest.raises(ValueError, match="no stream"):
            random_rows(0, last - 2, 3, 0, "uniform01", np.float64)

    # sha256 of the assembled generate_random(m, n, dist, seed=2024) bytes,
    # pinned from the sequential generator. Rank boundaries at p = 3 fall
    # inside a ROW_BLOCK for both shapes. The bits are numpy's SeedSequence,
    # SFC64 and its fills, so a numpy release that changed any of them
    # would show here first.
    GOLDEN = {
        (2 * ROW_BLOCK + 5, 3, "standard-normal", np.float32):
            "6f5ec388fab0653637839157f356ceb5de6a470e5e95fd27198e05c0df068081",
        (2 * ROW_BLOCK + 5, 3, "standard-normal", np.float64):
            "b33d5a759286a60b41aa28ea752997a94001826560c0e8de767324436d0c8fcd",
        (2 * ROW_BLOCK + 5, 3, "uniform01", np.float32):
            "6ea498c3b353a5bf06debf0771886ce4d230178027a0c856fe226467fc536dd1",
        (2 * ROW_BLOCK + 5, 3, "uniform01", np.float64):
            "33cd2453cb7ad7ae693c74855c77d73ae640489d132191d69cdfa8a5471a937f",
        (5 * ROW_BLOCK + 1234, 7, "standard-normal", np.float32):
            "b63b1d36b458c27ad4010a497c105a1793e20a03c9c695c86d1107bb14e2b536",
        (5 * ROW_BLOCK + 1234, 7, "standard-normal", np.float64):
            "8795312f09e88739b0243c6f2b0e4aa553f87552e823f6238839da4130ace2e8",
        (5 * ROW_BLOCK + 1234, 7, "uniform01", np.float32):
            "9e38b8fb6237944e4724dbdc6d0ba19db00e7877b97689ddd8b13bbda86d61ac",
        (5 * ROW_BLOCK + 1234, 7, "uniform01", np.float64):
            "09b03fe2c870b8699f2e76c70f67e12204ebfe134f13a119ba241476a7e454bb",
    }

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("m, n, dist, dtype", list(GOLDEN))
    def test_golden_bits(self, m, n, dist, dtype, size):
        blocks = run_ranks(size, lambda c: generate_random(c, m, n, dist, 2024, dtype).local)
        digest = hashlib.sha256(np.vstack(blocks).tobytes()).hexdigest()
        assert digest == self.GOLDEN[(m, n, dist, dtype)]


class TestStreamStatistics:
    """Moments and correlations of 1e6 values from a range over many blocks.

    Each bound is 6 standard errors, which a sound stream exceeds with
    probability about 2e-9; the seed is fixed, so the tests never flake.
    """

    N_ROWS, N_COLS = 100_000, 10  # 1e6 values over 25 blocks
    START = ROW_BLOCK // 2  # the range starts and ends inside a block

    def rows(self, dist, dtype, domain=distmat.STREAM_DATA):
        return random_rows(41, self.START, self.N_ROWS, self.N_COLS, dist, dtype,
                           domain=domain).astype(np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_standard_normal_moments(self, dtype):
        x = self.rows("standard-normal", dtype).ravel()
        se = 1 / np.sqrt(x.size)
        assert abs(x.mean()) < 6 * se
        assert abs(x.var() - 1) < 6 * np.sqrt(2) * se

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lag_one_correlation(self, dtype):
        # In row order, consecutive values straddle every block boundary
        # the range crosses.
        x = self.rows("standard-normal", dtype).ravel()
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 6 / np.sqrt(x.size - 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adjacent_blocks_uncorrelated(self, dtype):
        # The same position in consecutive blocks: streams keyed on
        # neighbouring block indices must not move together.
        x = self.rows("standard-normal", dtype)
        first = ROW_BLOCK - self.START  # the range's first block boundary
        whole = (self.N_ROWS - first) // ROW_BLOCK
        blocks = x[first : first + whole * ROW_BLOCK].reshape(whole, -1)
        pairs = blocks[:-1].size
        assert abs(np.corrcoef(blocks[:-1].ravel(), blocks[1:].ravel())[0, 1]) < 6 / np.sqrt(pairs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform01_mean(self, dtype):
        x = self.rows("uniform01", dtype).ravel()
        assert abs(x.mean() - 0.5) < 6 * np.sqrt(1 / 12) / np.sqrt(x.size)

    def test_data_and_projection_domains_differ_in_every_block(self):
        data = self.rows("standard-normal", np.float64)
        proj = self.rows("standard-normal", np.float64, distmat.STREAM_PROJECTION)
        boundaries = range(ROW_BLOCK - self.START, self.N_ROWS, ROW_BLOCK)
        assert all(not np.array_equal(d, p) for d, p in
                   zip(np.split(data, boundaries), np.split(proj, boundaries)))
        # Nor are the two domains correlated.
        assert abs(np.corrcoef(data.ravel(), proj.ravel())[0, 1]) < 6 / np.sqrt(data.size)


class TestThreadedGeneration:
    """random_rows draws a range's ROW_BLOCK pieces on up to `threads` threads."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 3 * ROW_BLOCK),
        st.integers(0, 3 * ROW_BLOCK),
        st.integers(1, 4),
        st.sampled_from(["standard-normal", "uniform01"]),
        st.sampled_from([np.float32, np.float64]),
        st.integers(2, 8),
    )
    def test_every_thread_count_draws_the_same_bits(
        self, start, count, n, dist, dtype, threads
    ):
        # Starts and counts range over block interiors and boundaries, and
        # count 0 is the empty range.
        one = random_rows(11, start, count, n, dist, dtype, threads=1)
        many = random_rows(11, start, count, n, dist, dtype, threads=threads)
        assert many.shape == (count, n) and many.dtype == dtype
        assert np.array_equal(one, many)

    def test_more_threads_than_cores_under_frequent_switches(self):
        # Each piece writes only its own rows of the shared result; a
        # thread that wrote outside them, or a piece drawn twice or not at
        # all, would change the bits.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = random_rows(23, 100, 16 * ROW_BLOCK, 3, "standard-normal",
                               np.float32, threads=8)
        finally:
            sys.setswitchinterval(interval)
        one = random_rows(23, 100, 16 * ROW_BLOCK, 3, "standard-normal", np.float32,
                          threads=1)
        assert np.array_equal(one, many)

    def test_one_piece_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert random_rows(3, 5, ROW_BLOCK - 5, 4, "uniform01", np.float64, threads=8).shape == (
            ROW_BLOCK - 5, 4
        )
        assert random_rows(3, 0, 10, 4, "standard-normal", np.float32).shape == (10, 4)
        # The same guard catches a draw that does start one.
        with pytest.raises(AssertionError, match="thread was started"):
            random_rows(3, 5, ROW_BLOCK, 4, "uniform01", np.float64, threads=2)

    def test_helper_thread_exception_reaches_caller(self, monkeypatch):
        stream = distmat._block_stream

        def failing(seed, block, domain):
            if block == 3:
                raise RuntimeError("block 3 failed")
            return stream(seed, block, domain)

        monkeypatch.setattr(distmat, "_block_stream", failing)
        with pytest.raises(RuntimeError, match="block 3 failed"):
            random_rows(5, 0, 6 * ROW_BLOCK, 2, "standard-normal", np.float64, threads=4)

    def test_range_inside_a_block_allocates_only_the_dropped_rows(self):
        # The first block's 1000 rows before the range are drawn and
        # dropped; every row of the range is drawn in place, so no
        # block-sized temporary exists beside the result.
        tracemalloc.start()
        try:
            out = random_rows(7, ROW_BLOCK + 1000, 3 * ROW_BLOCK, 50, "standard-normal",
                              np.float64, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1000 * 50 * 8 + 64 * 1024

    @pytest.mark.parametrize("size, workers", [(1, 4), (2, 2), (3, None), (4, None)])
    def test_generate_random_draws_on_the_core_share(self, monkeypatch, size, workers):
        # On 4 cores each rank gets max(1, 4 // size) threads; one thread
        # needs no pool.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        pools = []

        class Recording(distmat.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(distmat, "ThreadPoolExecutor", Recording)
        run_ranks(size, lambda c: generate_random(c, 8 * ROW_BLOCK, 2, seed=1))
        assert pools == ([] if workers is None else [workers] * size)


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
            return crossprod(generate_random(comm, 40, 5, seed=11))

        n_dist = run_ranks(size, worker)[0]
        full = generate_random(solo_communicator(), 40, 5, seed=11).local
        want = full.T @ full
        assert np.max(np.abs(n_dist - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exactly_symmetric(self):
        def worker(comm):
            return crossprod(generate_random(comm, 30, 6, seed=3))

        got = run_ranks(3, worker)[0]
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exactly_symmetric_over_chunks(self, dtype, size, shifted):
        # Each block is two chunks and a row: a shifted block's Gram sums
        # three chunks, the last a partial one.
        chunk = chunk_rows(np.empty((0, 40), dtype), 40)
        full = random_rows(12, 0, size * (2 * chunk + 1), 40, "standard-normal", dtype) + dtype(10)

        def worker(comm):
            a = distribute(comm, full)
            assert a.local.shape[0] >= 2 * chunk_rows(a.local, a.cols)
            return crossprod(mean_center_columns(a)[0] if shifted else a)

        for got in run_ranks(size, worker):
            assert np.array_equal(got, got.T)

    def test_positive_semidefinite(self):
        got = crossprod(generate_random(solo_communicator(), 25, 6, seed=8))
        values, _ = sym_eigen(got)
        norm2 = values[0]
        assert np.all(values >= -1e-10 * norm2)

    @staticmethod
    def gram_of_product(a, x, shift):
        """Reference for crossprod(a, x): ((a - shift) x)^T ((a - shift) x)
        over row chunks of a, each chunk's product written into one buffer
        of the result dtype of a and x, then added in as its Gram."""
        rows, cols = a.shape[0], x.shape[1]
        chunk = chunk_rows(a, cols)
        buf = np.empty((min(chunk, rows), cols), dtype=np.result_type(a, x))
        g = np.zeros((cols, cols), dtype=buf.dtype)
        for _, a_c in row_chunks(a, chunk, shift):
            q_c = buf[: a_c.shape[0]]
            np.matmul(a_c, x, out=q_c)
            g += q_c.T @ q_c
        return g

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_right_factor_is_bitwise_the_gram_of_the_product(self, dtype, size, shifted):
        # Each block is two chunks and a row, against an n x n right factor
        # (R1^-1 in Cholesky QR2) and a narrower one.
        n = 40
        chunk = chunk_rows(np.empty((0, n), dtype), n)
        full = random_rows(13, 0, size * (2 * chunk + 1), n, "standard-normal", dtype) + dtype(10)
        rights = [random_rows(14, 0, n, cols, "standard-normal", dtype) for cols in (n, 3)]

        def worker(comm):
            a = distribute(comm, full)
            a = mean_center_columns(a)[0] if shifted else a
            assert a.block.shape[0] >= 2 * chunk_rows(a.block, n)
            got = [crossprod(a, right) for right in rights]
            want = [comm.allreduce_sum(self.gram_of_product(a.block, right, a.shift))
                    for right in rights]
            return all(g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes()
                       for g, w in zip(got, want))

        assert all(run_ranks(size, worker))

    @pytest.mark.parametrize("right", [
        np.ones((5, 4)), np.ones((4, 4), dtype=np.float32),
    ], ids=["rows", "dtype"])
    def test_bad_right_factor_raises_on_every_rank(self, right):
        def worker(comm):
            return crossprod(distribute(comm, np.ones((8, 4))), right)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        assert all(type(e) is ShapeError for e in info.value.failures.values())


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
            return mult_local(generate_random(comm, 21, 5, seed=21), b).local

        got = np.vstack(run_ranks(3, worker))
        want = generate_random(solo_communicator(), 21, 5, seed=21).local @ b
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_precision_rejected(self, dtype):
        other = np.float64 if dtype == np.float32 else np.float32
        a = generate_random(solo_communicator(), 10, 2, seed=1, dtype=dtype)
        with pytest.raises(ShapeError, match="precision"):
            mult_local(a, np.eye(2, dtype=other))


class TestMultAndTranspose:
    N, B_COLS = 8, 3

    @classmethod
    def chunk_rows(cls, dtype):
        return PASS_CHUNK_BYTES // (cls.N * np.dtype(dtype).itemsize)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("rows", ["0", "1", "chunk-1", "chunk", "chunk+1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_products(self, dtype, rows, size):
        # Every rank holds `rows` rows, so each walks the chunk boundary.
        chunk = self.chunk_rows(dtype)
        count = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
        rng = np.random.default_rng(30)
        full = rng.standard_normal((size * count, self.N)).astype(dtype)
        b = rng.standard_normal((self.N, self.B_COLS)).astype(dtype)
        full.flags.writeable = False

        def worker(comm):
            offset = comm.rank * count
            a = DistMatrix(full[offset : offset + count], size * count, offset, comm)
            y, w = mult_and_transpose(a, b)
            return y.local, y.global_rows, y.row_offset, w

        out = run_ranks(size, worker)
        y = np.vstack([local for local, _, _, _ in out])
        assert all(m == size * count and off == r * count for r, (_, m, off, _) in enumerate(out))
        assert all(np.array_equal(w, out[0][3]) for *_, w in out)
        # Within the rounding of a length-k inner product: k u |x|^T |z|.
        eps = np.finfo(dtype).eps
        a64, b64, y64 = (x.astype(np.float64) for x in (full, b, y))
        assert y.dtype == out[0][3].dtype == dtype
        assert np.all(np.abs(y64 - a64 @ b64) <= self.N * eps * (np.abs(a64) @ np.abs(b64)))
        want = a64.T @ y64
        bound = max(1, size * count) * eps * (np.abs(a64).T @ np.abs(y64))
        assert np.all(np.abs(out[0][3] - want) <= bound)

    @pytest.mark.parametrize("size", [1, 2])
    def test_leaves_input_untouched(self, size):
        def worker(comm):
            a = generate_random(comm, 3 * self.chunk_rows(np.float64) + 5, self.N, seed=31)
            before = a.local.copy()
            mult_and_transpose(a, np.ones((self.N, 2)))
            return np.array_equal(a.local.view(np.uint64), before.view(np.uint64))

        assert all(run_ranks(size, worker))

    def test_one_collective(self):
        def worker(comm):
            a = generate_random(comm, 40, 4, seed=32)
            before = comm.collective_count
            mult_and_transpose(a, np.eye(4))
            return comm.collective_count - before

        assert run_ranks(3, worker) == [1, 1, 1]

    def test_dimension_and_precision_mismatch(self):
        a = generate_random(solo_communicator(), 10, 2, seed=1)
        with pytest.raises(ShapeError, match="cols"):
            mult_and_transpose(a, np.eye(3))
        with pytest.raises(ShapeError, match="precision"):
            mult_and_transpose(a, np.eye(2, dtype=np.float32))


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
            return mult_transpose(a, y)

        got = run_ranks(3, worker)[0]
        fa = generate_random(solo_communicator(), 24, 3, seed=5).local
        fy = generate_random(solo_communicator(), 24, 2, seed=6).local
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

    def test_mixed_precision_rejected(self):
        comm = solo_communicator()
        a = generate_random(comm, 10, 2, seed=1)
        y = generate_random(comm, 10, 2, seed=2, dtype=np.float32)
        with pytest.raises(ShapeError, match="precision"):
            mult_transpose(a, y)


class TestOnePath:
    """A zero shift runs the unshifted matrix's own loop, bitwise.

    crossprod (through dense.gram, with or without a right factor),
    mult_local, mult_transpose and mult_and_transpose each walk the rows in one row_chunks loop, shifted
    or not.
    """

    N, Y_COLS = 40, 4

    @staticmethod
    def same_bits(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_shift_is_bitwise_unshifted(self, dtype, size):
        # Each block is two chunks and a row, so every loop crosses a chunk
        # boundary and ends on a partial chunk.
        chunk = chunk_rows(np.empty((0, self.N), dtype), self.N)
        full = random_rows(40, 0, size * (2 * chunk + 1), self.N, "standard-normal", dtype)
        factors = [
            random_rows(41, 0, self.N, cols, "standard-normal", dtype)
            for cols in (2, self.Y_COLS, self.N)
        ]

        def worker(comm):
            a = distribute(comm, full)
            zero = DistMatrix(a.block, a.global_rows, a.row_offset, comm,
                              np.zeros(self.N, dtype))
            assert a.block.shape[0] >= 2 * chunk_rows(a.block, self.N)
            y = mult_local(a, factors[1])
            y_zero = DistMatrix(y.block, y.global_rows, y.row_offset, comm,
                                np.zeros(self.Y_COLS, dtype))
            pairs = [(mult_local(zero, b).local, mult_local(a, b).local)
                     for b in factors]
            pairs += [(crossprod(zero, b), crossprod(a, b)) for b in factors]
            pairs += [
                (crossprod(zero), crossprod(a)),
                (mult_transpose(zero, y), mult_transpose(a, y)),
                (mult_transpose(y, zero), mult_transpose(y, a)),
                (mult_transpose(a, y_zero), mult_transpose(a, y)),
                (mult_transpose(y_zero, a), mult_transpose(y, a)),
            ]
            for b in factors:
                (y0, w0), (y1, w1) = mult_and_transpose(zero, b), mult_and_transpose(a, b)
                pairs += [(y0.local, y1.local), (w0, w1)]
            return [self.same_bits(shifted, plain) for shifted, plain in pairs]

        for rank, equal in enumerate(run_ranks(size, worker)):
            assert all(equal), f"rank {rank}: bitwise equal {equal}"


class TestMeanCenter:
    def test_constant_column(self):
        def worker(comm):
            a = distribute(comm, np.full((9, 1), 4.25))
            centered, means = mean_center_columns(a)
            return centered.local, means

        blocks = run_ranks(3, worker)
        assert np.array_equal(np.vstack([c for c, _ in blocks]), np.zeros((9, 1)))
        assert np.array_equal(blocks[0][1], [4.25])

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
            return centered.local

        full = np.vstack(run_ranks(4, worker))
        assert np.max(np.abs(full.mean(axis=0))) <= 1e-13


    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_centering_a_centered_matrix(self, size):
        rng = np.random.default_rng(31)
        full = rng.standard_normal((60, 4)) + np.array([10.0, -3.0, 1e3, 0.5])

        def worker(comm):
            centered, means = mean_center_columns(distribute(comm, full))
            again, again_means = mean_center_columns(centered)
            assert again.block is centered.block
            return centered.local, again.local, means, again_means

        for once, twice, means, again_means in run_ranks(size, worker):
            assert np.max(np.abs(twice - once)) <= 1e-12
            assert np.max(np.abs(again_means)) <= 1e-12
            assert np.allclose(means, full.mean(axis=0), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_centering_a_centered_matrix_allocates_no_copy(self, dtype):
        # The second block is 10x taller under the same bound: the peak
        # does not grow with the row count.
        for rows in (20_000, 200_000):
            full = random_rows(32, 0, rows, 50, "standard-normal", dtype)
            a = distribute(solo_communicator(), full)
            centered, _ = mean_center_columns(a)
            tracemalloc.start()
            try:
                mean_center_columns(centered)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The column sums, the means and the new shift (a few
            # n-vectors), plus the buffer numpy casts float32 rows into
            # for the float64 sum: np.getbufsize() values, whatever m and n.
            bound = np.getbufsize() * 8 + 64 * 50 * 8
            assert peak <= bound < a.block.nbytes, (rows, peak)


class TestGatherDistribute:
    """The per-rank blocks, stacked in rank order, are the full matrix."""

    def test_two_ranks(self):
        def worker(comm):
            return distribute(comm, np.array([[1.0], [2.0]])).local

        assert [b.tolist() for b in run_ranks(2, worker)] == [[[1.0]], [[2.0]]]

    def test_round_trip(self):
        full = generate_random(solo_communicator(), 13, 3, seed=44).local

        def worker(comm):
            a = generate_random(comm, 13, 3, seed=44)
            again = distribute(comm, full)
            return np.array_equal(again.local, a.local) and again.row_offset == a.row_offset

        assert all(run_ranks(4, worker))

    @pytest.mark.parametrize("dtype, bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_bitwise_exact_for_special_values(self, tmp_path, size, dtype, bits):
        # verify distributes the matrix it read whole; run reads row ranges.
        tiny = np.finfo(dtype).smallest_subnormal
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1.0]
        full = np.array(special * 3, dtype=dtype).reshape(8, 3)
        path = tmp_path / "special.tskm"
        write_matrix(path, full)

        def worker(comm):
            return distribute(comm, read_matrix(path)).local, read_distributed(comm, path).local

        blocks = run_ranks(size, worker)
        for got in (np.vstack([d for d, _ in blocks]), np.vstack([r for _, r in blocks])):
            assert got.dtype == full.dtype
            assert np.array_equal(got.view(bits), full.view(bits))


    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_rejected_on_every_rank(self, dtype):
        full = np.ones((6, 2), dtype=dtype)
        with pytest.raises(RankFailures) as info:
            run_ranks(3, distribute, full)
        assert sorted(info.value.failures) == [0, 1, 2]
        assert all(isinstance(e, UnsupportedDtype) for e in info.value.failures.values())


class TestBlockContract:
    """A DistMatrix block is a 2-d float32 or float64 array, and its shift
    an n-vector of the block's dtype, checked when the DistMatrix is
    built: an int32 Gram would wrap around and return a plausible, wrong
    sigma, and a bad shift would fail to broadcast at the first pass or
    turn `local` into float64."""

    f32 = np.ones((6, 3), dtype=np.float32)

    @pytest.mark.parametrize("block, shift, error", [
        (np.ones((6, 3), dtype=np.int32), None, UnsupportedDtype),
        (np.ones((6, 3), dtype=np.int64), None, UnsupportedDtype),
        (np.ones((6, 3), dtype=np.float16), None, UnsupportedDtype),
        (np.ones(6), None, ShapeError),
        (f32, np.ones(4, dtype=np.float32), ShapeError),
        (f32, np.ones((1, 3), dtype=np.float32), ShapeError),
        (f32, np.ones(3, dtype=np.float64), UnsupportedDtype),
    ], ids=["int32", "int64", "float16", "1-d",
            "shift-wrong-length", "shift-2-d", "shift-float64-on-float32"])
    def test_raises_on_every_rank(self, block, shift, error):
        def worker(comm):
            offset, count = block_range(len(block), comm.size, comm.rank)
            return DistMatrix(block[offset : offset + count], len(block), offset, comm, shift)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert sorted(info.value.failures) == [0, 1]
        assert all(type(e) is error for e in info.value.failures.values())


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

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.tskm"
        write_matrix(path, np.ones((4, 3)))
        with open(path, "r+b") as fh:
            fh.truncate(32 + 3 * 3 * 8 + 5)
        with pytest.raises(MatrixFileError, match="truncated payload"):
            read_matrix(path)
        assert np.array_equal(read_rows(path, 1, 2), np.ones((2, 3)))
        assert read_rows(path, 3, 0).shape == (0, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_checked_header_wants_the_whole_payload(self, tmp_path, dtype):
        path = tmp_path / "t.tskm"
        write_matrix(path, np.ones((4, 3), dtype=dtype))
        full = 32 + 4 * 3 * np.dtype(dtype).itemsize
        assert read_header(path) == (4, 3, np.dtype(dtype))
        with open(path, "r+b") as fh:
            fh.truncate(full - 1)
        with pytest.raises(MatrixFileError, match="truncated payload"):
            read_header(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_holds_one_copy_of_the_block(self, tmp_path, dtype):
        path = tmp_path / "big.tskm"
        write_matrix(path, np.ones((20_000, 50), dtype=dtype))
        tracemalloc.start()
        try:
            block = read_rows(path, 5_000, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(block == 1)
        assert peak <= 1.1 * block.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_holds_no_copy_of_the_array(self, tmp_path, dtype):
        a = np.ones((20_000, 50), dtype=dtype)
        path = tmp_path / "big.tskm"
        tracemalloc.start()
        try:
            write_matrix(path, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * a.nbytes
        assert np.array_equal(read_matrix(path), a)

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
