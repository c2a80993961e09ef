import sys
import threading
import time

import numpy as np
import pytest

from tallskinny.comm import (
    CollectiveContractError,
    CollectiveError,
    SUM,
    RankFailures,
    ReduceOperator,
    run_ranks,
    solo_communicator,
)
from tallskinny.dense import qr_R


MAX = ReduceOperator("max", np.maximum)


class TestAllreduceSum:
    def test_rank_values_sum(self):
        out = run_ranks(4, lambda c: c.allreduce_sum(np.array([[float(c.rank)]])))
        for got in out:
            assert np.array_equal(got, [[6.0]])

    def test_solo_identity(self):
        comm = solo_communicator()
        local = np.array([[1.5, 2.5]])
        got = comm.allreduce_sum(local)
        assert np.array_equal(got, local)
        assert got is not local

    def test_identity_stack(self):
        out = run_ranks(3, lambda c: c.allreduce_sum(np.eye(2)))
        assert np.array_equal(out[0], 3 * np.eye(2))

    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_matches_serial_left_sum(self, size):
        rng = np.random.default_rng(size)
        blocks = [rng.standard_normal((4, 3)) for _ in range(size)]
        serial = blocks[0].copy()
        for b in blocks[1:]:
            serial = serial + b
        out = run_ranks(size, lambda c: c.allreduce_sum(blocks[c.rank]))
        bound = 1e-13 * size * max(np.max(np.abs(b)) for b in blocks)
        for got in out:
            assert np.max(np.abs(got - serial)) <= bound

    def test_bitwise_deterministic_across_runs(self):
        rng = np.random.default_rng(17)
        blocks = [rng.standard_normal((5, 2)) for _ in range(6)]
        first = run_ranks(6, lambda c: c.allreduce_sum(blocks[c.rank]))
        second = run_ranks(6, lambda c: c.allreduce_sum(blocks[c.rank]))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_shape_disagreement_fails_all_ranks(self):
        def worker(comm):
            shape = (2, 2) if comm.rank == 0 else (3, 2)
            return comm.allreduce_sum(np.ones(shape))

        with pytest.raises(RankFailures) as info:
            run_ranks(3, worker, timeout=10)
        assert set(info.value.failures) == {0, 1, 2}

    @pytest.mark.parametrize("odd_rank", [1, 2, 3, 4])
    def test_shape_disagreement_on_one_rank_of_five_fails_all(self, odd_rank):
        # Rank 1 is a leaf under the root, 2 an inner node, 3 a leaf under
        # an inner node and 4 the root's last child: every tree depth.
        def worker(comm):
            shape = (3, 2) if comm.rank == odd_rank else (2, 2)
            return comm.allreduce_sum(np.ones(shape))

        with pytest.raises(RankFailures) as info:
            run_ranks(5, worker, timeout=10)
        failures = info.value.failures
        assert set(failures) == {0, 1, 2, 3, 4}
        assert all(isinstance(exc, CollectiveError) for exc in failures.values())
        detected = [e for e in failures.values() if isinstance(e, CollectiveContractError)]
        assert len(detected) == 1
        assert "seq 0" in str(detected[0]) and "(3, 2)" in str(detected[0])

    def test_received_copy_is_private(self):
        def worker(comm):
            got = comm.allreduce_sum(np.zeros((2, 2)))
            got += comm.rank
            comm.barrier()
            return got

        out = run_ranks(3, worker)
        assert np.array_equal(out[0], np.zeros((2, 2)))
        assert np.array_equal(out[2], 2 * np.ones((2, 2)))


class TestAllreduceCustom:
    def test_elementwise_max(self):
        out = run_ranks(4, lambda c: c.allreduce_custom(np.array([[float(c.rank)]]), MAX))
        for got in out:
            assert np.array_equal(got, [[3.0]])

    def test_solo_identity(self):
        comm = solo_communicator()
        got = comm.allreduce_custom(np.eye(2), MAX)
        assert np.array_equal(got, np.eye(2))

    def test_noncommutative_order_is_rank_order(self):
        # combine(lower, higher) concatenated as a string-in-matrix stand-in:
        # encode rank r as 10^r and keep a left-fold checksum 10*lo + hi.
        op = ReduceOperator("fold", lambda lo, hi: 10 * lo + hi)
        out = run_ranks(4, lambda c: c.allreduce_custom(np.array([[float(c.rank)]]), op))
        # tree: ((0,1),(2,3)) -> 10*(10*0+1) + (10*2+3)
        assert np.array_equal(out[0], [[10 * 1 + 23.0]])

    @pytest.mark.parametrize("combine, emitted", [
        (lambda lo, hi: np.vstack((lo, hi)), "(4, 2) float64"),
        (lambda lo, hi: (lo + hi).astype(np.float32), "(2, 2) float32"),
        (lambda lo, hi: (lo + hi).tolist(), "emitted list"),
        (lambda lo, hi: float((lo + hi).sum()), "emitted float"),
    ], ids=["shape", "dtype", "list", "float"])
    def test_combine_must_keep_payload_shape_and_dtype(self, combine, emitted):
        op = ReduceOperator("bad", combine)

        def worker(comm):
            return comm.allreduce_custom(np.ones((2, 2)), op)

        with pytest.raises(RankFailures) as info:
            run_ranks(3, worker, timeout=10)
        failures = info.value.failures
        assert set(failures) == {0, 1, 2}
        assert all(isinstance(exc, CollectiveError) for exc in failures.values())
        detected = [e for e in failures.values() if isinstance(e, CollectiveContractError)]
        assert detected and all(emitted in str(e) for e in detected)

    def test_qr_reducer_associative_on_samples(self):
        rng = np.random.default_rng(23)
        combine = lambda lo, hi: qr_R(np.vstack((lo, hi)))
        for _ in range(5):
            r1, r2, r3 = (qr_R(rng.standard_normal((8, 4))) for _ in range(3))
            left = combine(combine(r1, r2), r3)
            right = combine(r1, combine(r2, r3))
            assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(left))


class TestErrorPropagation:
    def test_mismatched_collectives_detected_not_deadlocked(self):
        def worker(comm):
            if comm.rank == 0:
                return comm.allreduce_sum(np.ones((1, 1)))
            return comm.allreduce_custom(np.ones((1, 1)), MAX)

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker, timeout=10)
        messages = " ".join(str(e) for e in info.value.failures.values())
        assert "mismatch" in messages or "aborted" in messages
        assert set(info.value.failures) == {0, 1}

    def test_absent_rank_times_out(self):
        def worker(comm):
            if comm.rank == 1:
                return None  # never joins the collective
            return comm.allreduce_sum(np.ones((1, 1)))

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker, timeout=0.5)
        assert 0 in info.value.failures
        assert isinstance(info.value.failures[0], CollectiveError)

    @pytest.mark.parametrize("timeout", [float("inf"), 1e300, 0, -1, float("nan")])
    def test_timeout_out_of_range_starts_no_rank(self, monkeypatch, timeout):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        with pytest.raises(ValueError, match="timeout"):
            run_ranks(2, lambda comm: None, timeout=timeout)
        assert started == []

    def test_failing_reduce_operator_poisons_peers(self):
        def bad_combine(lo, hi):
            raise ValueError("deliberate")

        op = ReduceOperator("bad", bad_combine)

        def worker(comm):
            return comm.allreduce_custom(np.ones((1, 1)), op)

        with pytest.raises(RankFailures) as info:
            run_ranks(4, worker, timeout=10)
        assert set(info.value.failures) == {0, 1, 2, 3}

    def test_rank_raising_outside_a_collective_poisons_peers(self):
        # Rank 0 never enters the allreduce its peer waits in; at the
        # default timeout of 120 s the peer must still learn of it at once.
        def worker(comm):
            if comm.rank == 0:
                raise ValueError("deliberate, before the collective")
            return comm.allreduce_sum(np.ones((1, 1)))

        start = time.monotonic()
        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker)
        assert time.monotonic() - start < 1.0
        assert isinstance(info.value.failures[0], ValueError)
        assert isinstance(info.value.failures[1], CollectiveError)
        assert "rank 0" in str(info.value.failures[1])


class TestSequencing:
    def test_collective_count_increments(self):
        def worker(comm):
            comm.allreduce_sum(np.ones((1, 1)))
            comm.barrier()
            return comm.collective_count

        assert run_ranks(3, worker) == [2, 2, 2]

    def test_solo_counts_too(self):
        comm = solo_communicator()
        comm.allreduce_sum(np.ones((1, 1)))
        assert comm.collective_count == 1

    def test_pipelined_collectives_stay_ordered(self):
        def worker(comm):
            total = np.zeros((1, 1))
            for i in range(20):
                total += comm.allreduce_sum(np.array([[float(comm.rank + i)]]))
            return total

        out = run_ranks(4, worker)
        want = sum(float(0 + 1 + 2 + 3 + 4 * i) for i in range(20))
        for got in out:
            assert got[0, 0] == want

    def test_mixed_collectives_under_fast_thread_switching(self):
        # More ranks than cores and a tiny switch interval shuffle the
        # arrival order of tree messages across consecutive collectives.
        fold = ReduceOperator("fold", lambda lo, hi: 2 * lo + hi)

        def worker(comm):
            out = []
            for i in range(100):
                x = np.array([[float(comm.rank + i)]])
                out.append(comm.allreduce_sum(x)[0, 0])
                out.append(comm.allreduce_custom(x, fold)[0, 0])
            return out

        def fold_tree(values):
            if len(values) == 1:
                return values[0]
            half = 1 << (len(values) - 1).bit_length() - 1
            return 2 * fold_tree(values[:half]) + fold_tree(values[half:])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_ranks(5, worker, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        want = []
        for i in range(100):
            values = [float(r + i) for r in range(5)]
            want += [sum(values), fold_tree(values)]
        assert all(got == want for got in results)

    def test_operator_name_mismatch_detected(self):
        def worker(comm):
            op = MAX if comm.rank == 0 else SUM
            return comm.allreduce_custom(np.ones((1, 1)), op)

        with pytest.raises(RankFailures):
            run_ranks(2, worker, timeout=10)
