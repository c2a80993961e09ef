import sys
import threading
import time

import numpy as np
import pytest

from tallskinny import comm as comm_module
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

FAILURE_KINDS = ["mismatch", "combine-raises", "combine-reshapes", "outside"]


def _boom(lo, hi):
    raise ValueError("deliberate")


_FAILING_OPS = {
    "combine-raises": ReduceOperator("boom", _boom),
    "combine-reshapes": ReduceOperator("stack", lambda lo, hi: np.vstack((lo, hi))),
}


def _failing_worker(kind):
    """A rank target that fails one collective of (2, 2) payloads.

    The last rank's shape, a combine on the inner ranks, or the last rank
    raising before the collective.
    """

    def worker(comm):
        last = comm.rank == comm.size - 1
        if kind == "outside" and last:
            raise ValueError("deliberate, before the collective")
        if kind in _FAILING_OPS:
            return comm.allreduce_custom(np.ones((2, 2)), _FAILING_OPS[kind])
        return comm.allreduce_sum(np.ones((3, 2) if kind == "mismatch" and last else (2, 2)))

    return worker


def _expected_reports(kind, size):
    """rank -> (type, message) that _failing_worker(kind) gives at `size`.

    The ranks that detect the failure report their own error; every other
    rank names the rank where the failure began, with its message.
    """
    last = size - 1
    if kind == "combine-raises":
        origin = 0
        own = {r: (CollectiveError, f"reduce operator 'boom' failed on rank {r}: deliberate")
               for r in range(0, last, 2)}  # every rank with a level-0 child combines
    elif kind == "combine-reshapes":
        origin = 0
        own = {r: (CollectiveContractError,
                   "reduce op 'stack' emitted (4, 2) float64, not (2, 2) float64")
               for r in range(0, last, 2)}
    elif kind == "mismatch":
        origin = last & (last - 1)  # the last rank's parent: its lowest set bit cleared
        own = {origin: (CollectiveContractError,
                        f"collective sequence mismatch at seq 0: rank {origin}: "
                        f"('sum', (2, 2), 'float64'); rank {last}: ('sum', (3, 2), 'float64')")}
    else:
        origin = last
        own = {last: (ValueError, "deliberate, before the collective")}
    aborted = (CollectiveError, f"collective aborted by rank {origin}: {own[origin][1]}")
    return {r: own.get(r, aborted) for r in range(size)}


class _RecordedQueue:
    """A rank queue that notes which rank thread posted each message."""

    def __init__(self, inner):
        self.inner = inner
        self.posts = []

    def put(self, msg):
        self.posts.append((threading.current_thread().name, msg))
        self.inner.put(msg)

    def get(self, timeout=None):
        return self.inner.get(timeout=timeout)


@pytest.fixture
def recorded_worlds(monkeypatch):
    """Every _World built in the test, its queues recording their posts."""
    worlds = []
    init = comm_module._World.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.inboxes = [[_RecordedQueue(q) for q in boxes] for boxes in self.inboxes]
        worlds.append(self)

    monkeypatch.setattr(comm_module._World, "__init__", recording_init)
    return worlds


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
        # Every rank, the root included, updates its result in place at
        # once, while its peers may still be copying theirs: a peer that
        # shared the root's array would return the root's update.
        def worker(comm, op):
            out = []
            for _ in range(20):
                local = np.zeros((50, 50))
                got = comm.allreduce_sum(local) if op is None else comm.allreduce_custom(local, op)
                got += comm.rank + 1
                out.append(got)
            return out

        for size in (2, 3, 5):
            for op in (None, MAX):
                for rank, results in enumerate(run_ranks(size, worker, op)):
                    for got in results:
                        assert np.array_equal(got, np.full((50, 50), rank + 1.0))


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
        mismatch = ("collective sequence mismatch at seq 0: rank 0: ('sum', (1, 1), "
                    "'float64'); rank 1: ('max', (1, 1), 'float64')")
        assert {r: (type(e), str(e)) for r, e in info.value.failures.items()} == {
            0: (CollectiveContractError, mismatch),
            1: (CollectiveError, f"collective aborted by rank 0: {mismatch}"),
        }

    def test_absent_rank_times_out(self):
        def worker(comm):
            if comm.rank == 1:
                return None  # never joins the collective
            return comm.allreduce_sum(np.ones((1, 1)))

        with pytest.raises(RankFailures) as info:
            run_ranks(2, worker, timeout=0.5)
        assert 0 in info.value.failures
        assert isinstance(info.value.failures[0], CollectiveError)
        assert str(info.value.failures[0]) == (
            "rank 0 timed out after 0.5s waiting for (red, seq 0) from rank 1"
        )

    @pytest.mark.parametrize("timeout", [float("inf"), 1e300, 0, -1, float("nan")])
    def test_timeout_out_of_range_starts_no_rank(self, monkeypatch, timeout):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        with pytest.raises(ValueError, match="timeout"):
            run_ranks(2, lambda comm: None, timeout=timeout)
        assert started == []

    @pytest.mark.parametrize("size", [2.5, "2", 0])
    def test_size_not_a_positive_integer_starts_no_rank(self, monkeypatch, size):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        with pytest.raises(ValueError, match="size"):
            run_ranks(size, lambda comm: None)
        assert started == []

    def test_numpy_integer_size_runs(self):
        assert run_ranks(np.int64(2), lambda comm: (comm.rank, comm.size)) == [(0, 2), (1, 2)]

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

    @pytest.mark.parametrize("raising", [1, 2, 3, 4])
    def test_peers_blocked_at_every_tree_level_wake_at_once(self, raising):
        # In a five-rank tree rank 0 waits on levels 0, 1 and 2, rank 2 on
        # level 0 and the others on the broadcast: whichever rank raises,
        # each peer learns of it long before the timeout.
        def worker(comm):
            if comm.rank == raising:
                raise ValueError("deliberate, before the collective")
            return comm.allreduce_sum(np.ones((1, 1)))

        start = time.monotonic()
        with pytest.raises(RankFailures) as info:
            run_ranks(5, worker, timeout=30)
        assert time.monotonic() - start < 1.0
        assert set(info.value.failures) == {0, 1, 2, 3, 4}
        for rank, exc in info.value.failures.items():
            if rank != raising:
                assert isinstance(exc, CollectiveError)

    @pytest.mark.parametrize("size", [3, 5, 8])
    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_failure_kind_reaches_every_peer_at_once(self, kind, size):
        # The timeout is 60 s, and every rank must fail long before it.
        start = time.monotonic()
        with pytest.raises(RankFailures) as info:
            run_ranks(size, _failing_worker(kind), timeout=60)
        assert time.monotonic() - start < 5.0
        assert set(info.value.failures) == set(range(size))

    @pytest.mark.parametrize("size", [3, 5, 8])
    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_rank_reports_where_the_failure_began(self, kind, size):
        # A tiny switch interval shuffles which rank reaches its queue
        # first; the reports must not depend on it.
        want = _expected_reports(kind, size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(30):
                with pytest.raises(RankFailures) as info:
                    run_ranks(size, _failing_worker(kind), timeout=60)
                assert {r: (type(e), str(e)) for r, e in info.value.failures.items()} == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size", range(2, 10))
    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_every_queue_keeps_its_one_feeder_in_a_failing_run(
        self, recorded_worlds, kind, size
    ):
        # A poison posted outside the failed rank's own edges could
        # overtake the message the queue's owner waits for.
        with pytest.raises(RankFailures):
            run_ranks(size, _failing_worker(kind), timeout=60)
        (world,) = recorded_worlds
        for d, boxes in enumerate(world.inboxes):
            for j, box in enumerate(boxes):
                feeder = 0 if j == len(boxes) - 1 else d + (1 << j)
                assert {name for name, _ in box.posts} <= {f"rank-{feeder}"}, (d, j)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_a_failure_of_every_rank_posts_two_poisons_per_peer_at_most(
        self, recorded_worlds, kind
    ):
        # At the 256-rank ceiling every rank fails: each posts one poison
        # to its parent, and the root one to each peer's broadcast queue.
        size = 256
        with pytest.raises(RankFailures) as info:
            run_ranks(size, _failing_worker(kind), timeout=60)
        assert set(info.value.failures) == set(range(size))
        (world,) = recorded_worlds
        posts = [msg for boxes in world.inboxes for box in boxes for _, msg in box.posts]
        assert sum(isinstance(msg, comm_module._Poison) for msg in posts) <= 2 * (size - 1)

    @pytest.mark.parametrize("ranks, named", [
        (range(256), "0-255"),
        ([7, 0, 3, 2, 4], "0, 2-4, 7"),
        ([5], "5"),
    ])
    def test_rank_failures_name_their_ranks_as_ranges(self, ranks, named):
        failures = RankFailures({r: ValueError("deliberate") for r in ranks})
        assert str(failures) == (
            f"rank(s) {named} failed; rank {min(ranks)}: ValueError('deliberate')"
        )


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

    @pytest.mark.parametrize("size", range(1, 10))
    def test_every_inbox_is_empty_after_a_run(self, size):
        # Each receive takes the one message its queue holds for that
        # collective; a stray or misrouted message would be left behind.
        fold = ReduceOperator("fold", lambda lo, hi: 2 * lo + hi)

        def worker(comm):
            for i in range(30):
                x = np.array([[float(comm.rank + i)]])
                comm.allreduce_sum(x)
                comm.allreduce_custom(x, fold)
            return comm._world

        def queues(inboxes):
            if isinstance(inboxes, list):
                return [q for item in inboxes for q in queues(item)]
            return [inboxes]

        world = run_ranks(size, worker)[0]
        assert all(q.empty() for q in queues(world.inboxes))

    def test_operator_name_mismatch_detected(self):
        def worker(comm):
            op = MAX if comm.rank == 0 else SUM
            return comm.allreduce_custom(np.ones((1, 1)), op)

        with pytest.raises(RankFailures):
            run_ranks(2, worker, timeout=10)
