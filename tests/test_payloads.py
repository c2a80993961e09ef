"""Every collective payload is at most n x n, whatever the row count.

The routes, pca and both svdbench commands send only values whose size
depends on the column count n (crossproducts, R factors, column sums,
projections). A payload that grows with the rows would not scale past one
machine's memory, so this pins the rule at the one collective every
public operation goes through.
"""

import io

import numpy as np
import pytest

from tallskinny.bench import ALGOS, BenchConfig, run_bench, run_verify
from tallskinny.comm import Communicator, run_ranks
from tallskinny.distmat import distribute, generate_random
from tallskinny.pca import pca
from tallskinny.svd import RsvdParams, route, svd_randomized

M, N, P = 4000, 10, 2


@pytest.fixture
def payload_sizes(monkeypatch):
    sizes = []
    allreduce = Communicator._allreduce

    def recording(self, local, op, header):
        sizes.append(local.size)
        return allreduce(self, local, op, header)

    monkeypatch.setattr(Communicator, "_allreduce", recording)
    return sizes


def _routes_and_pca(comm, method):
    a = generate_random(comm, M, N, seed=50)
    params = RsvdParams(k=2, seed=51)
    route(method, N, params)[0](a, want_u=True)
    pca(a, method=method, want_scores=True, params=params)


@pytest.mark.parametrize("method", ALGOS)
def test_routes_and_pca(payload_sizes, method):
    run_ranks(P, _routes_and_pca, method)
    assert payload_sizes and max(payload_sizes) <= N * N


@pytest.mark.parametrize("method", ALGOS)
def test_svdbench_run_and_verify(payload_sizes, method):
    cfg = BenchConfig(algo=method, rows=M, cols=N, ranks=P, reps=1)
    assert run_bench(cfg, io.StringIO(), io.StringIO()) == 0
    assert run_verify(cfg, "random", io.StringIO()) == 0
    assert payload_sizes and max(payload_sizes) <= N * N


def _rsvd_rank_deficient(comm):
    # Rank one: the one step of svd_randomized takes its fallback, which
    # adds the re-orthogonalizing R2 and Q1^T A to the W and R of the fast
    # path.
    rng = np.random.default_rng(52)
    full = np.outer(rng.standard_normal(M), rng.standard_normal(N))
    a = distribute(comm, full)
    svd_randomized(a, RsvdParams(k=2, q=0, seed=53), want_u=True)


def test_rsvd_fallback(payload_sizes):
    run_ranks(P, _rsvd_rank_deficient)
    # Per rank: W; Y's Gram, whose Cholesky QR fails on a rank-one Y, so
    # the Householder tree follows it; Q1's Gram and G2 (Q1 takes two
    # Cholesky QR passes); and Q1^T A.
    assert len(payload_sizes) == 6 * P
    assert max(payload_sizes) <= N * N
