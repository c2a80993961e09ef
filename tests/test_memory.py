"""Transient memory of the sigma-only routes, measured with tracemalloc.

A rank holds its row block; what a route allocates on top of that must
not grow with the rows, except rsvd's m x 2k products. The input is built
before tracing starts and handed out as views, so the traced peak is the
routes' own allocations, summed over the rank threads. numpy reports its
array buffers to tracemalloc; LAPACK's and BLAS's internal workspace is
not seen, and is O(n^2) or O(block) per call anyway.
"""

import tracemalloc

import numpy as np
import pytest

from tallskinny.comm import run_ranks
from tallskinny.dense import chunk_rows
from tallskinny.distmat import distribute, random_rows
from tallskinny.svd import RsvdParams, route

M, N, K = 20_000, 50, 2
# Slack on each term of the bound: a route holds a few n x n arrays and at
# most one chunk per rank at a time, and rsvd two m x 2k products at once.
SLACK = 2


def traced_peak(full, method, size):
    """Peak traced bytes while `size` ranks run `method` for sigma on `full`."""
    fn = route(method, RsvdParams(k=K, q=2, projection="uniform01", seed=4))
    tracemalloc.start()
    try:
        run_ranks(size, lambda comm: fn(distribute(comm, full)).sigma)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
def test_sigma_only_routes_allocate_no_block_sized_array(method, dtype, size):
    full = random_rows(3, 0, M, N, "standard-normal", dtype)
    itemsize = full.itemsize
    # numpy.linalg works on float64 copies of the n x n factors.
    per_rank = chunk_rows(full, N) * N * itemsize + N * N * 8
    bound = SLACK * size * per_rank
    if method == "rsvd":
        bound += 2 * SLACK * M * 2 * K * itemsize
    peak = traced_peak(full, method, size)
    assert peak <= bound, (
        f"{method} p={size}: peak {peak} B, bound {bound} B, input {full.nbytes} B"
    )
    # An m x n temporary does not fit under the bound.
    assert bound < full.nbytes
