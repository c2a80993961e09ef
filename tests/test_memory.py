"""Transient memory of the sigma-only routes and of pca without scores,
measured with tracemalloc.

A rank holds its row block; what a route allocates on top of that must
not grow with the rows, except rsvd's m x 2k product. pca centers its
input implicitly, so it adds a chunk-sized centering buffer and a few
n x n arrays, never an m x n centered copy. The input is built
before tracing starts and handed out as views, so the traced peak is the
routes' own allocations, summed over the rank threads. numpy reports its
array buffers to tracemalloc; LAPACK's and BLAS's internal workspace is
not seen, and is O(n^2) or O(block) per call anyway.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tallskinny import svd
from tallskinny.comm import run_ranks
from tallskinny.dense import chunk_rows
from tallskinny.distmat import distribute, random_rows
from tallskinny.matrices import conditioned_matrix
from tallskinny.pca import pca
from tallskinny.svd import RsvdParams, route

M, N, K = 20_000, 50, 2
PARAMS = RsvdParams(k=K, q=2, projection="uniform01", seed=4)
# Slack on each term of the bound: a route holds a few n x n arrays and at
# most one chunk per rank at a time, and rsvd one m x 2k product.
SLACK = 2


def traced_peak(full, target, size):
    """Peak traced bytes while `size` ranks run target(DistMatrix of full)."""
    tracemalloc.start()
    try:
        run_ranks(size, lambda comm: target(distribute(comm, full)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_bytes(full):
    return chunk_rows(full, N) * N * full.itemsize


def sigma_only_bound(full, method, size):
    # numpy.linalg works on float64 copies of the n x n factors.
    bound = SLACK * size * (chunk_bytes(full) + N * N * 8)
    if method == "rsvd":
        bound += SLACK * M * 2 * K * full.itemsize
    return bound


def pca_bound(full, method, size):
    # Beyond the sigma-only route: one centering buffer per rank (the second
    # Cholesky QR pass holds it next to its product chunk), and the means, V
    # and the rotation, each at most n x n.
    return sigma_only_bound(full, method, size) + size * (
        chunk_bytes(full) + SLACK * N * N * 8
    )


def check(peak, bound, full, what):
    assert peak <= bound, f"{what}: peak {peak} B, bound {bound} B, input {full.nbytes} B"
    # An m x n temporary does not fit under the bound.
    assert bound < full.nbytes


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
def test_sigma_only_routes_allocate_no_block_sized_array(method, dtype, size):
    full = random_rows(3, 0, M, N, "standard-normal", dtype)
    fn, _ = route(method, N, PARAMS)
    peak = traced_peak(full, lambda a: fn(a).sigma, size)
    check(peak, sigma_only_bound(full, method, size), full, f"{method} p={size}")


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
def test_pca_without_scores_allocates_no_centered_copy(method, dtype, size):
    full = random_rows(3, 0, M, N, "standard-normal", dtype) + dtype(10)
    params = PARAMS if method == "rsvd" else None
    peak = traced_peak(full, lambda a: pca(a, method=method, params=params).sdev, size)
    check(peak, pca_bound(full, method, size), full, f"pca {method} p={size}")


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("centered", [False, True])
def test_tssvd_second_pass_allocates_no_block_sized_array(
    monkeypatch, centered, dtype, size
):
    # Standard-normal input takes qr_allreduce's one pass. At kappa = 10
    # every rank runs Cholesky QR2's chunked second pass over its block,
    # shifted when pca centers it.
    full = conditioned_matrix(M, N, 10.0, 3, dtype)
    second_passes = []
    grams = svd.crossprod

    def counted(a, right=None):
        if right is not None:
            second_passes.append(1)
        return grams(a, right)

    monkeypatch.setattr(svd, "crossprod", counted)
    if centered:
        full = full + dtype(10)
        peak = traced_peak(full, lambda a: pca(a, method="tssvd").sdev, size)
        bound = pca_bound(full, "tssvd", size)
    else:
        peak = traced_peak(full, lambda a: svd.svd_tsqr(a).sigma, size)
        bound = sigma_only_bound(full, "tssvd", size)
    assert len(second_passes) == size
    check(peak, bound, full, f"tssvd second pass, centered={centered} p={size}")


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rsvd_fallback_holds_one_product_more_than_the_fast_path(
    monkeypatch, dtype, size
):
    # Column means of 10, left uncentered, make Y = A Omega nearly rank one
    # at q = 0, so its one step falls back: Y gives way to Q1 = Y R^-1, and
    # Y and Q1 are the two m x 2k arrays it holds; Q_Y is never formed.
    # After power iterations on W the last step's Y is well conditioned
    # (growth 1.0 against 140 at q = 0) and stays on the fast path.
    full = random_rows(3, 0, M, N, "standard-normal", dtype)
    offset = full + dtype(10)
    fallbacks = []
    mult_transpose = svd.mult_transpose
    monkeypatch.setattr(
        svd, "mult_transpose", lambda q_y, a: fallbacks.append(1) or mult_transpose(q_y, a)
    )
    fast_fn, _ = route("rsvd", N, PARAMS)
    fast = traced_peak(full, lambda a: fast_fn(a).sigma, size)
    assert fallbacks == []
    fn, _ = route("rsvd", N, replace(PARAMS, q=0))
    peak = traced_peak(offset, lambda a: fn(a).sigma, size)
    assert len(fallbacks) >= size
    product = M * 2 * K * full.itemsize
    assert peak <= fast + product, (
        f"p={size}: fallback peak {peak} B, fast path {fast} B, one Y {product} B"
    )
