"""float32 at the heights the paper targets: no sum over rows grows with m.

A sum of m rows in float32 can err by up to m u of its terms' size. The
routes' sums that grow with the row count are the Gram (cpsvd's
crossproduct and qr_allreduce's first pass, so tssvd too) and the column means
that pca centers by. Each test here runs at a height where a sum taken in
one piece over the block's rows fails its gate: 2e7 rows for the Gram,
1e6 rows of column means 1000 for the centering.
"""

import numpy as np
import pytest

from tallskinny.bench import verify_tolerance
from tallskinny.comm import run_ranks, solo_communicator
from tallskinny.distmat import distribute, random_rows
from tallskinny.pca import pca
from tallskinny.svd import RsvdParams, route

# svdbench verify --precision f32 --rows 20000000 --cols 4 --ranks 1 (seed 42).
GRAM_ROWS, GRAM_COLS, GRAM_SEED = 20_000_000, 4, 42
ORACLE_CHUNK = 1_000_000


@pytest.fixture(scope="module")
def tall_f32():
    """The verify cell's f32 matrix and its float64 singular values.

    The oracle is a Householder QR of each 1e6-row chunk in float64, then
    the SVD of the stacked R factors: a backward-stable float64 SVD, as
    verify's LAPACK oracle is, without an m x n float64 copy.
    """
    full = random_rows(GRAM_SEED, 0, GRAM_ROWS, GRAM_COLS, "standard-normal", np.float32)
    r = [np.linalg.qr(full[i : i + ORACLE_CHUNK].astype(np.float64), mode="r")
         for i in range(0, GRAM_ROWS, ORACLE_CHUNK)]
    return full, np.linalg.svd(np.vstack(r), compute_uv=False)


@pytest.mark.parametrize("algo", ["cpsvd", "tssvd"])
def test_f32_gram_at_paper_height_passes_verify(tall_f32, algo):
    full, oracle = tall_f32
    solve, _ = route(algo, GRAM_COLS)
    sigma = solve(distribute(solo_communicator(), full)).sigma
    error = np.abs(sigma.astype(np.float64) - oracle)
    assert np.all(error <= verify_tolerance(algo, oracle, np.float32)), error


# pca's centering: standard-normal data plus 1000 in every column.
PCA_ROWS, PCA_COLS, PCA_OFFSET = 1_000_000, 2, 1000


@pytest.fixture(scope="module")
def offset_f32():
    """The f32 data and the sdev of its float64 centering, by LAPACK."""
    full = random_rows(7, 0, PCA_ROWS, PCA_COLS, "standard-normal", np.float32)
    full += np.float32(PCA_OFFSET)
    data = full.astype(np.float64)
    data -= data.mean(axis=0)
    return full, np.linalg.svd(data, compute_uv=False) / np.sqrt(PCA_ROWS - 1)


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("method", ["cpsvd", "tssvd", "rsvd"])
def test_f32_pca_of_offset_columns_matches_f64(offset_f32, method, size):
    full, ref = offset_f32
    params = RsvdParams(k=1, seed=3) if method == "rsvd" else None
    sdev = run_ranks(size, lambda c: pca(distribute(c, full), method, params=params).sdev)[0]
    ref = ref[: len(sdev)]
    # rsvd's verify bound is 1% of each value; the full-spectrum routes
    # are held to verify's rounding bound.
    tolerance = verify_tolerance(method, ref, np.float32)
    assert np.all(np.abs(sdev.astype(np.float64) - ref) <= tolerance), (sdev, ref)
