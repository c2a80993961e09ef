"""Routes on an implicitly centered matrix against an explicitly centered copy.

mean_center_columns returns a DistMatrix that shares its input's rows and
carries the column means as a shift; the chunked kernels subtract the
shift chunk by chunk. Each route run on it must agree with the same route
run on a DistMatrix of the explicitly centered block, and so must pca,
which centers its input itself. The chunk size is cut to 1 KiB so that
every pass over a few hundred rows spans several chunks, and a chunk that
ignores the shift, or a centering by a rank-one correction of the Gram,
shows at column means of 10 and 1e3.
"""

from dataclasses import replace

import numpy as np
import pytest

from tallskinny import dense, svd
from tallskinny.bench import verify_tolerance
from tallskinny.dense import qr_R
from tallskinny.comm import run_ranks, solo_communicator
from tallskinny.distmat import DistMatrix, distribute, mean_center_columns
from tallskinny.matrices import conditioned_matrix
from tallskinny.pca import pca
from tallskinny.svd import RsvdParams, route

PARAMS = RsvdParams(k=2, q=2, seed=5)
# The rank-one case runs with no power iterations, so that its one step
# takes the fallback. After iterations on W, the last step's growth g on
# this input falls from 4e4-6e15 to 1.0-10, under the guard in most cells.
RANK_ONE_PARAMS = replace(PARAMS, q=0)
# What a cell compares: the route's sigma and V, the same with U, or pca's
# sdev and rotation (its V) against the explicit route's sigma and V,
# scaled as pca scales them.
WANTS = ("sigma", "u", "v")
CASES = [
    ("cpsvd", "tall"),
    ("cpsvd", "short"),
    ("tssvd", "tall"),
    ("tssvd", "short"),
    ("rsvd", "tall"),
    ("rsvd", "short"),
    ("rsvd", "rank-one"),
]


def data(shape, mean, dtype):
    """300 x 12 or 40 x 24 (fewer rows per rank than columns at p >= 2)
    standard-normal data, or a 300 x 12 rank-one matrix, plus `mean`."""
    rng = np.random.default_rng(7)
    if shape == "rank-one":
        base = np.outer(rng.standard_normal(300), rng.standard_normal(12))
    else:
        base = rng.standard_normal((300, 12) if shape == "tall" else (40, 24))
    return (base + mean).astype(dtype)


def shifted_and_explicit(full, method, params, size, want):
    """Per rank: (sigma, U block, V) on the shifted and the explicit matrix."""
    fn, _ = route(method, full.shape[1], params)

    def worker(comm):
        a = distribute(comm, full)
        shifted, means = mean_center_columns(a)
        assert shifted.block is a.block
        explicit = DistMatrix(a.local - means, a.global_rows, a.row_offset, comm)
        out = []
        for x in (shifted, explicit):
            res = fn(x, want_u=want == "u")
            out.append((res.sigma, None if res.u is None else res.u.local, res.v))
        if want == "v":
            got = pca(a, method, params=params)
            scale = got.sdev.dtype.type(np.sqrt(a.global_rows - 1))
            out = [(got.sdev, None, got.rotation), (out[1][0] / scale, None, out[1][2])]
        return out

    return run_ranks(size, worker)


def assert_close(got, want, tol, what):
    err = np.abs(got - want)
    assert np.all(err <= tol), f"{what}: error {err.max():.3g}, over its bound"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mean", [0.0, 10.0, 1e3])
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("want", WANTS)
@pytest.mark.parametrize("method, shape", CASES)
def test_shifted_matches_explicit_centering(monkeypatch, method, shape, want, size, mean, dtype):
    monkeypatch.setattr(dense, "PASS_CHUNK_BYTES", 1024)
    shifted_passes = []
    original = svd.mult_transpose

    def counted(y, a):
        shifted_passes.append(a.shift is not None)
        return original(y, a)

    monkeypatch.setattr(svd, "mult_transpose", counted)
    params = RANK_ONE_PARAMS if shape == "rank-one" else PARAMS
    results = shifted_and_explicit(data(shape, mean, dtype), method, params, size, want)

    if shape == "rank-one":
        # Y = A Omega has rank one, so the one step takes the fallback,
        # whose mult_transpose(Q1, A) gets the shifted A second.
        assert any(shifted_passes)
    for (s_sigma, s_u, s_v), (e_sigma, e_u, e_v) in results:
        if method == "rsvd" and shape != "rank-one":
            # The fused passes read the same chunk values in the same order.
            assert np.array_equal(s_sigma, e_sigma)
            assert s_u is None or np.array_equal(s_u, e_u)
            assert np.array_equal(s_v, e_v)
            continue
        assert s_sigma.shape == e_sigma.shape and s_v.shape == e_v.shape
        # Both sides hold the same centered values and differ by rounding
        # alone. Take verify's term t = 2 lambda n (u + u64) as the
        # relative backward error, so A^T A moves by up to t sigma_1^2.
        # Davis-Kahan bounds the change of each right singular vector by
        # that over sigma_i^2's distance to the rest of the spectrum, and
        # U = A V / sigma scales it by about sigma_1 / sigma_i.
        term = verify_tolerance("tssvd", e_sigma, dtype)[0] / e_sigma[0]
        if shape == "rank-one":
            assert_close(s_sigma, e_sigma, term * e_sigma[0], "sigma")
            assert_close(s_v[:, 0], e_v[:, 0], 2 * term, "leading V vector")
            if s_u is not None:
                assert_close(s_u[:, 0], e_u[:, 0], 2 * term, "leading U vector")
            continue
        assert_close(s_sigma, e_sigma, verify_tolerance(method, e_sigma, dtype), "sigma")
        squares = e_sigma.astype(np.float64) ** 2
        gaps = np.abs(squares[:, None] - squares[None, :]) + np.diag(np.full(len(squares), np.inf))
        v_tol = term * squares[0] / gaps.min(axis=1)
        assert_close(s_v, e_v, v_tol, "V")
        if s_u is not None:
            assert_close(s_u, e_u, 2 * v_tol * e_sigma[0] / e_sigma, "U")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cond", [1e1, 1e8])
def test_qr_allreduce_of_a_shifted_block(monkeypatch, cond, dtype):
    # qr_allreduce on one rank, of a shifted block and of the explicitly
    # centered one. One chunk, so both passes see exactly the explicit
    # block's values. At cond 1e8 the condition estimate sends both to the
    # Householder band's qr_R.
    fallbacks = []

    def counted(x):
        fallbacks.append(x.shape)
        return qr_R(x)

    def solo_R(block, shift=None):
        return svd.qr_allreduce(DistMatrix(block, len(block), 0, solo_communicator(), shift))

    monkeypatch.setattr(svd, "qr_R", counted)
    shift = np.linspace(-1e3, 1e3, 5).astype(dtype)
    block = conditioned_matrix(200, 5, cond, 3, dtype) + shift
    assert np.array_equal(solo_R(block, shift), solo_R(block - shift))
    assert len(fallbacks) == (2 if cond > 1e4 else 0)
