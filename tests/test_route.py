"""One route contract: svd.route(method, n, params) binds a route by name,
checks its parameters and gives its width, and pca and svdbench take both
from it. So a route registered in svd.ROUTES alone reaches all of them."""

import csv
import io

import numpy as np
import pytest

from tallskinny import svd
from tallskinny.bench import BenchConfig, run_bench, run_verify
from tallskinny.comm import run_ranks
from tallskinny.distmat import distribute
from tallskinny.pca import pca
from tallskinny.svd import ParameterError, RsvdParams, route


class TestRoute:
    def test_rsvd_checks_2k_against_n(self):
        with pytest.raises(ParameterError, match="2k"):
            route("rsvd", 5, RsvdParams(k=3))

    def test_rsvd_width_is_k(self):
        assert route("rsvd", 8, RsvdParams(k=2))[1] == 2

    @pytest.mark.parametrize("method", ["cpsvd", "tssvd"])
    def test_full_spectrum_width_is_n(self, method):
        solve, width = route(method, 7)
        assert width == 7 and solve is svd.ROUTES[method]

    def test_rsvd_requires_params(self):
        with pytest.raises(ParameterError, match="RsvdParams"):
            route("rsvd", 8)

    def test_unknown_method(self):
        with pytest.raises(ParameterError, match="unknown method 'qrsvd'"):
            route("qrsvd", 8)


def _bench_sums(algo):
    cfg = BenchConfig(algo=algo, rows=200, cols=8, ranks=2, reps=2)
    cfg.validate()
    out = io.StringIO()
    assert run_bench(cfg, out, io.StringIO()) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert [r["algo"] for r in rows] == [algo, algo]
    assert run_verify(cfg, "random", io.StringIO()) == 0
    return [r["sigma_sum"] for r in rows]


def test_a_new_routes_entry_reaches_pca_and_svdbench(monkeypatch):
    # A second name for TSQR, registered in ROUTES and nowhere else, must
    # give what tssvd gives through pca and both svdbench commands.
    monkeypatch.setitem(svd.ROUTES, "tsqr", svd.svd_tsqr)
    full = np.random.default_rng(8).standard_normal((60, 6)) + 5.0

    def sdev(method):
        return run_ranks(2, lambda c: pca(distribute(c, full), method=method).sdev)[0]

    assert np.array_equal(sdev("tsqr"), sdev("tssvd"))
    assert _bench_sums("tsqr") == _bench_sums("tssvd")
