"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json

import numpy as np
import pytest

import run
from checks import oracle_sigma, sigma_ok, sigma_sum_ok

assert run.import_package()

TINY = run.Sizes(tall=(600, 8), wide=(400, 24), svdbench=(500, 8))
SPEC = json.loads(run.SPEC.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    _, result = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


CORRUPTIONS = {"nan": lambda s: np.full_like(s, np.nan), "doubled": lambda s: 2 * s}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("route", run.ts.bench.ALGOS)
def test_corrupted_sigma_fails_the_check(route, corrupt):
    m, n, k = 600, 8, run.RSVD_K
    a = np.random.default_rng(0).standard_normal((m, n))
    comm = run.ts.solo_communicator()
    sigma = run._route(route, run.ts.distribute(comm, a), run.ts.RsvdParams(k=k)).sigma
    oracle = oracle_sigma(a)
    assert sigma_ok(route, sigma, oracle, m, np.float64, k)
    assert sigma_sum_ok(route, float(sigma.sum()), oracle, m, np.float64, k)
    bad = CORRUPTIONS[corrupt](sigma)
    assert not sigma_ok(route, bad, oracle, m, np.float64, k)
    assert not sigma_sum_ok(route, float(bad.sum()), oracle, m, np.float64, k)


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_benchmark_counts_corrupted_sigma_as_failed(monkeypatch, corrupt):
    original = run.ts.svd_tsqr

    def corrupted(a, **kwargs):
        result = original(a, **kwargs)
        result.sigma = CORRUPTIONS[corrupt](result.sigma)
        return result

    monkeypatch.setattr(run.ts, "svd_tsqr", corrupted)
    _, result = run.run_workload("tall", seed=3, seconds=0, trace=0, sizes=TINY)
    # One pass: tssvd runs at {f32, f64} x {p=1, p=2}.
    assert result["failed"] == 4
    assert not result["correct"]


@pytest.mark.parametrize("n", [1, 10, 11, 20, 21, 101, 111, 1001, 1011])
def test_tail_has_ten_samples_beyond_it(n):
    values = list(range(n))
    tail = run.timing_summary(values)["tail"]
    if n < 21:
        assert tail is None
        return
    assert sum(v > tail["seconds"] for v in values) >= 10
    assert tail["seconds"] == np.percentile(values, tail["percentile"], method="higher")
