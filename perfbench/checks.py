"""Accuracy checks of computed singular values against an f64 oracle.

The oracle is `np.linalg.svd` of the input upcast to float64, computed once
per matrix. Each bound follows from first-order perturbation theory:

* Weyl: a backward error ||dA||_2 moves every singular value by at most
  ||dA||_2. For a Householder QR (tssvd) that gives |d sigma_i| <= c n u s_1.
* Normal equations (cpsvd): the Gram matrix carries an absolute error
  ||dN|| <= c n u s_1^2, and d sigma_i = d lambda_i / (sigma_i + sigma_i^),
  so |d sigma_i| <= c n u s_1^2 / s_i.
* Randomized (rsvd): the basis Q lies in range(A), so B = Q^T A is a
  2k-row compression of diag(sigma). Interlacing then bounds
  s_{i+n-2k} <= sigma_i^ <= s_i, widened by the same c n u.

The constant c: every entry the kernels form is an inner product of length
up to m, and under the probabilistic rounding model (Higham & Mary, SISC
2019) its error grows like sqrt(m) u rather than the worst case m u. So
c = sqrt(m) with unit factor. The oracle is itself only backward stable,
so each bound is widened by the same expression taken in f64 precision.
"""

import math

import numpy as np

def unit_roundoff(dtype):
    return float(np.finfo(dtype).eps) / 2


def oracle_sigma(full):
    """Singular values of `full` in float64 (descending)."""
    return np.linalg.svd(np.asarray(full, dtype=np.float64), compute_uv=False)


def _rounding(oracle, m, dtype):
    """(c n u, c n u64 s_1): relative working error and the oracle's own."""
    cn = math.sqrt(m) * len(oracle)
    return cn * unit_roundoff(dtype), cn * unit_roundoff(np.float64) * oracle[0]


def sigma_interval(route, oracle, m, dtype, k):
    """(lo, hi) bounds on the computed sigma of `route` at working `dtype`.

    `oracle` holds all n exact singular values. cpsvd and tssvd return n
    values; rsvd returns the leading k.
    """
    n = len(oracle)
    s1 = oracle[0]
    work, slack = _rounding(oracle, m, dtype)
    if route == "tssvd":
        tol = work * s1 + slack
        return oracle - tol, oracle + tol
    if route == "cpsvd":
        tol = work * s1 * s1 / oracle + slack
        return oracle - tol, oracle + tol
    if route == "rsvd":
        lead = oracle[:k]
        floor = oracle[np.arange(k) + n - 2 * k]
        return floor * (1 - work) - slack, lead * (1 + work) + slack
    raise ValueError(f"unknown route {route!r}")


def sigma_ok(route, sigma, oracle, m, dtype, k):
    """True when every computed value is finite and inside its bound."""
    lo, hi = sigma_interval(route, oracle, m, dtype, k)
    sigma = np.asarray(sigma, dtype=np.float64)
    return (
        sigma.shape == lo.shape
        and bool(np.all(np.isfinite(sigma)))
        and bool(np.all((lo <= sigma) & (sigma <= hi)))
    )


def sigma_sum_ok(route, total, oracle, m, dtype, k):
    """True when a reported sum of sigma lies inside the summed bounds."""
    lo, hi = sigma_interval(route, oracle, m, dtype, k)
    return math.isfinite(total) and float(lo.sum()) <= total <= float(hi.sum())


def score_norms_ok(route, norms, sigma, oracle, m, dtype, k):
    """Column norms of PCA scores A_c v_j against the computed sigma_j.

    For an exact right singular vector ||A_c v_j|| = sigma_j, and the error
    in v_j enters only at second order. For rsvd, v_j comes from B = Q^T A_c,
    so sigma_j^ <= ||A_c v_j|| <= s_1.
    """
    norms = np.asarray(norms, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if route == "rsvd":
        work, slack = _rounding(oracle, m, dtype)
        low, high = sigma * (1 - work) - slack, oracle[0] * (1 + work) + slack
    else:
        lo, hi = sigma_interval(route, oracle, m, dtype, k)
        half = (hi - lo)[: len(sigma)] / 2
        low, high = sigma - half, sigma + half
    return (
        norms.shape == sigma.shape
        and bool(np.all(np.isfinite(norms)))
        and bool(np.all((low <= norms) & (norms <= high)))
    )


def means_ok(means, oracle_means, abs_means, m, dtype):
    """Column means: an m-term sum errs by c u sum|a_ij|, c = sqrt(m)."""
    means = np.asarray(means, dtype=np.float64)
    tol = math.sqrt(m) * (unit_roundoff(dtype) + unit_roundoff(np.float64)) * abs_means
    return means.shape == oracle_means.shape and bool(
        np.all(np.abs(means - oracle_means) <= tol)
    )
