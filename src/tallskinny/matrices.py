"""Constructed test matrices with controlled spectra.

Both builders assemble the full matrix identically on every rank from the
seeded row streams and then `distribute` it, so the distributed matrix is
bitwise independent of the rank count.
"""

import numpy as np

from .dense import qr_Q
from .distmat import distribute, random_rows


def _orthonormal_columns(m, n, seed, dtype):
    g = random_rows(seed, 0, m, n, "standard-normal", dtype)
    return qr_Q(g)


def conditioned_instance(comm, m=2000, n=50, cond=1e6, seed=1234, dtype=np.float64):
    """Tall matrix with log-spaced singular values from 1 down to 1/cond.

    Built as Qu diag(s) Qv^T with a dense right basis Qv, so the small
    singular values are not recoverable from column norms alone. On this
    instance the normal-equations route loses most digits of the smallest
    values (its crossproduct entries are all O(sigma_max^2)), while the QR
    route keeps them; this is the built-in conditioning check input.
    """
    dtype = np.dtype(dtype)
    values = np.logspace(0, -np.log10(cond), n).astype(dtype)
    q_left = _orthonormal_columns(m, n, seed, dtype)
    q_right = _orthonormal_columns(n, n, seed + 1, dtype)
    return distribute(comm, (q_left * values) @ q_right.T)


def low_rank_noise_instance(comm, m, n, leading, noise_scale, seed, dtype=np.float64):
    """Low-rank matrix (given leading singular values) plus dense noise.

    Returns (dist_matrix, leading_values). The exact spectrum of the noisy
    matrix is unknown; compare against a full-matrix oracle, not against
    `leading_values`.
    """
    dtype = np.dtype(dtype)
    leading = np.asarray(leading, dtype=dtype)
    r = len(leading)
    u0 = _orthonormal_columns(m, r, seed, dtype)
    v0 = _orthonormal_columns(n, r, seed + 1, dtype)
    full = (u0 * leading) @ v0.T
    if noise_scale:
        noise = random_rows(seed + 2, 0, m, n, "standard-normal", dtype)
        full += dtype.type(noise_scale) * noise
    return distribute(comm, full), leading
