"""Constructed test matrices with controlled spectra.

Both builders return the full matrix as a plain array, built from the
seeded row streams, so it does not depend on any rank count; callers
`distribute` it.
"""

import numpy as np

from .dense import qr_Q
from .distmat import random_rows


def _orthonormal_columns(m, n, seed, dtype):
    g = random_rows(seed, 0, m, n, "standard-normal", dtype)
    return qr_Q(g)


def conditioned_matrix(m, n, cond, seed, dtype=np.float64):
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
    q_left *= values
    return q_left @ q_right.T


def low_rank_noise_matrix(m, n, leading, noise_scale, seed, dtype=np.float64):
    """Low-rank matrix (given leading singular values) plus dense noise.

    The exact spectrum of the noisy matrix is unknown; compare against an
    SVD of the returned matrix, not against `leading`.
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
    return full
