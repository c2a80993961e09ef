"""PCA on distributed data: center columns, run an SVD, scale and project."""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distmat import DistMatrix, mean_center_columns, mult_local
from .svd import ParameterError, route


@dataclass
class PcaResult:
    """Component standard deviations, rotation, optional scores, column means."""

    sdev: np.ndarray
    rotation: np.ndarray
    scores: Optional[DistMatrix]
    means: np.ndarray


def pca(a, method="tssvd", ncomp=None, want_scores=False, params=None):
    """Principal components of a distributed data matrix.

    Columns are mean-centered, the chosen SVD runs on the centered data,
    and component standard deviations are sigma / sqrt(m - 1). method is
    one of "cpsvd", "tssvd", "rsvd"; rsvd takes its RsvdParams via
    `params` and can only deliver ncomp <= k components.

    The centered data is never formed: mean_center_columns returns a's
    rows with the means as a shift, and the SVD's passes and the scores
    center each row chunk as they read it. Without scores a rank allocates
    no more than its route does for sigma alone, plus a chunk and a few
    n x n arrays; the scores are an m x ncomp output. The centering and the
    route run with floating-point warnings quieted, as the routes' own
    blocks are (see svd): on Inf input the centering computes Inf - Inf,
    and the route's check raises NonFiniteInput.
    """
    if a.global_rows < 2:
        raise ParameterError(f"pca needs at least 2 rows, got {a.global_rows}")
    solve = route(method, params)
    width = a.cols
    if method == "rsvd":
        params.validate(a.cols)
        width = params.k
    if ncomp is None:
        ncomp = width
    if not isinstance(ncomp, numbers.Integral) or not 1 <= ncomp <= width:
        raise ParameterError(f"ncomp must be an integer in 1..{width}, got {ncomp!r}")

    with np.errstate(all="ignore"):
        centered, means = mean_center_columns(a)
        result = solve(centered)

    scale = np.sqrt(a.global_rows - 1)
    sdev = result.sigma[:ncomp] / result.sigma.dtype.type(scale)
    rotation = result.v[:, :ncomp]
    scores = mult_local(centered, rotation) if want_scores else None
    return PcaResult(sdev=sdev, rotation=rotation, scores=scores, means=means)
