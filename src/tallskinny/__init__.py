"""Distributed tall/skinny SVD and PCA over 1-d row-block matrices.

Local kernels (dense), a deterministic tree-collective communicator
(comm), the distributed matrix layer (distmat), three SVD algorithms
(svd), a PCA front-end (pca), and the svdbench harness (bench, cli).
"""

from .comm import (
    CollectiveContractError,
    CollectiveError,
    Communicator,
    RankFailures,
    ReduceOperator,
    run_ranks,
    solo_communicator,
    sum_operator,
)
from .dense import (
    ConvergenceError,
    NonFiniteInput,
    ShapeError,
    UnsupportedShape,
    qr_Q,
    qr_R,
    small_svd,
    sym_eigen,
)
from .distmat import (
    DistMatrix,
    block_range,
    block_rows,
    crossprod,
    distribute,
    generate_random,
    mean_center_columns,
    mult_local,
    mult_transpose,
    random_rows,
    read_distributed,
)
from .matfile import read_header, read_matrix, write_matrix
from .pca import PcaResult, pca
from .svd import (
    DegenerateProjection,
    ParameterError,
    RsvdParams,
    SvdResult,
    qr_allreduce,
    recover_U,
    svd_normal_equations,
    svd_randomized,
    svd_tsqr,
)

__version__ = "0.1.0"

__all__ = [
    "CollectiveContractError",
    "CollectiveError",
    "Communicator",
    "ConvergenceError",
    "DegenerateProjection",
    "DistMatrix",
    "NonFiniteInput",
    "ParameterError",
    "PcaResult",
    "RankFailures",
    "ReduceOperator",
    "RsvdParams",
    "ShapeError",
    "SvdResult",
    "UnsupportedShape",
    "block_range",
    "block_rows",
    "crossprod",
    "distribute",
    "generate_random",
    "mean_center_columns",
    "mult_local",
    "mult_transpose",
    "pca",
    "qr_Q",
    "qr_R",
    "qr_allreduce",
    "random_rows",
    "read_distributed",
    "read_header",
    "read_matrix",
    "recover_U",
    "run_ranks",
    "small_svd",
    "solo_communicator",
    "sum_operator",
    "svd_normal_equations",
    "svd_randomized",
    "svd_tsqr",
    "sym_eigen",
    "write_matrix",
]
