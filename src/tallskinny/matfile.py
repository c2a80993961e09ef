"""Binary matrix file format.

Little-endian, 32-byte header followed by the row-major payload:

    offset  size  field
    0       4     magic "TSKM"
    4       4     version (u32, currently 1)
    8       1     precision in bytes per element (u8: 4 or 8)
    9       8     rows m (u64)
    17      8     cols n (u64)
    25      7     zero padding

Readers may load any contiguous row range with a single seek, which is how
distributed reads split a file by the balanced partition rule.
"""

import os
import struct

import numpy as np

MAGIC = b"TSKM"
VERSION = 1
_HEADER = struct.Struct("<4sIBQQ7x")

_PRECISION_TO_DTYPE = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}


class MatrixFileError(ValueError):
    """Malformed header or inconsistent payload."""


def write_matrix(path, a):
    """Write a 2-d float32/float64 array to `path` in the TSKM format."""
    a = np.ascontiguousarray(a)
    if a.ndim != 2 or a.dtype not in (np.float32, np.float64):
        raise MatrixFileError(
            f"expected a 2-d float32/float64 array, got ndim={a.ndim}, {a.dtype}"
        )
    m, n = a.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, a.dtype.itemsize, m, n))
        fh.write(a.tobytes(order="C"))


def _unpack_header(fh, path):
    """(rows, cols, dtype) from the header at the start of open file fh."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise MatrixFileError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, precision, m, n = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise MatrixFileError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise MatrixFileError(f"{path}: unsupported version {version}")
    if precision not in _PRECISION_TO_DTYPE:
        raise MatrixFileError(f"{path}: unsupported precision byte {precision}")
    return int(m), int(n), _PRECISION_TO_DTYPE[precision]


def read_header(path):
    """Return (rows, cols, dtype) from a TSKM file header, after checking
    that the file size is at least 32 + m * n * itemsize."""
    with open(path, "rb") as fh:
        m, n, dtype = _unpack_header(fh, path)
        size = os.fstat(fh.fileno()).st_size
    need = _HEADER.size + m * n * dtype.itemsize
    if size < need:
        raise MatrixFileError(
            f"{path}: truncated payload ({size} bytes; the header promises {need})"
        )
    return m, n, dtype


def read_rows(path, row_start, row_count):
    """Read `row_count` contiguous rows starting at `row_start`; the file
    need hold only those rows."""
    with open(path, "rb") as fh:
        m, n, dtype = _unpack_header(fh, path)
        if row_start < 0 or row_start + row_count > m:
            raise MatrixFileError(
                f"{path}: row range [{row_start}, {row_start + row_count}) outside 0..{m}"
            )
        out = np.empty((row_count, n), dtype=dtype)
        fh.seek(_HEADER.size + row_start * n * dtype.itemsize)
        # Straight into the result: no intermediate bytes object.
        got = fh.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise MatrixFileError(f"{path}: truncated payload")
    return out


def read_matrix(path):
    """Read the whole matrix."""
    m, _, _ = read_header(path)
    return read_rows(path, 0, m)
