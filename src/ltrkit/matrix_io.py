"""Binary container for real matrices: a 4-byte magic, row/column counts as
little-endian u32, then row-major little-endian float32 values.

Feature files use magic ``FBK1``; posterior-grid files use ``PST1``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["FEATURES_MAGIC", "POSTERIORS_MAGIC", "MatrixFormatError", "read_matrix", "write_matrix"]

FEATURES_MAGIC = b"FBK1"
POSTERIORS_MAGIC = b"PST1"


class MatrixFormatError(DataError):
    """Raised for container files with a wrong magic or inconsistent size."""


def write_matrix(values: np.ndarray, path: str | Path, magic: bytes) -> None:
    """Write a 2-D matrix as row-major float32 under ``magic``.

    The write is in place, not atomic: one that fails midway leaves a short
    file, which ``read_matrix`` rejects because its size no longer matches
    its header. (WAV files, manifests and CSVs, whose short files a reader
    could take for whole ones, are replaced atomically instead.) A finite
    value too large for float32 is a :class:`DataError`, raised before the
    file is opened; NaN and infinities are written as they are."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {values.shape}")
    try:
        with np.errstate(over="raise"):  # set only by a finite value that becomes inf
            encoded = np.ascontiguousarray(values, dtype="<f4")
    except FloatingPointError:
        raise DataError(f"{path}: a finite value is too large for float32 (magnitude above {np.finfo(np.float32).max:g})") from None
    with open(path, "wb") as handle:
        handle.write(magic + struct.pack("<II", *values.shape))
        handle.write(encoded)


def read_matrix(path: str | Path, magic: bytes) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != magic:
        raise MatrixFormatError(f"{path}: not a {magic.decode('ascii')} file")
    rows, cols = struct.unpack_from("<II", raw, 4)
    expected = 12 + rows * cols * 4
    if len(raw) != expected:
        raise MatrixFormatError(f"{path}: expected {expected} bytes for a {rows}x{cols} matrix, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=12)
    return values.astype(np.float64).reshape(rows, cols)
