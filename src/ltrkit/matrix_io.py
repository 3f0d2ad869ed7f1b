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
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {values.shape}")
    rows, cols = values.shape
    header = magic + struct.pack("<II", rows, cols)
    Path(path).write_bytes(header + values.astype("<f4").tobytes())


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
