"""Binary container for real matrices: a 4-byte magic, row/column counts as
little-endian u32, then row-major little-endian float32 values.

Feature files use magic ``FBK1``; posterior-grid files use ``PST1``. A file is
read whole into one buffer with a ``<f4`` view of the payload: ``read_matrix``
widens the view, and ``specaug`` (:func:`~ltrkit.perturb.spec_augment_file`)
checks and masks it in place and writes the same buffer back, one copy of the file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ._atomic import write_in_place
from .errors import DataError

__all__ = ["FEATURES_MAGIC", "POSTERIORS_MAGIC", "MatrixFormatError", "read_matrix", "write_matrix"]

FEATURES_MAGIC = b"FBK1"
POSTERIORS_MAGIC = b"PST1"


class MatrixFormatError(DataError):
    """Raised for container files with a wrong magic or inconsistent size."""


def write_matrix(values: np.ndarray, path: str | Path, magic: bytes) -> None:
    """Write a 2-D matrix as row-major float32 under ``magic``, in place: a
    write cut midway leaves a file whose size does not match its header, which
    ``read_matrix`` rejects. A finite value too large for float32 is a
    :class:`DataError`, raised before the file is opened; NaN and infinities
    are written as they are."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {values.shape}")
    try:
        with np.errstate(over="raise"):  # set only by a finite value that becomes inf
            encoded = np.ascontiguousarray(values, dtype="<f4")
    except FloatingPointError:
        raise DataError(f"{path}: a finite value is too large for float32 (magnitude above {np.finfo(np.float32).max:g})") from None
    write_in_place(path, magic + struct.pack("<II", *values.shape), encoded.reshape(-1))


def read_matrix(path: str | Path, magic: bytes) -> np.ndarray:
    payload = _matrix_payload(path, magic)[1]
    # A signaling NaN sets the invalid flag as it widens; the loaders reject
    # every NaN, so numpy's warning about it would only repeat the error.
    with np.errstate(invalid="ignore"):
        return payload.astype(np.float64)


def _matrix_payload(path: str | Path, magic: bytes) -> tuple[bytearray, np.ndarray]:
    """The whole file at ``path``, read into one writable buffer, and the rows x
    cols ``<f4`` view of its payload; a wrong magic or size is a :class:`MatrixFormatError`."""
    with open(path, "rb", buffering=0) as handle:
        raw, filled = bytearray(os.fstat(handle.fileno()).st_size), 0
        while filled < len(raw) and (count := handle.readinto(memoryview(raw)[filled:])):  # short past 2 GiB
            filled += count
        raw[filled:] = handle.read()  # the file shrank or grew since fstat, or is a pipe
    if len(raw) < 12 or raw[:4] != magic:
        raise MatrixFormatError(f"{path}: not a {magic.decode('ascii')} file")
    rows, cols = struct.unpack_from("<II", raw, 4)
    expected = 12 + rows * cols * 4
    if len(raw) != expected:
        raise MatrixFormatError(f"{path}: expected {expected} bytes for a {rows}x{cols} matrix, found {len(raw)}")
    return raw, np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, cols)
