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
_WRITE_CELLS = 1 << 16  # values per float32 block that write_matrix converts and writes: 256 KiB


class MatrixFormatError(DataError):
    """Raised for container files with a wrong magic or inconsistent size."""


def write_matrix(values: np.ndarray, path: str | Path, magic: bytes) -> None:
    """Write a 2-D matrix as row-major float32 under ``magic``, in place: a
    write cut midway leaves a file whose size does not match its header, which
    ``read_matrix`` rejects. A finite value too large for float32 is a
    :class:`DataError`, raised before the file is opened; NaN and infinities
    are written as they are. The rows are converted and written in blocks of
    about ``_WRITE_CELLS`` values, so no float32 copy of the whole is made."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {values.shape}")
    step = max(1, _WRITE_CELLS // max(1, values.shape[1]))
    encoded = np.empty((min(step, len(values)), values.shape[1]), dtype="<f4")

    def chunks():  # the header, then each block converted into the one float32 buffer
        yield magic + struct.pack("<II", *values.shape)
        for start in range(0, len(values), step):
            block = values[start : start + step]
            np.copyto(encoded[: len(block)], block, casting="same_kind")
            yield encoded[: len(block)].reshape(-1)
    try:
        with np.errstate(over="raise"):  # set only by a finite value that becomes inf
            for _ in chunks():
                pass
    except FloatingPointError:
        raise DataError(f"{path}: a finite value is too large for float32 (magnitude above {np.finfo(np.float32).max:g})") from None
    write_in_place(path, chunks())


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
