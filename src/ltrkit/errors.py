"""What counts as bad input: :class:`DataError`, the one finite-and-positive
check, and the one reader of the lines of a text file and of a JSON-lines file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator


class DataError(ValueError):
    """Input the library rejects: a malformed file or an out-of-range value.
    Any other exception raised by the library is a bug."""


def positive(name: str, value: float) -> float:
    """``value`` unchanged if it is finite and above zero, else a
    :class:`DataError` naming it (NaN fails every comparison, so it fails)."""
    if not 0 < value < math.inf:
        raise DataError(f"{name} must be positive and finite, got {value}")
    return value


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of a UTF-8 text file,
    counting from 1 every line that text-mode iteration yields."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.strip():
                    yield line_no, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def json_objects(path: str | Path, error: type[DataError] = DataError) -> Iterator[tuple[str, dict]]:
    """``("<path>: line N", object)`` for each non-blank line of a JSON-lines
    file; a line that is not a JSON object is an ``error`` naming the line."""
    for line_no, line in numbered_lines(path):
        where = f"{path}: line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise error(f"{where}: expected a JSON object")
        yield where, obj
