"""What counts as bad input: :class:`DataError`, the finite-and-positive and
integer range checks, the one rule of the array values (:class:`FrozenArray`),
and the one reader of the lines of a text file and of a JSON-lines file.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import fields
from pathlib import Path
from typing import Iterator

import numpy as np


class DataError(ValueError):
    """Input the library rejects: a malformed file or an out-of-range value.
    Any other exception raised by the library is a bug."""


def positive(name: str, value: float) -> float:
    """``value`` unchanged if it is finite and above zero, else a
    :class:`DataError` naming it (NaN fails every comparison, so it fails)."""
    if not 0 < value < math.inf:
        raise DataError(f"{name} must be positive and finite, got {value}")
    return value


def at_least(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer (by ``operator.index``) of at
    least ``least``, else a :class:`DataError` naming it."""
    try:
        number = operator.index(value)
    except TypeError:
        number = least - 1
    if number < least:
        raise DataError(f"{name} must be an integer >= {least}, got {value!r}")
    return number


class FrozenArray:
    """Base of the frozen dataclasses whose first field is a float64 array:
    immutable values, safe to share between threads. The public constructor
    copies the array it is given, and the fresh arrays the library makes
    itself are adopted without a copy (:meth:`_adopt`). Either way the
    subclass's ``_check`` runs, rejecting a non-finite value through
    :meth:`_finite` or a check that implies it, and the array is then marked
    read-only."""

    def __post_init__(self) -> None:
        name = fields(self)[0].name
        array = np.array(getattr(self, name), dtype=np.float64)
        object.__setattr__(self, name, array)
        self._freeze(array)

    @classmethod
    def _adopt(cls, *values, path: str | Path | None = None, error: type[DataError] = DataError):
        """An instance whose fields are ``values`` in order, owning the first,
        a fresh float64 array nothing else holds, without a copy; checked like
        a constructed one. A reader passes the ``path`` it read, and a rejected
        value is then an ``error`` naming it."""
        value = object.__new__(cls)
        for field, item in zip(fields(cls), values):
            object.__setattr__(value, field.name, item)
        try:
            value._freeze(values[0])
        except DataError as exc:
            if path is None:
                raise
            raise error(f"{path}: {exc}") from exc
        return value

    def _freeze(self, array: np.ndarray) -> None:
        self._check()
        array.setflags(write=False)

    @staticmethod
    def _finite(what: str, array: np.ndarray) -> None:
        if not np.isfinite(array).all():
            raise DataError(f"{what} must be finite, {np.count_nonzero(~np.isfinite(array))} of {array.size} are not")


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
    file; a line that is not a JSON object, or whose strings UTF-8 cannot
    encode (a ``\\ud800`` escape), is an ``error`` naming the line."""
    for line_no, line in numbered_lines(path):
        where = f"{path}: line {line_no}"
        try:
            obj = json.loads(line)
            if "\\u" in line:  # the text is UTF-8, so only an escape can make a lone surrogate
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except json.JSONDecodeError as exc:
            raise error(f"{where}: invalid JSON ({exc.msg})") from exc
        except RecursionError as exc:  # arrays or objects nested thousands deep
            raise error(f"{where}: invalid JSON (nested too deeply)") from exc
        except UnicodeEncodeError as exc:
            raise error(f"{where}: a string holds a lone surrogate {exc.object[exc.start:exc.end]!r}, which UTF-8 cannot encode") from exc
        if not isinstance(obj, dict):
            raise error(f"{where}: expected a JSON object")
        yield where, obj
