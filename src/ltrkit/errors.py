"""What counts as bad input: :class:`DataError`, the number checks (any, finite
and positive, in [0, 1], integer in range), the one rule of the array values
(:class:`FrozenArray`), and the one reader of text and of JSON-lines files.
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


def number(name: str, value) -> float:
    """``value`` unchanged if it is a Python or numpy int or float, else a :class:`DataError` naming it."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise DataError(f"{name} must be a number, got {value!r}")
    return value


def positive(name: str, value: float) -> float:
    """``value`` unchanged if it is a finite number above zero, else a
    :class:`DataError` naming it (NaN fails every comparison, so it fails)."""
    if not 0 < number(name, value) < math.inf:
        raise DataError(f"{name} must be positive and finite, got {value}")
    return value


def fraction(name: str, value: float) -> float:
    """``value`` unchanged if it is a number in [0, 1], else a :class:`DataError` naming it."""
    if not 0.0 <= number(name, value) <= 1.0:  # NaN fails too
        raise DataError(f"{name} must be in [0, 1], got {value}")
    return value


def at_least(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integer (by ``operator.index``) of at
    least ``least``, else a :class:`DataError` naming it."""
    try:
        integer = operator.index(value)
    except TypeError:
        integer = least - 1
    if integer < least:
        raise DataError(f"{name} must be an integer >= {least}, got {value!r}")
    return integer


def float_array(name: str, value) -> np.ndarray:
    """A new float64 array of ``value``, or a :class:`DataError` naming it if numpy cannot convert it."""
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name} must be an array of numbers ({exc})") from exc


class FrozenArray:
    """Base of the frozen dataclasses whose first field is a float64 array:
    immutable values, safe to share between threads. The public constructor
    copies the array it is given, and the fresh arrays the library makes
    itself are adopted without a copy (:meth:`_adopt`). Either way the
    subclass's ``_check`` runs, rejecting a non-finite value through
    :meth:`_finite` or a check that implies it, and the array is then marked
    read-only. A value numpy cannot convert to float64 is a :class:`DataError`."""

    def __post_init__(self) -> None:
        name = fields(self)[0].name
        object.__setattr__(self, name, array := float_array(name, getattr(self, name)))
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
        # the minimum and the maximum carry any NaN and show any infinity,
        # with no temporary the size of the array
        if array.size and not (np.isfinite(array.min()) and np.isfinite(array.max())):
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


def _json_value(name: str, value, kind: str, error: type[DataError] = DataError):
    """``value`` unchanged if it is of the JSON ``kind``: "string", "list" or "number" (not a boolean); else an ``error``."""
    if isinstance(value, bool) or not isinstance(value, {"string": str, "list": list, "number": (int, float)}[kind]):
        raise error(f"{name} must be a JSON {kind}, got {type(value).__name__}")
    return value


def json_objects(path: str | Path, error: type[DataError] = DataError, fields: dict | None = None) -> Iterator[tuple[str, dict]]:
    """``("<path>: line N", object)`` for each non-blank line of a JSON-lines file;
    a line that is not a JSON object, holds a lone surrogate (a ``\\ud800`` escape),
    or lacks or mistypes one of ``fields`` (name to JSON kind) is an ``error``."""
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
        for name, kind in (fields or {}).items():
            if name not in obj:
                raise error(f"{where}: missing required field {name!r}")
            _json_value(f"{where}: {name}", obj[name], kind, error)
        yield where, obj
