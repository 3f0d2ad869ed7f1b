"""The one place ltrkit opens a file for writing. WAV files, manifests and
CSVs, whose truncation a reader could miss, are written whole or not at all
(:func:`write_atomic`). FBK1/PST1 files and JSON reports are rewritten in
place (:func:`write_in_place`): a cut one fails its size check or does not
parse, and a truncate costs less than a new inode on repeated rewrites."""

from __future__ import annotations

import os
import stat
import threading
from pathlib import Path


def write_atomic(path: str | Path, *chunks) -> None:
    """Write the bytes-like ``chunks`` in order as the file at ``path``.

    They go to a temp file beside ``path``, ``<name>.<pid>-<thread id>.tmp``
    with the bytes of ``path``'s file name cut to keep it within 255, which
    then replaces ``path`` with ``os.replace``, so a reader sees the old file
    or the whole new one, never a truncated one. The temp file is removed if
    anything fails. A temp file of the same name can only be left over from a
    killed process (a live one would be this thread), so it is removed first.

    As with ``open(path, "wb")``: a new file gets mode 0o666 less the umask,
    an existing file keeps its mode, a symlink is followed and the file it
    names is replaced, and a target that is not a regular file (a pipe, a
    terminal, ``/dev/stdout``) is written through in place. Unlike it, the
    replaced file's other hard links keep the old content, and the new file
    belongs to the writing user.
    """
    path = os.fspath(path)
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and stat.S_ISLNK(old.st_mode):
        try:
            old = os.stat(path)
        except FileNotFoundError:  # a dangling link: create the file it names
            old = None
        if old is None or stat.S_ISREG(old.st_mode):
            path = os.path.realpath(path)
    if old is not None and not stat.S_ISREG(old.st_mode):
        return write_in_place(path, chunks)

    head, name = os.path.split(path)
    suffix = f".{os.getpid()}-{threading.get_ident()}.tmp"
    tmp = os.path.join(head, os.fsdecode(os.fsencode(name)[: 255 - len(suffix)]) + suffix)  # NAME_MAX
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileExistsError:  # left by a killed writer that had this pid and thread id
        os.unlink(tmp)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            if old is not None:
                os.chmod(fd, stat.S_IMODE(old.st_mode))
            _write_all(fd, chunks)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_in_place(path: str | Path, chunks) -> None:
    """Write the bytes-like items of the iterable ``chunks`` to ``path`` in order,
    each before the next is taken, as ``open(path, "wb")`` does: truncate or
    create (mode 0o666 less the umask), follow a symlink."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        _write_all(fd, chunks)
    finally:
        os.close(fd)


def _write_all(fd: int, chunks) -> None:
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        while view:
            view = view[os.write(fd, view) :]
