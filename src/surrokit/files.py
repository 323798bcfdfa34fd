"""Output files that are written whole or not at all."""

from __future__ import annotations

import csv
import errno
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, newline=None):
    """Open a text file for writing that replaces `path` when the block ends.

    The text goes to a temporary file in the same directory, which then
    replaces `path`, so a write that fails leaves any existing file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if str(exc.filename) != str(tmp):
            raise
        # the temporary file is ours, not the caller's: name `path`
        raise _error(exc.errno, path) from None
    finally:
        tmp.unlink(missing_ok=True)


def _error(code: int, path) -> OSError:
    return OSError(code, os.strerror(code), str(path))


def check_output(path, directory: bool = False) -> None:
    """Raise OSError naming `path` unless a file, or given `directory` a
    directory, can be made there: a file's path must not be a directory and
    its parent must be one; a directory's path, or else its nearest existing
    ancestor, must be a directory."""
    path = Path(path)
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise _error(errno.ENOTDIR, path)
    elif path.is_dir():
        raise _error(errno.EISDIR, path)
    elif not path.parent.is_dir():
        raise _error(errno.ENOENT, path)


def write_csv(path, header, rows) -> None:
    """Write `header`, then each row of numbers at 17 significant digits;
    a failed write leaves any existing file intact."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
