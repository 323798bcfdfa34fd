"""Output files that are written whole or not at all."""

from __future__ import annotations

import csv
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
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path, header, rows) -> None:
    """Write `header`, then each row of numbers at 17 significant digits;
    a failed write leaves any existing file intact."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
