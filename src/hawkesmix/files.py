"""The one file format: CSV tables and JSON documents.

A table is a header row and one row per record, written by ``csv`` with its
default ``\\r\\n`` line ending. Floats are written as their shortest
round-trip ``repr`` and integers as ``str``, so a numeric table read back
with :func:`read_table` gives the written float64 values bit for bit. A JSON
document is indented by two spaces and ends with a newline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def write_table(path: str | Path, header: list[str], columns) -> None:
    """Write equal-length columns (1-d arrays or lists) under ``header``.

    Each array column is converted as a whole by ``tolist()``; ``csv`` then
    writes its floats by ``repr`` and quotes strings where it must.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) float array of a numeric table.

    A table with no rows gives shape (0, len(header)).
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        start = fh.tell()
        if not fh.readline():
            return header, np.empty((0, len(header)))
        fh.seek(start)
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def write_json(path: str | Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
