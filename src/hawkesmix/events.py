"""Event-sequence container and its event table."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import read_table, write_json, write_table


@dataclass(frozen=True)
class EventSequence:
    """Timestamps with dimension marks observed on ``[0, T]``.

    Attributes
    ----------
    times : strictly increasing event times in ``[0, T]``; ties are rejected.
    dims : 0-based dimension code of each event. Serialized files use
        1-based codes.
    T : observation horizon, at least as large as the last timestamp.
    K : number of dimensions, at least 1.
    """

    times: np.ndarray
    dims: np.ndarray
    T: float
    K: int

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=float)
        dims = np.ascontiguousarray(self.dims, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "K", int(self.K))
        if times.ndim != 1 or dims.shape != times.shape:
            raise ValueError("times and dims must be 1-d arrays of equal length")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not np.isfinite(self.T) or self.T < 0:
            raise ValueError("T must be finite and nonnegative")
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("timestamps must be finite")
            if times[0] < 0 or times[-1] > self.T:
                raise ValueError("timestamps must lie in [0, T]")
            if np.any(np.diff(times) <= 0):
                raise ValueError("timestamps must be strictly increasing (ties forbidden)")
            if dims.min() < 0 or dims.max() >= self.K:
                raise ValueError("dimension codes must lie in 0..K-1")
        times.setflags(write=False)
        dims.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.times.size)

    def counts(self) -> np.ndarray:
        """Number of events per dimension."""
        return np.bincount(self.dims, minlength=self.K)

    def window(self, start: float, end: float) -> EventSequence:
        """Events with times in ``[start, end]``, original times retained."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="right"))
        return EventSequence(self.times[lo:hi].copy(), self.dims[lo:hi].copy(), self.T, self.K)


def save_events(seq: EventSequence, csv_path: str | Path, meta_path: str | Path | None = None) -> None:
    """Write a sequence as a ``t,d`` table plus a ``{T, K}`` JSON sidecar.

    Dimension codes are written 1-based.
    """
    write_table(csv_path, ["t", "d"], [seq.times, seq.dims + 1])
    write_json(meta_path or Path(csv_path).with_suffix(".json"), {"T": seq.T, "K": seq.K})


def load_events(csv_path: str | Path, meta_path: str | Path | None = None) -> EventSequence:
    """Read a sequence written by :func:`save_events`."""
    header, table = read_table(csv_path)
    if [c.strip() for c in header[:2]] != ["t", "d"]:
        raise ValueError(f"unexpected event CSV header: {header!r}")
    dims = table[:, 1].astype(np.int64)
    if np.any(dims != table[:, 1]):
        raise ValueError("dimension codes must be integers")
    meta = json.loads(Path(meta_path or Path(csv_path).with_suffix(".json")).read_text())
    return EventSequence(table[:, 0], dims - 1, meta["T"], meta["K"])
