"""LOBSTER message-file ingestion into four-dimensional order-flow sequences.

Message files are headerless 6-column CSVs: time in seconds after midnight
(nanosecond decimals), event type code, order id, size in shares, price in
ten-thousandths, and direction (1 buy, -1 sell). The companion orderbook
file, when given, has level-major columns ``ask price, ask size, bid price,
bid size, ...`` and a row per message-file row (or per parsed message).

Events are grouped into four dimensions: buy submissions, buy market
orders/cancellations, sell submissions, sell market orders/cancellations.
"""

from __future__ import annotations

import io
import logging
import re
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .events import EventSequence

logger = logging.getLogger(__name__)

EVENT_SUBMISSION = 1
EVENT_PARTIAL_CANCEL = 2
EVENT_FULL_CANCEL = 3
EVENT_VISIBLE_EXECUTION = 4
EVENT_HIDDEN_EXECUTION = 5
EVENT_HALT = 7

_MARKET_OR_CANCEL = {EVENT_PARTIAL_CANCEL, EVENT_FULL_CANCEL, EVENT_VISIBLE_EXECUTION, EVENT_HIDDEN_EXECUTION}
_KNOWN_TYPES = {1, 2, 3, 4, 5, 6, 7}
# parse_messages rejects a file with a larger share of malformed nonempty rows
MAX_MALFORMED_FRAC = 0.01


@dataclass(frozen=True)
class LobsterMessage:
    time: float
    event_type: int
    order_id: int
    size: int
    price: int
    direction: int


@dataclass(frozen=True, eq=False)
class MessageColumns:
    """Messages as NumPy columns in file order; ``row`` indexes each among the file's ``n_rows`` nonblank rows,
    malformed ones included. Indexing gives a :class:`LobsterMessage`; integers beyond int64 make an object column."""

    time: np.ndarray
    event_type: np.ndarray
    order_id: np.ndarray
    size: np.ndarray
    price: np.ndarray
    direction: np.ndarray
    row: np.ndarray
    n_rows: int

    def __len__(self) -> int:
        return self.time.size

    def __getitem__(self, i: int) -> LobsterMessage:
        return LobsterMessage(float(self.time[i]), *(int(getattr(self, name)[i]) for name in _FIELDS.names[1:]))

    def __eq__(self, other) -> bool:
        return isinstance(other, (list, MessageColumns)) and list(self) == list(other)


@dataclass(frozen=True)
class ParseReport:
    """Parsed messages plus (line number, reason) records for bad rows."""

    messages: MessageColumns
    malformed: list[tuple[int, str]]


@dataclass(frozen=True)
class IngestConfig:
    """Session window, volume floor, and level filter.

    ``session_start``/``session_end`` are seconds after midnight (defaults
    9:30:00 and 16:00:00). Level filtering (``level`` 1; 0 turns it off) keeps
    events whose price matches the prevailing best quote on their side; it
    needs the orderbook file and is skipped with a logged caveat when none is
    supplied. Hidden executions join the market-order group unless
    ``include_hidden`` is off.
    """

    session_start: float = 9.5 * 3600.0
    session_end: float = 16.0 * 3600.0
    min_volume: int = 100
    level: int = 1
    include_hidden: bool = True

    def __post_init__(self) -> None:
        if self.session_start >= self.session_end:
            raise ValueError("session_start must precede session_end")
        if self.min_volume < 0:
            raise ValueError("min_volume must be nonnegative")
        if self.level not in (0, 1):
            raise ValueError(f"level must be 0 (no filter) or 1 (best quotes), not {self.level!r}")

    def dimension_of(self, event_type: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """1-based output dimension per message, 0 to drop it (scalars or arrays)."""
        market = np.isin(event_type, [e for e in _MARKET_OR_CANCEL if self.include_hidden or e != EVENT_HIDDEN_EXECUTION])
        side = np.where(direction == 1, 0, 2)
        return np.where(event_type == EVENT_SUBMISSION, 1 + side, np.where(market, 2 + side, 0))


# a plain decimal time and five plain integers, short enough that NumPy's
# parse gives what float() and int() give; other rows take the per-line rules
_NOT_STRICT = re.compile(rb"\n(?!-?[0-9]{1,18}(?:\.[0-9]{1,18})?(?:,-?[0-9]{1,18}){5}\n)")
_FIELDS = np.dtype([(f.name, float if f.name == "time" else np.int64) for f in fields(LobsterMessage)])


def _parse_row(line: str) -> tuple | str:
    """Fields of one stripped nonblank message row, or why it is malformed."""
    parts = line.split(",")
    if len(parts) < 6:
        return f"expected 6 columns, got {len(parts)}"
    try:
        return (float(parts[0]), *map(int, parts[1:6]))
    except ValueError as exc:
        return f"unparseable field: {exc}"


def _columns(rows: list[tuple]) -> list[np.ndarray]:
    """Field columns of message tuples; an integer column beyond int64 is object."""
    return [np.array(values, dtype=kind if kind == float or all(-2**63 <= v < 2**63 for v in values) else object)
            for values, kind in zip(list(zip(*rows)) or [()] * 6, [_FIELDS[name] for name in _FIELDS.names])]


def _split_rows(path: str | Path) -> tuple[bytes, np.ndarray, list, int]:
    """A message file's strict rows as one CSV block and their (line number, row index) pairs, the other
    nonblank rows as (line, row, fields or reason) by the per-line rules, and the nonblank row count."""
    with open(Path(path), newline="") as fh:  # the text-mode codec decodes the other rows
        data, codec = b"".join((b"\n", fh.buffer.read(), b"\n")), fh.encoding
    data = re.sub(rb"\r\n?", b"\n", data)  # text mode breaks lines at \r\n, \r and \n
    view, blocks, spans, other = memoryview(data), [], [], []
    start, lineno, n_rows = 1, 0, 0  # offset of the current strict run; lines and rows before it
    for end in map(re.Match.end, _NOT_STRICT.finditer(data)):
        k = data.count(b"\n", start, end)
        blocks.append(view[start:end])
        spans.append(np.arange(k)[:, None] + (lineno + 1, n_rows))
        lineno, n_rows, start = lineno + k + 1, n_rows + k, data.find(b"\n", end) + 1
        if line := data[end:start - 1].decode(codec).strip():
            other.append((lineno, n_rows, _parse_row(line)))
            n_rows += 1
    return b"".join(blocks), np.concatenate(spans), other, n_rows


def parse_messages(path: str | Path) -> ParseReport:
    """Parse a message file, collecting malformed rows with line numbers.

    Raises when the file is unreadable or more than ``MAX_MALFORMED_FRAC``
    of its nonempty rows are malformed.
    """
    strict, where, other, n_rows = _split_rows(path)
    malformed = [(line, reason) for line, _, reason in other if isinstance(reason, str)]
    slow = [entry for entry in other if not isinstance(entry[2], str)]
    fast = np.loadtxt(io.BytesIO(strict), delimiter=",", dtype=_FIELDS, ndmin=1) if strict else np.zeros(0, _FIELDS)
    del strict  # one copy of the day at a time
    where = np.concatenate([where, np.int64([s[:2] for s in slow]).reshape(-1, 2)])
    order = np.argsort(where[:, 1], kind="stable")  # into row order
    line = where[order, 0]
    time, event_type, _, _, _, direction = cols = [
        np.concatenate([fast[name], col])[order] for name, col in zip(_FIELDS.names, _columns([s[2] for s in slow]))]
    del fast
    # a row passing the direction and type checks keeps a finite time no lower than any earlier such row's
    bad_direction = (direction != 1) & (direction != -1)
    bad_type = ~bad_direction & ~np.isin(event_type, list(_KNOWN_TYPES))
    candidate = ~bad_direction & ~bad_type
    finite = np.isfinite(time)
    running = np.maximum.accumulate(np.where(candidate & finite, time, -np.inf))
    bad_time = candidate & ~(finite & (time >= np.concatenate([[-np.inf], running[:-1]])))
    malformed += [(int(line[i]), f"direction must be 1 or -1, got {direction[i]}") for i in np.flatnonzero(bad_direction)]
    malformed += [(int(line[i]), f"unknown event type {event_type[i]}") for i in np.flatnonzero(bad_type)]
    malformed += [(int(line[i]), "time must be finite and nondecreasing") for i in np.flatnonzero(bad_time)]
    malformed.sort()
    if n_rows and len(malformed) > MAX_MALFORMED_FRAC * n_rows:
        raise ValueError(f"{len(malformed)} of {n_rows} rows malformed "
                         f"(threshold {MAX_MALFORMED_FRAC:.0%}); first: {malformed[0]}")
    keep = candidate & ~bad_time
    return ParseReport(MessageColumns(*(col[keep] for col in cols), where[order[keep], 1], n_rows), malformed)


def read_orderbook_quotes(path: str | Path) -> np.ndarray:
    """Best ask and best bid per nonblank row of an orderbook file, shape (n, 2)."""
    return np.loadtxt(Path(path), delimiter=",", usecols=(0, 2), dtype=np.int64, ndmin=2)


def build_event_sequence(messages: MessageColumns | list[LobsterMessage], cfg: IngestConfig,
                         quotes: np.ndarray | None = None) -> EventSequence:
    """Filter, group, and rebase messages into a K=4 event sequence.

    Keeps messages inside the session window with volume at or above the floor. Level
    filtering accepts a message when its price equals its side's best quote in the companion
    orderbook row or the preceding one: the book rows record post-event state, so a
    top-removing cancel only matches the preceding row while an improving submission only
    matches its own. The orderbook has a row per message or, as LOBSTER writes it, per
    nonblank message-file row. Times are rebased to the session start; exact ties get a
    one-nanosecond ascending jitter (cascading so the output stays strictly increasing), and
    ties at the session end are spread one nanosecond apart downward from the horizon
    instead. The horizon is the session length.
    """
    m = messages if isinstance(messages, MessageColumns) else MessageColumns(
        *_columns([astuple(msg) for msg in messages]), np.arange(len(messages)), len(messages))
    if quotes is not None and len(quotes) not in (len(m), m.n_rows):
        raise ValueError("orderbook rows must align one-to-one with messages or message-file rows")
    if quotes is None and cfg.level:
        logger.warning("no orderbook file supplied: level-%d filter skipped, accepting all price levels", cfg.level)
    dim = cfg.dimension_of(m.event_type, m.direction)
    keep = (cfg.session_start <= m.time) & (m.time <= cfg.session_end) & (m.size >= cfg.min_volume) & (dim > 0)
    if quotes is not None and cfg.level:
        at = np.arange(len(m)) if len(quotes) == len(m) else m.row
        side = (m.direction == 1).astype(np.intp)  # column of the side's best
        keep &= (m.price == quotes[at, side]) | (m.price == quotes[np.maximum(at - 1, 0), side])
    t = m.time[keep] - cfg.session_start
    if not t.size:
        logger.warning("ingestion produced an empty sequence")
    for i in np.flatnonzero(t[1:] <= t[:-1]) + 1:  # the sequential jitter from each tie on its cascade
        while i < t.size and t[i] <= t[i - 1]:
            t[i] = t[i - 1] + 1e-9
            i += 1
    # ties at the session end: pull the jittered tail back below the horizon
    cap = T = cfg.session_end - cfg.session_start
    for i in range(t.size - 1, -1, -1):
        if t[i] <= cap:
            break
        t[i] = cap
        cap -= 1e-9
    return EventSequence(t, dim[keep] - 1, T, 4)
