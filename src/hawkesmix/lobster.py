"""LOBSTER message-file ingestion into four-dimensional order-flow sequences.

Message files are headerless 6-column CSVs: time in seconds after midnight
(nanosecond decimals), event type code, order id, size in shares, price in
ten-thousandths, and direction (1 buy, -1 sell). The companion orderbook
file, when given, has level-major columns ``ask price, ask size, bid price,
bid size, ...`` aligned row-by-row with the messages.

Events are grouped into four dimensions: buy submissions, buy market
orders/cancellations, sell submissions, sell market orders/cancellations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
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

_MARKET_OR_CANCEL = {EVENT_PARTIAL_CANCEL, EVENT_FULL_CANCEL,
                     EVENT_VISIBLE_EXECUTION, EVENT_HIDDEN_EXECUTION}
_KNOWN_TYPES = {1, 2, 3, 4, 5, 6, 7}


@dataclass(frozen=True)
class LobsterMessage:
    time: float
    event_type: int
    order_id: int
    size: int
    price: int
    direction: int


@dataclass(frozen=True)
class ParseReport:
    """Parsed messages plus (line number, reason) records for bad rows."""

    messages: list[LobsterMessage]
    malformed: list[tuple[int, str]]


@dataclass(frozen=True)
class IngestConfig:
    """Session window, volume floor, level filter, and dimension grouping.

    ``session_start``/``session_end`` are seconds after midnight (defaults
    9:30:00 and 16:00:00). Level filtering keeps events whose price matches
    the prevailing best quote on their side; it needs the orderbook file and
    is skipped with a logged caveat when none is supplied. Hidden executions
    join the market-order group unless ``include_hidden`` is off.
    """

    session_start: float = 9.5 * 3600.0
    session_end: float = 16.0 * 3600.0
    min_volume: int = 100
    level: int = 1
    include_hidden: bool = True
    grouping: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.session_start >= self.session_end:
            raise ValueError("session_start must precede session_end")
        if self.min_volume < 0:
            raise ValueError("min_volume must be nonnegative")

    def dimension_of(self, event_type: int, direction: int) -> int | None:
        """1-based output dimension for a message, None to drop it."""
        if self.grouping:
            return self.grouping.get((event_type, direction))
        if event_type == EVENT_HALT:
            return None
        if event_type == EVENT_HIDDEN_EXECUTION and not self.include_hidden:
            return None
        if event_type == EVENT_SUBMISSION:
            return 1 if direction == 1 else 3
        if event_type in _MARKET_OR_CANCEL:
            return 2 if direction == 1 else 4
        return None


def parse_messages(path: str | Path, max_malformed_frac: float = 0.01) -> ParseReport:
    """Parse a message file, collecting malformed rows with line numbers.

    Raises when the file is unreadable or more than ``max_malformed_frac``
    of its nonempty rows are malformed.
    """
    messages: list[LobsterMessage] = []
    malformed: list[tuple[int, str]] = []
    n_rows = 0
    prev_time = -np.inf
    with open(Path(path), newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            n_rows += 1
            parts = line.split(",")
            if len(parts) < 6:
                malformed.append((lineno, f"expected 6 columns, got {len(parts)}"))
                continue
            try:
                time = float(parts[0])
                event_type = int(parts[1])
                order_id = int(parts[2])
                size = int(parts[3])
                price = int(parts[4])
                direction = int(parts[5])
            except ValueError as exc:
                malformed.append((lineno, f"unparseable field: {exc}"))
                continue
            if direction not in (-1, 1):
                malformed.append((lineno, f"direction must be 1 or -1, got {direction}"))
                continue
            if event_type not in _KNOWN_TYPES:
                malformed.append((lineno, f"unknown event type {event_type}"))
                continue
            if not np.isfinite(time) or time < prev_time:
                malformed.append((lineno, "time must be finite and nondecreasing"))
                continue
            prev_time = time
            messages.append(LobsterMessage(time, event_type, order_id, size, price, direction))
    if n_rows and len(malformed) > max_malformed_frac * n_rows:
        raise ValueError(
            f"{len(malformed)} of {n_rows} rows malformed "
            f"(threshold {max_malformed_frac:.0%}); first: {malformed[0]}")
    return ParseReport(messages, malformed)


def read_orderbook_quotes(path: str | Path) -> np.ndarray:
    """Best ask and best bid per row of an orderbook file, shape (n, 2)."""
    rows = []
    with open(Path(path), newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            rows.append((int(parts[0]), int(parts[2])))
    return np.asarray(rows, dtype=np.int64)


def build_event_sequence(messages: list[LobsterMessage], cfg: IngestConfig,
                         quotes: np.ndarray | None = None) -> EventSequence:
    """Filter, group, and rebase messages into a K=4 event sequence.

    Keeps messages inside the session window with volume at or above the
    floor. Level filtering accepts a message when its price equals its
    side's best quote in the companion orderbook row or the preceding one:
    the book rows record post-event state, so a top-removing cancel only
    matches the preceding row while an improving submission only matches
    its own. Times are rebased to the session start; exact ties get a
    one-nanosecond ascending jitter (cascading so the output stays strictly
    increasing), and ties at the session end are spread one nanosecond apart
    downward from the horizon instead. The horizon is the session length.
    """
    if quotes is not None and len(quotes) != len(messages):
        raise ValueError("orderbook rows must align one-to-one with messages")
    if quotes is None and cfg.level:
        logger.warning("no orderbook file supplied: level-%d filter skipped, "
                       "accepting all price levels", cfg.level)
    times: list[float] = []
    dims: list[int] = []
    for idx, msg in enumerate(messages):
        if not cfg.session_start <= msg.time <= cfg.session_end:
            continue
        if msg.size < cfg.min_volume:
            continue
        dim = cfg.dimension_of(msg.event_type, msg.direction)
        if dim is None:
            continue
        if quotes is not None and cfg.level:
            side = 1 if msg.direction == 1 else 0  # column of the side's best
            best_now = quotes[idx, side]
            best_prev = quotes[max(idx - 1, 0), side]
            if msg.price != best_now and msg.price != best_prev:
                continue
        times.append(msg.time - cfg.session_start)
        dims.append(dim - 1)
    if not times:
        logger.warning("ingestion produced an empty sequence")
    t = np.asarray(times)
    T = cfg.session_end - cfg.session_start
    for i in range(1, t.size):
        if t[i] <= t[i - 1]:
            t[i] = t[i - 1] + 1e-9
    # ties at the session end: pull the jittered tail back below the horizon
    cap = T
    for i in range(t.size - 1, -1, -1):
        if t[i] <= cap:
            break
        t[i] = cap
        cap -= 1e-9
    return EventSequence(t, np.asarray(dims, dtype=np.int64), T, 4)
