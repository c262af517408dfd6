from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hawkesmix import EventSequence, IngestConfig, build_event_sequence, parse_messages
from hawkesmix.lobster import MAX_MALFORMED_FRAC, LobsterMessage, _parse_row, read_orderbook_quotes

DATA = Path(__file__).parent / "data"


class TestParseMessages:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        report = parse_messages(path)
        assert report.messages == [] and report.malformed == []

    def test_ten_row_fixture_field_exact(self):
        report = parse_messages(DATA / "lobster_messages_10.csv")
        assert len(report.messages) == 10
        assert report.malformed == []
        first = report.messages[0]
        assert first.time == 34200.123456789
        assert first.event_type == 1
        assert first.order_id == 2001
        assert first.size == 100
        assert first.price == 2238100
        assert first.direction == 1
        last = report.messages[-1]
        assert (last.time, last.event_type, last.size, last.direction) == (34209.875, 2, 125, 1)

    def test_zero_direction_is_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{34200 + i}.0,1,{i},200,100,1" for i in range(200)]
        rows[5] = "34205.0,1,5,200,100,0"
        path.write_text("\n".join(rows) + "\n")
        report = parse_messages(path)
        assert len(report.messages) == 199
        assert len(report.malformed) == 1
        assert report.malformed[0][0] == 6  # 1-based line number

    def test_malformed_fraction_threshold(self, tmp_path):
        path = tmp_path / "mostly_bad.csv"
        rows = ["34200.0,1,1,200,100,1", "not,a,row", "34202.0,1,2,200,100,0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_messages(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_messages(tmp_path / "absent.csv")

    def test_time_must_not_decrease(self, tmp_path):
        path = tmp_path / "times.csv"
        rows = [f"{34200 + i}.0,1,{i},200,100,1" for i in range(200)]
        rows[10] = "34100.0,1,10,200,100,1"
        path.write_text("\n".join(rows) + "\n")
        report = parse_messages(path)
        assert report.malformed[0][0] == 11


class TestBuildSequence:
    def test_single_buy_submission(self):
        from hawkesmix.lobster import LobsterMessage

        msg = LobsterMessage(time=34201.0, event_type=1, order_id=1, size=200,
                             price=100, direction=1)
        seq = build_event_sequence([msg], IngestConfig())
        assert seq.n == 1
        assert seq.dims[0] == 0  # dimension 1 in file terms
        assert seq.times[0] == 1.0
        assert seq.T == 6.5 * 3600

    def test_fifty_row_fixture_counts_and_times(self):
        """Hand-derived expectations: 40 retained events split (13, 10, 8, 9)
        across the four dimensions; one exact tie jittered by 1 ns."""
        report = parse_messages(DATA / "lobster_messages_50.csv")
        assert len(report.messages) == 50
        seq = build_event_sequence(report.messages, IngestConfig())
        assert seq.n == 40
        np.testing.assert_array_equal(seq.counts(), [13, 10, 8, 9])
        expected_head = [0.0, 1.25, 2.0, 10.0, 15.75, 20.0, 30.5, 35.0, 40.0,
                         45.0, 50.0, 55.5, 65.0, 70.0]
        np.testing.assert_allclose(seq.times[:14], expected_head, rtol=0, atol=0)
        # the tie at 36000.5 seconds: second event nudged by one nanosecond
        assert seq.times[14] == 1800.5
        assert seq.times[15] == 1800.5 + 1e-9
        assert seq.times[-1] == 23400.0
        assert np.all(np.diff(seq.times) > 0)

    def test_session_end_ties_stay_inside_horizon(self, tmp_path):
        """Two valid messages at exactly 16:00:00 must not be jittered past T."""
        path = tmp_path / "ties.csv"
        path.write_text("57599.5,1,1,200,100,1\n"
                        "57600.000000000,1,2,200,100,1\n"
                        "57600.000000000,3,3,200,100,-1\n")
        seq = build_event_sequence(parse_messages(path).messages, IngestConfig())
        assert seq.n == 3
        assert seq.times[-1] <= seq.T
        assert np.all(np.diff(seq.times) > 0)

    def test_volume_floor(self):
        report = parse_messages(DATA / "lobster_messages_50.csv")
        seq = build_event_sequence(report.messages, IngestConfig(min_volume=0))
        # the four sub-100 rows come back once the floor is dropped
        assert seq.n == 44

    def test_hidden_executions_toggle(self):
        report = parse_messages(DATA / "lobster_messages_50.csv")
        seq = build_event_sequence(report.messages, IngestConfig(include_hidden=False))
        np.testing.assert_array_equal(seq.counts(), [13, 8, 8, 7])

    def test_level_one_filter_with_orderbook(self):
        """Level-1 events match their side's best quote in the companion or
        preceding book row: improving submissions match their own row,
        top-removing cancels the preceding one."""
        report = parse_messages(DATA / "lobster_messages_level1.csv")
        quotes = read_orderbook_quotes(DATA / "lobster_orderbook_level1.csv")
        seq = build_event_sequence(report.messages, IngestConfig(), quotes)
        np.testing.assert_array_equal(seq.counts(), [1, 1, 1, 1])
        np.testing.assert_allclose(seq.times, [10.0, 12.0, 13.0, 15.0])

    def test_no_orderbook_accepts_all_levels(self, caplog):
        report = parse_messages(DATA / "lobster_messages_level1.csv")
        with caplog.at_level("WARNING"):
            seq = build_event_sequence(report.messages, IngestConfig())
        assert seq.n == 6
        assert any("level" in r.message for r in caplog.records)

    def test_empty_result_is_valid(self, caplog):
        with caplog.at_level("WARNING"):
            seq = build_event_sequence([], IngestConfig())
        assert seq.n == 0

    def test_idempotent_byte_identical(self, tmp_path):
        from hawkesmix import save_events

        report = parse_messages(DATA / "lobster_messages_50.csv")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_events(build_event_sequence(report.messages, IngestConfig()), out1)
        save_events(build_event_sequence(report.messages, IngestConfig()), out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestOrderbookAlignment:
    """LOBSTER orderbooks have a row per raw message row, malformed rows
    included; quotes are then selected by each message's raw row."""

    PAD = 99  # valid pre-market rows, so one malformed row stays under the 1% threshold

    def _write(self, tmp_path, book_rows):
        pad = [f"{34000 + i}.0,1,{i},200,2238100,1" for i in range(self.PAD)]
        messages = pad + ["34210.0,1,1,200,2238100,1",
                          "34211.0,1,2,200,2238100,0",   # malformed: direction 0
                          "34212.0,1,3,300,2238200,-1",
                          "34213.0,4,4,150,2238100,1",
                          "34214.0,1,5,200,2237900,1"]
        (tmp_path / "m.csv").write_text("\n".join(messages) + "\n")
        (tmp_path / "b.csv").write_text("\n".join(book_rows) + "\n")
        return parse_messages(tmp_path / "m.csv"), read_orderbook_quotes(tmp_path / "b.csv")

    def test_book_row_per_raw_message_row(self, tmp_path):
        book = ["2238200,100,2238100,100"] * self.PAD + [
            "2238250,100,2238100,100",
            "2238300,100,2238000,100",  # the malformed row's book state
            "2238200,100,2238100,100",
            "2238200,100,2238000,100",
            "2238200,100,2238000,100"]
        report, quotes = self._write(tmp_path, book)
        assert [line for line, _ in report.malformed] == [self.PAD + 2]
        seq = build_event_sequence(report.messages, IngestConfig(), quotes)
        # the sell submission matches its own row's ask, the buy market
        # order the preceding row's bid, and the deep bid neither
        np.testing.assert_array_equal(seq.times, [10.0, 12.0, 13.0])
        np.testing.assert_array_equal(seq.dims, [0, 2, 1])

    def test_other_row_counts_raise(self, tmp_path):
        report, quotes = self._write(tmp_path, ["2238200,100,2238100,100"] * (self.PAD + 3))
        with pytest.raises(ValueError, match="align"):
            build_event_sequence(report.messages, IngestConfig(), quotes)


def reference_parse(path):
    """The per-line rules applied row by row, the reference for the column
    parser: (messages, their raw row indices, malformed)."""
    messages, rows, malformed, prev_time, n_rows = [], [], [], -np.inf, 0
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            n_rows += 1
            fields = _parse_row(line)
            if isinstance(fields, str):
                malformed.append((lineno, fields))
            elif fields[5] not in (-1, 1):
                malformed.append((lineno, f"direction must be 1 or -1, got {fields[5]}"))
            elif fields[1] not in range(1, 8):
                malformed.append((lineno, f"unknown event type {fields[1]}"))
            elif not np.isfinite(fields[0]) or fields[0] < prev_time:
                malformed.append((lineno, "time must be finite and nondecreasing"))
            else:
                prev_time = fields[0]
                messages.append(LobsterMessage(*fields))
                rows.append(n_rows - 1)
    if n_rows and len(malformed) > MAX_MALFORMED_FRAC * n_rows:
        raise ValueError(f"{len(malformed)} of {n_rows} rows malformed "
                         f"(threshold {MAX_MALFORMED_FRAC:.0%}); first: {malformed[0]}")
    return messages, rows, malformed


def reference_build(messages, cfg, quotes=None, rows=None):
    """``build_event_sequence`` message by message; ``rows`` picks each
    message's orderbook row (default: its position)."""
    rows = list(range(len(messages))) if rows is None else rows
    times, dims = [], []
    for msg, idx in zip(messages, rows):
        if not cfg.session_start <= msg.time <= cfg.session_end or msg.size < cfg.min_volume:
            continue
        if msg.event_type == 1:
            dim = 0
        elif msg.event_type in (2, 3, 4) or (msg.event_type == 5 and cfg.include_hidden):
            dim = 1
        else:
            continue
        if quotes is not None and cfg.level:
            side = 1 if msg.direction == 1 else 0
            if msg.price not in (quotes[idx, side], quotes[max(idx - 1, 0), side]):
                continue
        times.append(msg.time - cfg.session_start)
        dims.append(dim + (0 if msg.direction == 1 else 2))
    t = np.asarray(times, dtype=float)
    T = cfg.session_end - cfg.session_start
    for i in range(1, t.size):
        if t[i] <= t[i - 1]:
            t[i] = t[i - 1] + 1e-9
    cap = T
    for i in range(t.size - 1, -1, -1):
        if t[i] <= cap:
            break
        t[i] = cap
        cap -= 1e-9
    return EventSequence(t, np.asarray(dims, dtype=np.int64), T, 4)


# rows that the strict pattern rejects or the column checks drop; {t} is the
# current time stamp, {back} half a second before it
ODD_ROWS = [
    "{t},1,1,100,2238100",                       # five columns
    "{t},1,x1,100,2238100,1",                    # non-integer field
    "{t},1,1,100,2238100,0",                     # direction 0
    "{t},9,1,100,2238100,1",                     # event type 9
    "{back},1,1,100,2238100,1",                  # time going back
    "nan,1,1,100,2238100,1",
    "inf,3,1,100,2238100,-1",
    "-inf,3,1,100,2238100,-1",
    "{t},+5,1,100,2238100,1",
    "{t}, 7,1,100,2238100,-1",
    "{t},1,1,1_000,2238100,1",
    "{t},1,12345678901234567890,200,2238100,1",  # order id beyond int64
    "{t},1,9300000000000000000,200,2238100,1",   # 19 digits, beyond int64
    "{t},4,1,100000000000000000000,2238200,-1",  # size beyond int64
    "{t},99999999999999999999,1,200,2238100,1",  # event type beyond int64
    "  {t},1,1,200,2238100,-1\t",
    "{t},2,1,300,2238200,1,9",                   # a seventh column is ignored
    "{t}e0,1,1,200,2238100,1",
    "",
    "   ",
]
NS = 10**9


def _stamp(ns):
    return f"{ns // NS}.{ns % NS:09d}"


@st.composite
def message_files(draw):
    """(file text, orderbook rows per raw row): valid rows with ties mixed
    with the odd rows, CRLF and lone-CR breaks, behind a run of pre-market
    rows that keeps the malformed share under the threshold on some draws."""
    n_pad = draw(st.sampled_from([0, 5, 400]))
    lines = [f"{_stamp(30000 * NS + i * NS)},1,{i},200,2238100,1" for i in range(n_pad)]
    t = draw(st.sampled_from([34199 * NS + NS // 2, 57599 * NS + NS - 2]))
    for kind in draw(st.lists(st.integers(-1, len(ODD_ROWS) - 1), max_size=30)):
        t += draw(st.sampled_from([0, 0, 1, NS // 2]))
        if kind < 0:
            etype = draw(st.integers(1, 7))
            size, price = draw(st.sampled_from([50, 100, 300])), draw(st.sampled_from([2238100, 2238200, 2238300]))
            lines.append(f"{_stamp(t)},{etype},1,{size},{price},{draw(st.sampled_from([1, -1]))}")
        else:
            lines.append(ODD_ROWS[kind].format(t=_stamp(t), back=_stamp(t - NS // 2)))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no break after the last row
    return text


def _parse_or_error(parse, path):
    try:
        return parse(path)
    except ValueError as exc:
        return str(exc)


def _book(n):
    """Best ask/bid rows that move by one tick, so some prices match."""
    i = np.arange(n)
    ask = 2238200 + 100 * (i % 2)
    return np.stack([ask, ask - 100 - 100 * (i % 3 == 0)], axis=1).astype(np.int64)


class TestColumnsMatchPerLineRules:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=message_files())
    def test_messages_malformed_and_sequence(self, tmp_path, text):
        path = tmp_path / "messages.csv"
        path.write_bytes(text.encode())
        report = _parse_or_error(parse_messages, path)
        expected = _parse_or_error(reference_parse, path)
        if isinstance(expected, str):
            assert report == expected
            return
        messages, rows, malformed = expected
        assert list(report.messages) == messages and report.messages == messages
        assert report.malformed == malformed
        assert report.messages.row.tolist() == rows
        n_rows = report.messages.n_rows
        # quotes by parse order and, LOBSTER's way, by raw row
        for quotes, at in ((_book(len(messages)), None), (_book(n_rows), rows)):
            for cfg in (IngestConfig(), IngestConfig(min_volume=0, include_hidden=False, level=0)):
                got = build_event_sequence(report.messages, cfg, quotes)
                want = reference_build(messages, cfg, quotes, at)
                assert got.times.tobytes() == want.times.tobytes()
                np.testing.assert_array_equal(got.dims, want.dims)
                assert (got.T, got.K) == (want.T, want.K)
        # a plain list of messages takes the same path
        got = build_event_sequence(messages, IngestConfig(), None)
        assert got.times.tobytes() == reference_build(messages, IngestConfig()).times.tobytes()


class TestJitteredTimes:
    def test_cascading_ties(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_text("34201.0,1,1,200,100,1\n34201.0,1,2,200,100,1\n34201.0,3,3,200,100,-1\n"
                        "34201.000000001,1,4,200,100,-1\n34202.0,1,5,200,100,1\n")
        seq = build_event_sequence(parse_messages(path).messages, IngestConfig())
        t1 = 1.0 + 1e-9
        t2 = t1 + 1e-9
        assert 34201.000000001 - 34200.0 <= t2  # the fourth row is caught in the cascade
        assert seq.times.tolist() == [1.0, t1, t2, t2 + 1e-9, 2.0]

    def test_session_end_ties_pull_back_an_earlier_event(self, tmp_path):
        path = tmp_path / "end.csv"
        path.write_text("57599.999999999,1,1,200,100,1\n57600.0,1,2,200,100,1\n"
                        "57600.0,3,3,200,100,-1\n57600.0,4,4,200,100,-1\n")
        seq = build_event_sequence(parse_messages(path).messages, IngestConfig())
        T = 23400.0
        c1 = T - 1e-9
        c2 = c1 - 1e-9
        c3 = c2 - 1e-9
        assert 57599.999999999 - 34200.0 > c3  # so the pull-back reaches the untied first event
        assert seq.times.tolist() == [c3, c2, c1, T]
        np.testing.assert_array_equal(seq.dims, [0, 0, 3, 3])
