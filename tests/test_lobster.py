from pathlib import Path

import numpy as np
import pytest

from hawkesmix import IngestConfig, build_event_sequence, parse_messages
from hawkesmix.lobster import read_orderbook_quotes

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
