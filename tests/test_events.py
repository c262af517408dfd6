import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesmix import EventSequence, load_events, save_events


def test_basic_construction():
    seq = EventSequence(np.array([0.5, 1.0, 2.5]), np.array([0, 1, 0]), T=3.0, K=2)
    assert seq.n == 3
    np.testing.assert_array_equal(seq.counts(), [2, 1])


def test_ties_forbidden():
    with pytest.raises(ValueError, match="strictly increasing"):
        EventSequence(np.array([1.0, 1.0]), np.array([0, 1]), T=2.0, K=2)


def test_dimension_range_enforced():
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0]), np.array([2]), T=2.0, K=2)
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0]), np.array([-1]), T=2.0, K=2)


def test_horizon_covers_last_event():
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 5.0]), np.array([0, 0]), T=4.0, K=1)


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        EventSequence(np.empty(0), np.empty(0, dtype=int), T=1.0, K=0)


def test_empty_sequence_valid():
    seq = EventSequence(np.empty(0), np.empty(0, dtype=int), T=5.0, K=3)
    assert seq.n == 0
    np.testing.assert_array_equal(seq.counts(), [0, 0, 0])


def test_arrays_immutable():
    seq = EventSequence(np.array([1.0]), np.array([0]), T=2.0, K=1)
    with pytest.raises(ValueError):
        seq.times[0] = 0.5


def test_window_keeps_original_times():
    seq = EventSequence(np.array([0.5, 1.0, 2.5, 3.0]), np.array([0, 1, 0, 1]), T=4.0, K=2)
    win = seq.window(0.9, 2.6)
    np.testing.assert_array_equal(win.times, [1.0, 2.5])
    np.testing.assert_array_equal(win.dims, [1, 0])
    assert win.T == seq.T and win.K == seq.K


def test_csv_roundtrip_is_exact(tmp_path, rng):
    times = np.sort(rng.uniform(0, 99.0, size=40))
    seq = EventSequence(times, rng.integers(0, 3, size=40), T=100.0, K=3)
    path = tmp_path / "events.csv"
    save_events(seq, path)
    back = load_events(path)
    np.testing.assert_array_equal(back.times, seq.times)
    np.testing.assert_array_equal(back.dims, seq.dims)
    assert back.T == seq.T and back.K == seq.K


def test_csv_uses_one_based_dimensions(tmp_path):
    seq = EventSequence(np.array([1.25]), np.array([0]), T=2.0, K=2)
    path = tmp_path / "events.csv"
    save_events(seq, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,d"
    assert lines[1] == "1.25,1"
    assert (tmp_path / "events.json").exists()


@pytest.mark.parametrize("times,dims", [([], []), ([0.25], [1])])
def test_short_sequences_roundtrip_without_warning(tmp_path, times, dims):
    seq = EventSequence(np.array(times, dtype=float), np.array(dims, dtype=np.int64), T=1.0, K=2)
    path = tmp_path / "events.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_events(seq, path)
        back = load_events(path)
    assert back.times.shape == seq.times.shape and back.dims.shape == seq.dims.shape
    np.testing.assert_array_equal(back.times, seq.times)
    np.testing.assert_array_equal(back.dims, seq.dims)
    assert back.T == seq.T and back.K == seq.K


def _reference_csv(seq: EventSequence) -> bytes:
    """The event table as a row-by-row ``csv.writer`` with ``repr`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "d"])
    for t, d in zip(seq.times, seq.dims):
        writer.writerow([repr(float(t)), int(d) + 1])
    return buf.getvalue().encode()


@st.composite
def increasing_times(draw):
    """Strictly increasing float64 times: 1-ulp gaps, subnormals, times near 1e9."""
    t = draw(st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e9]),
                       st.floats(0.0, 1e-300), st.floats(0.0, 1e9), st.floats(1e9 - 1.0, 1e9)))
    times = [t]
    for step in draw(st.lists(st.one_of(st.integers(1, 3), st.floats(1e-320, 1e3)), max_size=30)):
        if isinstance(step, int):
            for _ in range(step):
                t = float(np.nextafter(t, np.inf))
        else:
            t = max(t + step, float(np.nextafter(t, np.inf)))
        times.append(t)
    return np.array(times)


@settings(max_examples=60, deadline=None)
@given(times=increasing_times(), data=st.data())
def test_times_roundtrip_bitwise(times, data):
    dims = np.array(data.draw(st.lists(st.integers(0, 2), min_size=times.size, max_size=times.size)),
                    dtype=np.int64)
    seq = EventSequence(times, dims, T=float(times[-1]), K=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        save_events(seq, path)
        assert path.read_bytes() == _reference_csv(seq)
        back = load_events(path)
    np.testing.assert_array_equal(back.times.view(np.int64), seq.times.view(np.int64))
    np.testing.assert_array_equal(back.dims, seq.dims)
    assert back.T == seq.T and back.K == seq.K
