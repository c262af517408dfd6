import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesmix import EventSequence, build_pairs, candidate_parents
from hawkesmix.pairs import segment_max

from conftest import random_sequence


def _seq(times, K=1):
    times = np.asarray(times, dtype=float)
    return EventSequence(times, np.zeros(times.size, dtype=int), T=float(times[-1] + 1), K=K)


def test_first_event_has_no_parents():
    seq = _seq([0.3, 0.9])
    assert candidate_parents(seq, 0, 1.0).size == 0


def test_all_lags_outside_window():
    seq = _seq([0.1, 0.5, 2.0])
    assert candidate_parents(seq, 2, 1.0).size == 0


def test_window_picks_only_close_parents():
    seq = _seq([0.1, 0.5, 1.2])
    np.testing.assert_array_equal(candidate_parents(seq, 2, 1.0), [1])


def test_lag_exactly_t0_excluded():
    seq = _seq([0.0, 1.0, 1.5])
    np.testing.assert_array_equal(candidate_parents(seq, 1, 1.0), [])
    np.testing.assert_array_equal(candidate_parents(seq, 2, 1.0), [1])


def test_index_validation():
    seq = _seq([0.1])
    with pytest.raises(IndexError):
        candidate_parents(seq, 1, 1.0)
    with pytest.raises(ValueError):
        candidate_parents(seq, 0, 0.0)


def test_build_pairs_matches_per_event_enumeration(rng):
    for _ in range(20):
        n = int(rng.integers(0, 40))
        seq = random_sequence(rng, n, K=2, T=10.0)
        T0 = float(rng.uniform(0.2, 3.0))
        pairs = build_pairs(seq, T0)
        rows = 0
        for j in range(n):
            cands = candidate_parents(seq, j, T0)
            lo, hi = pairs.child_start[j], pairs.child_start[j + 1]
            np.testing.assert_array_equal(pairs.parent[lo:hi], cands)
            assert np.all(pairs.child[lo:hi] == j)
            rows += cands.size
        assert pairs.m == rows
        assert np.all((pairs.lag > 0) & (pairs.lag < T0))
        np.testing.assert_allclose(pairs.log_lag_frac, np.log(pairs.lag / T0), rtol=1e-15)


@given(st.integers(0, 25), st.floats(0.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_pair_lags_always_inside_open_window(n, T0):
    rng = np.random.default_rng(n)
    times = np.sort(rng.uniform(0, 5.0, size=n))
    times = times[np.concatenate([[True], np.diff(times) > 0])] if n else times
    seq = EventSequence(times, np.zeros(times.size, dtype=int), T=6.0, K=1)
    pairs = build_pairs(seq, T0)
    assert np.all(pairs.lag > 0)
    assert np.all(pairs.lag < T0)
    assert pairs.child_start[-1] == pairs.m


def test_kl_groups_partition_rows_in_child_order(rng):
    seq = random_sequence(rng, 60, K=3, T=10.0)
    pairs = build_pairs(seq, 1.0)
    seen = []
    for g, rows in pairs.groups():
        assert np.all(pairs.kl[rows] == g)
        assert np.all(np.diff(rows) > 0)
        seen.append(rows)
    np.testing.assert_array_equal(np.sort(np.concatenate(seen)), np.arange(pairs.m))
    np.testing.assert_array_equal(np.diff(pairs.kl_start), np.bincount(pairs.kl, minlength=9))


def test_pair_row_lookup():
    seq = _seq([0.1, 0.5, 1.2])
    pairs = build_pairs(seq, 1.0)
    row = pairs.pair_row(2, 1)
    assert pairs.child[row] == 2 and pairs.parent[row] == 1
    with pytest.raises(ValueError):
        pairs.pair_row(2, 0)


def test_segment_max_with_empty_segments():
    child_start = np.array([0, 2, 2, 5])
    values = np.array([1.0, 3.0, -2.0, 7.0, 0.5])
    init = np.array([0.0, 4.0, 6.0])
    out = segment_max(values, child_start, init)
    np.testing.assert_array_equal(out, [3.0, 4.0, 7.0])
