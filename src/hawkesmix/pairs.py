"""Admissible parent-child pair enumeration with a sliding time window.

Only pairs with lag strictly inside ``(0, T0)`` can be parent-child
transitions, so likelihoods and samplers touch O(n * window) pairs instead
of O(n^2). Pairs are stored flat, grouped contiguously by child event, with
a second stable order that groups them by (parent dim, child dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventSequence


@dataclass(frozen=True)
class PairData:
    """Flat arrays over all admissible pairs, grouped by child.

    ``child_start`` has length n+1; the pairs of child ``j`` occupy rows
    ``child_start[j]:child_start[j+1]``. ``kl`` flattens the (parent dim,
    child dim) pair as ``parent_dim * K + child_dim``; ``kl_order`` lists
    the rows stably sorted by ``kl`` and ``kl_start`` (length K²+1) delimits
    the groups, so group ``g`` is ``kl_order[kl_start[g]:kl_start[g+1]]``
    (see :meth:`groups`). Every kernel-density pass runs group by group:
    one design-times-coefficients product per (parent dim, child dim).
    ``log_lag_frac`` and ``log1m_lag_frac`` cache ``log(lag/T0)`` and
    ``log(1 - lag/T0)``.
    """

    child: np.ndarray
    parent: np.ndarray
    lag: np.ndarray
    kl: np.ndarray
    child_start: np.ndarray
    kl_order: np.ndarray
    kl_start: np.ndarray
    log_lag_frac: np.ndarray
    log1m_lag_frac: np.ndarray
    T0: float
    K: int

    @property
    def m(self) -> int:
        return int(self.child.size)

    @property
    def parent_dim(self) -> np.ndarray:
        return self.kl // self.K

    @property
    def child_dim(self) -> np.ndarray:
        return self.kl % self.K

    def groups(self):
        """Yield ``(kl, rows)`` for every nonempty (parent dim, child dim) group."""
        return iter_groups(self.kl_order, self.kl_start)

    def pair_row(self, child: int, parent: int) -> int:
        """Row index of the (parent, child) pair; raises if inadmissible."""
        lo, hi = int(self.child_start[child]), int(self.child_start[child + 1])
        pos = lo + int(np.searchsorted(self.parent[lo:hi], parent))
        if pos >= hi or self.parent[pos] != parent:
            raise ValueError(f"event {parent} is not a candidate parent of event {child}")
        return pos


def build_pairs(seq: EventSequence, T0: float) -> PairData:
    """Enumerate all pairs with lag in ``(0, T0)`` in O(n + total pairs).

    The left boundary of each child's candidate range slides monotonically,
    so whole-sequence enumeration is linear in events plus emitted pairs.
    """
    if not np.isfinite(T0) or T0 <= 0:
        raise ValueError("T0 must be finite and positive")
    t = seq.times
    n = seq.n
    # first index i with t[j] - t[i] < T0, i.e. t[i] > t[j] - T0
    starts = np.searchsorted(t, t - T0, side="right")
    counts = np.arange(n) - starts
    child_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=child_start[1:])
    m = int(child_start[-1])
    child = np.repeat(np.arange(n, dtype=np.int64), counts)
    base = np.repeat(child_start[:-1], counts)
    parent = np.repeat(starts, counts) + (np.arange(m, dtype=np.int64) - base)
    lag = t[child] - t[parent]
    kl = seq.dims[parent] * seq.K + seq.dims[child]
    kl_order, kl_start = group_rows(kl, seq.K * seq.K)
    frac = lag / T0
    return PairData(
        child=child,
        parent=parent,
        lag=lag,
        kl=kl,
        child_start=child_start,
        kl_order=kl_order,
        kl_start=kl_start,
        log_lag_frac=np.log(frac),
        log1m_lag_frac=np.log1p(-frac),
        T0=float(T0),
        K=seq.K,
    )


def group_rows(codes: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of rows by group code plus ``n_groups + 1`` offsets into it."""
    # a narrow key lets numpy's stable sort use radix sort
    order = np.argsort(codes.astype(np.min_scalar_type(n_groups)), kind="stable")
    start = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=n_groups), out=start[1:])
    return order, start


def iter_groups(order: np.ndarray, start: np.ndarray):
    """Yield ``(code, rows)`` for every nonempty group of :func:`group_rows`."""
    for g in range(start.size - 1):
        if start[g] < start[g + 1]:
            yield g, order[start[g]:start[g + 1]]


def candidate_parents(seq: EventSequence, j: int, T0: float) -> np.ndarray:
    """Indices i < j with lag ``t_j - t_i`` strictly inside ``(0, T0)``."""
    if not 0 <= j < seq.n:
        raise IndexError(f"event index {j} outside 0..{seq.n - 1}")
    if not np.isfinite(T0) or T0 <= 0:
        raise ValueError("T0 must be finite and positive")
    lo = int(np.searchsorted(seq.times, seq.times[j] - T0, side="right"))
    return np.arange(lo, j, dtype=np.int64)


def segment_max(values: np.ndarray, child_start: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Per-segment maximum of contiguous groups, seeded with ``init``.

    Segment j covers ``values[child_start[j]:child_start[j+1]]``; empty
    segments keep their seed value.
    """
    out = np.asarray(init, dtype=float).copy()
    nonempty = child_start[:-1] < child_start[1:]
    if np.any(nonempty):
        red = np.maximum.reduceat(values, child_start[:-1][nonempty])
        out[nonempty] = np.maximum(out[nonempty], red)
    return out


def parent_softmax(pair_score: np.ndarray, imm_score: np.ndarray,
                   pairs: PairData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized parent weights of each child, stabilized per child.

    Returns ``(w, imm_w, tot)``: the weight of every pair, of every event's
    immigrant option, and each event's total; scores are shifted by the
    child's maximum (immigrant option included) before exponentiation.
    """
    seg = segment_max(pair_score, pairs.child_start, imm_score)
    w = np.exp(pair_score - seg[pairs.child])
    imm_w = np.exp(imm_score - seg)
    tot = imm_w + np.bincount(pairs.child, weights=w, minlength=imm_score.size)
    return w, imm_w, tot
