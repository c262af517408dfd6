"""Conditional intensity, observed and branching-augmented log-likelihoods.

Conventions fixed across the package:

* ``alpha[p, c]`` couples parent dimension ``p`` to child dimension ``c``;
  the branching structure is stored parent-index-first as ``parent[j]`` for
  each child event ``j`` (-1 for immigrants), which keeps one parent per
  event by construction.
* allocation flag ``w = 1`` means the pair's lag was generated by the
  idiosyncratic mixture of its dimension pair; ``w = 0`` means the shared
  mixture.
* compensator mode ``"exact"`` integrates each kernel over the remaining
  horizon; ``"approx"`` replaces those integrals by 1, which is exact for
  events at least ``T0`` before the horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import EventSequence
from .kernels import ExcitationModel, beta_log_pdf
from .params import HawkesParams
from .pairs import PairData, build_pairs

COMPENSATOR_MODES = ("exact", "approx")


@dataclass(frozen=True)
class LatentState:
    """Branching structure plus mixture allocations for assigned pairs.

    ``parent[j]`` is the index of event j's parent or -1 for immigrants.
    ``w[j]``/``z[j]`` give the allocated blend side (1 = idiosyncratic) and
    component of the pair ending at j; both are -1 for immigrants.
    """

    parent: np.ndarray
    w: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        parent = np.ascontiguousarray(self.parent, dtype=np.int64)
        w = np.ascontiguousarray(self.w, dtype=np.int64)
        z = np.ascontiguousarray(self.z, dtype=np.int64)
        if parent.ndim != 1 or w.shape != parent.shape or z.shape != parent.shape:
            raise ValueError("parent, w, z must be 1-d arrays of equal length")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)
        for arr in (parent, w, z):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.parent.size)

    @classmethod
    def all_immigrants(cls, n: int) -> LatentState:
        full = np.full(n, -1, dtype=np.int64)
        return cls(full, full.copy(), full.copy())


def validate_latent(seq: EventSequence, latent: LatentState, T0: float) -> None:
    """Check parent ordering, lag support, and allocation presence."""
    if latent.n != seq.n:
        raise ValueError("latent state length does not match the sequence")
    assigned = latent.parent >= 0
    idx = np.flatnonzero(assigned)
    if idx.size:
        par = latent.parent[idx]
        if np.any(par >= idx):
            raise ValueError("parents must precede their offspring")
        lag = seq.times[idx] - seq.times[par]
        if np.any(lag <= 0) or np.any(lag >= T0):
            raise ValueError("parent-child lags must lie strictly inside (0, T0)")
        if np.any(latent.w[idx] < 0) or np.any(latent.z[idx] < 0):
            raise ValueError("assigned pairs must carry (w, z) allocations")
    if np.any(latent.parent[~assigned] != -1):
        raise ValueError("immigrant markers must be -1")


def immigrant_counts(seq: EventSequence, latent: LatentState) -> np.ndarray:
    """Immigrants per dimension."""
    imm = latent.parent < 0
    return np.bincount(seq.dims[imm], minlength=seq.K)


def offspring_counts(seq: EventSequence, latent: LatentState) -> np.ndarray:
    """K x K counts of assigned pairs by (parent dim, child dim)."""
    idx = np.flatnonzero(latent.parent >= 0)
    K = seq.K
    kl = seq.dims[latent.parent[idx]] * K + seq.dims[idx]
    return np.bincount(kl, minlength=K * K).reshape(K, K)


def allocation_counts(seq: EventSequence, latent: LatentState, h0: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Component occupancies: shared (H0,) and per-pair (K, K, H)."""
    K = seq.K
    idx = np.flatnonzero(latent.parent >= 0)
    common = idx[latent.w[idx] == 0]
    idio = idx[latent.w[idx] == 1]
    n0 = np.bincount(latent.z[common], minlength=h0)
    kl = seq.dims[latent.parent[idio]] * K + seq.dims[idio]
    nkl = np.bincount(kl * h + latent.z[idio], minlength=K * K * h).reshape(K, K, h)
    return n0, nkl


def spectral_radius(alpha: np.ndarray) -> float:
    """Largest eigenvalue magnitude; values below 1 indicate stationarity."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValueError("alpha must be a square matrix")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha entries must be finite")
    if alpha.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(alpha))))


def intensity(params: HawkesParams, seq: EventSequence, k: int, t: float) -> float:
    """Conditional event rate on dimension ``k`` at time ``t``.

    Sums kernel contributions of strictly earlier events with lags inside
    the support; events lagged ``T0`` or more contribute exactly 0.
    """
    if not 0 <= k < params.K:
        raise IndexError(f"dimension {k} outside 0..{params.K - 1}")
    if not 0.0 <= t <= seq.T:
        raise ValueError("t must lie in [0, T]")
    exc = params.excitation
    lo = int(np.searchsorted(seq.times, t - exc.max_lag, side="right"))
    hi = int(np.searchsorted(seq.times, t, side="left"))
    rate = float(params.mu[k])
    for p in range(params.K):
        sel = seq.dims[lo:hi] == p
        if np.any(sel):
            lags = t - seq.times[lo:hi][sel]
            rate += params.alpha[p, k] * float(np.sum(exc.density(p, k, lags)))
    return rate


def compensator_terms(seq: EventSequence, excitation, mode: str) -> np.ndarray:
    """(K, K) summed kernel integrals over the remaining horizons.

    Entry (p, c) sums, over events on dimension p, the (p, c) kernel CDF at
    ``T - t_i`` (``"exact"``) or 1 (``"approx"``). Only events within the
    kernel support of the horizon have CDF below 1, so the exact sums start
    from the per-dimension counts and subtract tail corrections. These are
    the rate increments of the interaction full conditionals and the
    compensator weights of ``alpha`` in the log-likelihood.
    """
    _check_compensator(mode)
    K = seq.K
    out = np.tile(seq.counts().astype(float)[:, None], (1, K))
    if mode == "approx":
        return out
    if excitation is None:
        raise ValueError("exact compensator terms need the excitation model")
    tail = seq.times > seq.T - excitation.max_lag
    for p in range(K):
        rem = seq.T - seq.times[tail & (seq.dims == p)]
        for c in range(K):
            out[p, c] -= float(np.sum(1.0 - excitation.cdf(p, c, rem)))
    return out


def _check_compensator(mode: str) -> None:
    if mode not in COMPENSATOR_MODES:
        raise ValueError(f"compensator must be one of {COMPENSATOR_MODES}, got {mode!r}")


def pair_density(excitation, pairs: PairData) -> np.ndarray:
    """Excitation density at every pair lag, one call per (parent dim, child dim) group."""
    out = np.empty(pairs.m)
    for g, rows in pairs.groups():
        out[rows] = excitation.density(g // pairs.K, g % pairs.K, pairs.lag[rows])
    return out


def log_likelihood(params: HawkesParams, seq: EventSequence, compensator: str = "exact",
                   pairs: PairData | None = None) -> float:
    """Observed-data log-likelihood via the windowed pair structure."""
    _check_compensator(compensator)
    exc = params.excitation
    if pairs is None:
        pairs = build_pairs(seq, exc.max_lag)
    lam = params.mu[seq.dims].astype(float)
    if pairs.m:
        dens = params.alpha.reshape(-1)[pairs.kl] * pair_density(exc, pairs)
        lam += np.bincount(pairs.child, weights=dens, minlength=seq.n)
    if np.any(lam <= 0):
        raise FloatingPointError("conditional intensity vanished at an event time")
    total = float(np.sum(np.log(lam))) - float(np.sum(params.mu)) * seq.T
    total -= float(np.sum(params.alpha * compensator_terms(seq, exc, compensator)))
    return total


def log_likelihood_naive(params: HawkesParams, seq: EventSequence, compensator: str = "exact") -> float:
    """Reference O(n^2) double-loop evaluation used as a test oracle."""
    _check_compensator(compensator)
    exc = params.excitation
    total = 0.0
    for j in range(seq.n):
        lam = float(params.mu[seq.dims[j]])
        for i in range(j):
            lag = seq.times[j] - seq.times[i]
            lam += params.alpha[seq.dims[i], seq.dims[j]] * float(
                exc.density(int(seq.dims[i]), int(seq.dims[j]), lag))
        total += np.log(lam)
    total -= float(np.sum(params.mu)) * seq.T
    for i in range(seq.n):
        p = int(seq.dims[i])
        for c in range(params.K):
            if compensator == "exact":
                total -= params.alpha[p, c] * float(exc.cdf(p, c, seq.T - seq.times[i]))
            else:
                total -= params.alpha[p, c]
    return total


def augmented_log_likelihood(params: HawkesParams, seq: EventSequence, latent: LatentState,
                             compensator: str = "exact") -> float:
    """Branching-decomposed log-likelihood given allocations.

    Immigrants contribute their background-rate terms; each assigned pair
    contributes the log interaction strength plus the log density of its
    allocated kernel (mixture weights belong to the prior, not this term).
    """
    _check_compensator(compensator)
    exc = params.excitation
    if not isinstance(exc, ExcitationModel):
        raise TypeError("augmented likelihood requires a Beta-mixture excitation model")
    validate_latent(seq, latent, exc.T0)
    arrs = exc.arrays
    total = float(np.sum(immigrant_counts(seq, latent) * np.log(params.mu)))
    total -= float(np.sum(params.mu)) * seq.T
    idx = np.flatnonzero(latent.parent >= 0)
    for j in idx:
        p = int(seq.dims[latent.parent[j]])
        c = int(seq.dims[j])
        lag = seq.times[j] - seq.times[latent.parent[j]]
        total += float(np.log(params.alpha[p, c]))
        if latent.w[j] == 1:
            a, b = arrs["akl"][p, c, latent.z[j]], arrs["bkl"][p, c, latent.z[j]]
        else:
            a, b = arrs["a0"][latent.z[j]], arrs["b0"][latent.z[j]]
        total += beta_log_pdf(lag, float(a), float(b), exc.T0)
    total -= float(np.sum(params.alpha * compensator_terms(seq, exc, compensator)))
    return total


def save_branching(latent: LatentState, path: str | Path) -> None:
    """Write ``child_index,parent_index`` rows (1-based; 0 = immigrant)."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["child_index", "parent_index"])
        for j, p in enumerate(latent.parent):
            writer.writerow([j + 1, int(p) + 1])


def load_branching(path: str | Path, n: int | None = None) -> np.ndarray:
    """Read parent indices written by :func:`save_branching` (0-based, -1 imm)."""
    parents: dict[int, int] = {}
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                parents[int(row[0]) - 1] = int(row[1]) - 1
    size = n if n is not None else (max(parents) + 1 if parents else 0)
    out = np.full(size, -1, dtype=np.int64)
    for j, p in parents.items():
        out[j] = p
    return out
