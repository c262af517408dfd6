"""Posterior summaries of excitation curves and interaction matrices.

All curve metrics work on a midpoint grid over the kernel support, pair by
pair: pointwise estimation error (integrated), credible-band coverage, and
the width-plus-miss interval score. Quantiles use linearly interpolated
order statistics throughout so coverage and score penalties agree cell by
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .files import write_table
from .kernels import beta_log_coefs, lag_design
from .likelihood import spectral_radius


@dataclass(frozen=True)
class GridSpec:
    """Midpoint-spaced evaluation grid on the open support ``(0, T0)``."""

    n_points: int
    T0: float

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("need at least 2 grid points")
        if not np.isfinite(self.T0) or self.T0 <= 0:
            raise ValueError("T0 must be finite and positive")

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.n_points) + 0.5) * (self.T0 / self.n_points)

    @property
    def spacing(self) -> float:
        return self.T0 / self.n_points


@dataclass(frozen=True)
class CurveSamples:
    """Excitation values per draw, dimension pair, and grid point."""

    values: np.ndarray  # (draws, K, K, grid)
    grid: GridSpec

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 4 or v.shape[1] != v.shape[2] or v.shape[3] != self.grid.n_points:
            raise ValueError("values must have shape (draws, K, K, n_points)")
        if np.any(v < 0):
            raise ValueError("excitation values must be nonnegative")

    @property
    def n_draws(self) -> int:
        return int(self.values.shape[0])

    @property
    def K(self) -> int:
        return int(self.values.shape[1])


def curve_samples_from_draws(draws: dict[str, np.ndarray], T0: float, grid: GridSpec) -> CurveSamples:
    """Evaluate blended excitation curves for stacked parameter draws.

    ``draws`` holds eps (S,), p0/a0/b0 (S, H0), and pkl/akl/bkl (S, K, K, H)
    as produced by the samplers.
    """
    eps = np.asarray(draws["eps"], dtype=float)
    p0, a0, b0 = (np.asarray(draws[k], dtype=float) for k in ("p0", "a0", "b0"))
    pkl, akl, bkl = (np.asarray(draws[k], dtype=float) for k in ("pkl", "akl", "bkl"))
    S, K, H = pkl.shape[0], pkl.shape[1], pkl.shape[3]
    design = lag_design(grid.points, T0)
    out = np.empty((S, K, K, grid.n_points))
    for s in range(S):
        common = np.exp(design @ beta_log_coefs(a0[s], b0[s], T0)) @ p0[s]
        # all K*K pair mixtures in one product: (grid, K*K*H) component densities
        comp = np.exp(design @ beta_log_coefs(akl[s], bkl[s], T0).reshape(3, -1))
        idio = np.einsum("gqh,qh->qg", comp.reshape(-1, K * K, H), pkl[s].reshape(K * K, H))
        out[s] = (eps[s] * common + (1.0 - eps[s]) * idio).reshape(K, K, -1)
    return CurveSamples(out, grid)


def evaluate_truth(truth: Callable[[int, int, np.ndarray], np.ndarray], K: int, grid: GridSpec) -> np.ndarray:
    """Tabulate a truth evaluator ``(parent, child, lags) -> densities``."""
    x = grid.points
    out = np.empty((K, K, grid.n_points))
    for i in range(K):
        for j in range(K):
            out[i, j] = np.asarray(truth(i, j, x), dtype=float)
    return out


def rmise(truth: np.ndarray, samples: CurveSamples) -> float:
    """Mean over pairs of the root integrated squared error of the mean curve."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != samples.values.shape[1:]:
        raise ValueError("truth grid does not match the sample grid")
    est = samples.values.mean(axis=0)
    per_pair = np.sqrt(np.sum((truth - est) ** 2, axis=-1) * samples.grid.spacing)
    return float(per_pair.sum() / samples.K ** 2)


def _quantile_bands(samples: CurveSamples, level: float) -> tuple[np.ndarray, np.ndarray]:
    if samples.n_draws < 2:
        raise ValueError("need at least 2 draws for interval summaries")
    tail = (1.0 - level) / 2.0
    lo = np.quantile(samples.values, tail, axis=0, method="linear")
    hi = np.quantile(samples.values, 1.0 - tail, axis=0, method="linear")
    return lo, hi


def coverage_acr(samples: CurveSamples, truth: np.ndarray, level: float = 0.95) -> float:
    """Fraction of (pair, grid) cells whose closed interval covers the truth."""
    truth = np.asarray(truth, dtype=float)
    lo, hi = _quantile_bands(samples, level)
    return float(np.mean((truth >= lo) & (truth <= hi)))


def interval_score(samples: CurveSamples, truth: np.ndarray, level: float = 0.95) -> float:
    """Mean width-plus-miss penalty of the pointwise credible intervals.

    Width accrues always; a miss adds ``2/alpha`` times its distance, with
    ``alpha`` the total tail mass.
    """
    truth = np.asarray(truth, dtype=float)
    lo, hi = _quantile_bands(samples, level)
    alpha = 1.0 - level
    score = (hi - lo) \
        + (2.0 / alpha) * np.maximum(lo - truth, 0.0) \
        + (2.0 / alpha) * np.maximum(truth - hi, 0.0)
    return float(np.mean(score))


def excitation_bands(samples: CurveSamples, level: float = 0.95) -> dict[str, np.ndarray]:
    """Pointwise mean and quantile curves per pair, plot-ready."""
    lo, hi = _quantile_bands(samples, level)
    return {"mean": samples.values.mean(axis=0), "lower": lo, "upper": hi}


def spectral_histogram(alpha_draws: np.ndarray, bins: int = 50) -> dict[str, np.ndarray | float]:
    """Histogram of per-draw spectral radii plus the fraction below 1."""
    alpha_draws = np.asarray(alpha_draws, dtype=float)
    if alpha_draws.ndim != 3 or alpha_draws.shape[0] < 1:
        raise ValueError("need at least one K x K draw")
    radii = np.array([spectral_radius(a) for a in alpha_draws])
    counts, edges = np.histogram(radii, bins=bins)
    return {
        "radii": radii,
        "counts": counts,
        "edges": edges,
        "stationary_fraction": float(np.mean(radii < 1.0)),
    }


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def save_bands(path: str | Path, samples: CurveSamples, level: float = 0.95) -> None:
    """Band table: one row per (parent, child, grid point)."""
    bands = excitation_bands(samples, level)
    parent, child, g = np.indices(bands["mean"].shape).reshape(3, -1)
    write_table(path, ["parent", "child", "t", "mean", "lower", "upper"],
                [parent + 1, child + 1, samples.grid.points[g],
                 bands["mean"].ravel(), bands["lower"].ravel(), bands["upper"].ravel()])


def save_spectral_histogram(path: str | Path, hist: dict) -> None:
    """One row per bin, then a ``stationary_fraction`` row."""
    edges = hist["edges"].tolist()
    write_table(path, ["bin_left", "bin_right", "count"],
                [edges[:-1] + ["stationary_fraction"], edges[1:] + [hist["stationary_fraction"]],
                 hist["counts"].tolist() + [""]])
