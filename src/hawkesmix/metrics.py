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


def _rmise(truth: np.ndarray, mean: np.ndarray, spacing: float) -> float:
    truth = np.asarray(truth, dtype=float)
    if truth.shape != mean.shape:
        raise ValueError("truth grid does not match the sample grid")
    per_pair = np.sqrt(np.sum((truth - mean) ** 2, axis=-1) * spacing)
    return float(per_pair.sum() / mean.shape[0] ** 2)


def rmise(truth: np.ndarray, samples: CurveSamples) -> float:
    """Mean over pairs of the root integrated squared error of the mean curve."""
    return _rmise(truth, samples.values.mean(axis=0), samples.grid.spacing)


def coverage_acr(samples: CurveSamples, truth: np.ndarray, level: float = 0.95) -> float:
    """Fraction of (pair, grid) cells whose closed interval covers the truth."""
    return band_metrics(truth, excitation_bands(samples, level), samples.grid, level)["acr"]


def interval_score(samples: CurveSamples, truth: np.ndarray, level: float = 0.95) -> float:
    """Mean width-plus-miss penalty of the pointwise credible intervals.

    Width accrues always; a miss adds ``2/alpha`` times its distance, with
    ``alpha`` the total tail mass.
    """
    return band_metrics(truth, excitation_bands(samples, level), samples.grid, level)["interval_score"]


def excitation_bands(samples: CurveSamples, level: float = 0.95) -> dict[str, np.ndarray]:
    """Pointwise mean and equal-tailed quantile curves per pair, plot-ready."""
    if samples.n_draws < 2:
        raise ValueError("need at least 2 draws for interval summaries")
    tail = (1.0 - level) / 2.0
    return {"mean": samples.values.mean(axis=0),
            "lower": np.quantile(samples.values, tail, axis=0, method="linear"),
            "upper": np.quantile(samples.values, 1.0 - tail, axis=0, method="linear")}


def band_metrics(truth: np.ndarray, bands: dict[str, np.ndarray], grid: GridSpec,
                 level: float = 0.95) -> dict[str, float]:
    """:func:`rmise`, :func:`coverage_acr` and :func:`interval_score` of the
    samples behind one :func:`excitation_bands` result."""
    truth = np.asarray(truth, dtype=float)
    lo, hi = bands["lower"], bands["upper"]
    alpha = 1.0 - level
    score = (hi - lo) \
        + (2.0 / alpha) * np.maximum(lo - truth, 0.0) \
        + (2.0 / alpha) * np.maximum(truth - hi, 0.0)
    return {"rmise": _rmise(truth, bands["mean"], grid.spacing),
            "acr": float(np.mean((truth >= lo) & (truth <= hi))),
            "interval_score": float(np.mean(score))}


def spectral_histogram(alpha_draws: np.ndarray, bins: int = 50) -> dict[str, np.ndarray | float]:
    """Histogram of per-draw spectral radii plus the fraction below 1."""
    alpha_draws = np.asarray(alpha_draws, dtype=float)
    if alpha_draws.ndim != 3 or alpha_draws.shape[0] < 1 or alpha_draws.shape[1] != alpha_draws.shape[2]:
        raise ValueError("need at least one square K x K draw")
    if not np.all(np.isfinite(alpha_draws)):
        raise ValueError("alpha entries must be finite")
    radii = np.abs(np.linalg.eigvals(alpha_draws)).max(axis=1, initial=0.0)
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

def save_bands(path: str | Path, bands: dict[str, np.ndarray], grid: GridSpec) -> None:
    """Band table of an :func:`excitation_bands` result: one row per (parent, child, grid point)."""
    parent, child, g = np.indices(bands["mean"].shape).reshape(3, -1)
    write_table(path, ["parent", "child", "t", "mean", "lower", "upper"],
                [parent + 1, child + 1, grid.points[g],
                 bands["mean"].ravel(), bands["lower"].ravel(), bands["upper"].ravel()])


def save_spectral_histogram(path: str | Path, hist: dict) -> None:
    """One row per bin, then a ``stationary_fraction`` row."""
    edges = hist["edges"].tolist()
    write_table(path, ["bin_left", "bin_right", "count"],
                [edges[:-1] + ["stationary_fraction"], edges[1:] + [hist["stationary_fraction"]],
                 hist["counts"].tolist() + [""]])
