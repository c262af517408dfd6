"""Scaled-Beta kernels and blended mixture excitation functions.

All densities live on the bounded support ``(0, T0)`` and are assembled in
log space from log-gamma terms. Density evaluations return exactly 0 outside
the open interval, including at the endpoints, even for shape parameters
below 1 where the pointwise limit would diverge. :func:`cell_log_scores`
is the one allocation-score table of the sampler and the variational engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special


# grid points of the peak-density scan behind the thinning simulator's rate bound
_DENSITY_SCAN = 2048


def _require_finite_positive(**named: float) -> None:
    for name, value in named.items():
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def beta_log_pdf(t, a: float, b: float, T0: float):
    """Log density of the Beta(a, b) kernel scaled to ``(0, T0)``.

    Returns ``-inf`` outside the open support. Accepts scalar or array ``t``.
    """
    _require_finite_positive(a=a, b=b, T0=T0)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    inside = (t > 0.0) & (t < T0)
    frac = np.where(inside, t / T0, 0.5)
    out = (
        special.gammaln(a + b)
        - special.gammaln(a)
        - special.gammaln(b)
        - np.log(T0)
        + (a - 1.0) * np.log(frac)
        + (b - 1.0) * np.log1p(-frac)
    )
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)


def beta_pdf(t, a: float, b: float, T0: float):
    """Density of the Beta(a, b) kernel scaled to ``(0, T0)``; 0 outside."""
    out = np.exp(beta_log_pdf(t, a, b, T0))
    return out if isinstance(out, np.ndarray) else float(out)


def beta_cdf(t, a: float, b: float, T0: float):
    """Distribution function of the scaled Beta kernel, clamped to [0, 1]."""
    _require_finite_positive(a=a, b=b, T0=T0)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    frac = np.clip(t / T0, 0.0, 1.0)
    out = special.betainc(a, b, frac)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def lag_design(t, T0: float) -> np.ndarray:
    """(M, 3) design rows ``[log(t/T0), log(1 - t/T0), 1]`` for lags inside ``(0, T0)``.

    Every kernel-density table in the package is this design times
    coefficient rows from :func:`beta_log_coefs`.
    """
    frac = np.asarray(t, dtype=float) / T0
    return np.column_stack([np.log(frac), np.log1p(-frac), np.ones_like(frac)])


def beta_log_coefs(a, b, T0: float) -> np.ndarray:
    """Coefficient rows ``[a - 1; b - 1; log normaliser]`` of shape (3, *a.shape).

    ``lag_design(t, T0) @ beta_log_coefs(a, b, T0)`` gives the log density
    of each scaled Beta(a, b) component at each lag.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    log_norm = special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b) - np.log(T0)
    return np.stack([a - 1.0, b - 1.0, log_norm])


def design_density(design: np.ndarray, sides):
    """The one Beta-mixture evaluator: ``sum(weight * exp(design @ coefs) @ p)`` over
    ``(weight, beta_log_coefs rows, mixture weights)`` sides with nonzero weight."""
    vals = 0.0
    for weight, coefs, p in sides:
        if weight > 0.0:
            vals = vals + weight * (np.exp(design @ coefs) @ p)
    return vals


def cell_log_scores(lt, lm, kl, common, idio) -> np.ndarray:
    """Cell-major ``(H0 + H, n)`` allocation log scores of n pairs.

    Pair ``j`` has design ``[lt[j], lm[j], 1]`` and group ``kl[j]``. A side is
    ``(log side weight, coefficient rows, log component weights)``: (3, H0) rows
    with (H0,) weights for the common side, (3, K², H) with (K², H), gathered per
    pair, for the idiosyncratic one. A side with log weight -inf is not evaluated.
    """
    (lw0, coef0, lp0), (lwi, coefi, lpi) = common, idio
    h0 = lp0.shape[-1]
    scores = np.full((h0 + lpi.shape[-1], lt.size), -np.inf)
    if lw0 > -np.inf:
        design_t = np.stack([lt, lm, np.ones_like(lt)])
        scores[:h0] = (lw0 + lp0)[:, None] + coef0.T @ design_t
    if lwi > -np.inf:
        # coefficient columns and log weights of each column's own mixture
        table = np.concatenate([coefi, (lwi + lpi)[None]])
        c = np.take(np.ascontiguousarray(table.transpose(0, 2, 1)), kl, axis=2)
        out = scores[h0:]
        np.multiply(c[0], lt, out=out)
        out += c[1] * lm
        out += c[2]
        out += c[3]
    return scores


def _blend_density(sides, t, T0: float):
    """Sum of ``weight * mixture density`` over ``(weight, BetaMixture)`` sides.

    The lag design is built once for all sides. Returns 0 outside
    ``(0, T0)`` and a float for scalar ``t``.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < T0)
    if np.any(inside):
        out[inside] = design_density(lag_design(t[inside], T0),
                                     ((w, beta_log_coefs(mix.a, mix.b, T0), mix.p) for w, mix in sides))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class BetaMixture:
    """Finite mixture of scaled Beta kernels with simplex weights.

    ``p``, ``a`` and ``b`` are length-H arrays; the weights must sum to one
    within 1e-12 and all shapes must be strictly positive.
    """

    p: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        for name, arr in (("p", p), ("a", a), ("b", b)):
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != p.shape:
                raise ValueError("p, a, b must be 1-d arrays of equal length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if p.size < 1:
            raise ValueError("mixture needs at least one component")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if np.any(a <= 0) or np.any(b <= 0):
            raise ValueError("shape parameters must be strictly positive")
        for arr in (p, a, b):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return int(self.p.size)

    def density(self, t, T0: float):
        """Mixture density at lag(s) ``t``; 0 outside ``(0, T0)``."""
        return _blend_density(((1.0, self),), t, T0)

    def cdf(self, t, T0: float):
        scalar = np.ndim(t) == 0
        frac = np.clip(np.asarray(t, dtype=float) / T0, 0.0, 1.0)
        vals = special.betainc(self.a, self.b, np.atleast_1d(frac)[..., None])
        out = np.clip(vals @ self.p, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size: int, T0: float) -> tuple[np.ndarray, np.ndarray]:
        """Draw lags (component draw, then scaled Beta); returns (lags, z)."""
        z = rng.choice(self.n_components, size=size, p=self.p)
        lags = rng.beta(self.a[z], self.b[z]) * T0
        return lags, z


@dataclass(frozen=True)
class ExcitationModel:
    """Blend of a shared mixture and per-pair mixtures on ``(0, T0)``.

    The excitation from parent dimension ``p`` to child dimension ``c`` is
    ``eps * common + (1 - eps) * idio[p][c]``. Each normalized excitation
    integrates to one over the support by construction.
    """

    eps: float
    common: BetaMixture
    idio: tuple[tuple[BetaMixture, ...], ...]
    T0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.eps) or not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        _require_finite_positive(T0=self.T0)
        idio = tuple(tuple(row) for row in self.idio)
        object.__setattr__(self, "idio", idio)
        K = len(idio)
        if K < 1 or any(len(row) != K for row in idio):
            raise ValueError("idio must be a square K x K grid of mixtures")

    @property
    def K(self) -> int:
        return len(self.idio)

    @property
    def max_lag(self) -> float:
        return self.T0

    def density(self, parent_dim: int, child_dim: int, t):
        """Blended excitation density for the (parent, child) pair at lag t.

        A blend side with zero weight is not evaluated.
        """
        self._check_dims(parent_dim, child_dim)
        sides = ((self.eps, self.common), (1.0 - self.eps, self.idio[parent_dim][child_dim]))
        return _blend_density(sides, t, self.T0)

    def cdf(self, parent_dim: int, child_dim: int, t):
        self._check_dims(parent_dim, child_dim)
        common = self.common.cdf(t, self.T0)
        idio = self.idio[parent_dim][child_dim].cdf(t, self.T0)
        return self.eps * common + (1.0 - self.eps) * idio

    def sample_lags(self, parent_dim: int, child_dim: int, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw offspring lags; returns (lags, w, z) with w=1 idiosyncratic."""
        self._check_dims(parent_dim, child_dim)
        w = (rng.random(size) >= self.eps).astype(np.int8)
        lags = np.empty(size)
        z = np.empty(size, dtype=np.int64)
        n_common = int(np.sum(w == 0))
        if n_common:
            lags[w == 0], z[w == 0] = self.common.sample(rng, n_common, self.T0)
        if size - n_common:
            lags[w == 1], z[w == 1] = self.idio[parent_dim][child_dim].sample(rng, size - n_common, self.T0)
        return lags, w, z

    def max_density(self, parent_dim: int, child_dim: int) -> float:
        """Grid estimate of the pair's peak density (used as a rate bound)."""
        grid = (np.arange(_DENSITY_SCAN) + 0.5) * (self.T0 / _DENSITY_SCAN)
        return float(np.max(self.density(parent_dim, child_dim, grid)))

    def _check_dims(self, parent_dim: int, child_dim: int) -> None:
        K = self.K
        if not (0 <= parent_dim < K and 0 <= child_dim < K):
            raise IndexError(f"dimension pair ({parent_dim}, {child_dim}) outside 0..{K - 1}")

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """Stacked parameter arrays: p0/a0/b0 (H0,), pkl/akl/bkl (K, K, H)."""
        K = self.K
        H = self.idio[0][0].n_components
        pkl = np.empty((K, K, H))
        akl = np.empty((K, K, H))
        bkl = np.empty((K, K, H))
        for i in range(K):
            for j in range(K):
                m = self.idio[i][j]
                if m.n_components != H:
                    raise ValueError("all idiosyncratic mixtures must share one truncation level")
                pkl[i, j], akl[i, j], bkl[i, j] = m.p, m.a, m.b
        return {
            "p0": self.common.p, "a0": self.common.a, "b0": self.common.b,
            "pkl": pkl, "akl": akl, "bkl": bkl,
        }

    @classmethod
    def from_arrays(cls, eps: float, p0: np.ndarray, a0: np.ndarray, b0: np.ndarray,
                    pkl: np.ndarray, akl: np.ndarray, bkl: np.ndarray, T0: float) -> ExcitationModel:
        K = pkl.shape[0]
        common = BetaMixture(p0, a0, b0)
        idio = tuple(
            tuple(BetaMixture(pkl[i, j], akl[i, j], bkl[i, j]) for j in range(K))
            for i in range(K)
        )
        return cls(eps=float(eps), common=common, idio=idio, T0=float(T0))

