"""Synthetic process generators and stationary-rate utilities.

Two independent simulators are provided: a cluster (branching) construction
that also returns the true parent structure, and a dominating-rate rejection
sampler used as a cross-check. Both are deterministic given the scenario
seed; the branching simulator derives one child RNG stream per generation
from a counter-based seed tree, so the recursion order of offspring never
perturbs other draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventSequence
from .kernels import BetaMixture, ExcitationModel
from .likelihood import LatentState, excitation_rates, spectral_radius
from .params import HawkesParams

# Shared two-dimensional benchmark configuration used across tests and the
# experiment runner.
BENCHMARK_MU = np.array([0.05, 0.1])
BENCHMARK_ALPHA = np.array([[0.6, 0.15], [0.3, 0.6]])
BENCHMARK_T0 = 1.0
BENCHMARK_COMMON_SHAPES = (1.0, 4.0)
BENCHMARK_IDIO_A = np.array([[2.0, 4.0], [1.5, 1.0]])
BENCHMARK_IDIO_B = np.array([[6.0, 1.0], [5.0, 1.0]])
BENCHMARK_EXP_RATES = np.array([[2.0, 0.8], [0.8, 2.0]])


@dataclass(frozen=True)
class ExpBlendKernels:
    """Blend of a unit-rate and a pair-specific exponential lag density.

    Used as a ground truth whose support exceeds the model's bounded
    window, i.e. fitting a bounded-support model to it is deliberately
    misspecified. Densities are normalized: the pair-specific part is
    ``rate * exp(-rate * t)``.
    """

    eps: float
    rates: np.ndarray
    common_rate: float = 1.0

    def __post_init__(self) -> None:
        rates = np.ascontiguousarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ValueError("rates must be square")
        if np.any(rates <= 0) or self.common_rate <= 0:
            raise ValueError("rates must be strictly positive")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        rates.setflags(write=False)

    @property
    def K(self) -> int:
        return int(self.rates.shape[0])

    @property
    def max_lag(self) -> float:
        # lag beyond which every component density is below ~1e-12
        slowest = min(self.common_rate, float(self.rates.min()))
        return 27.7 / slowest

    def density(self, parent_dim: int, child_dim: int, t):
        t = np.asarray(t, dtype=float)
        lam = self.rates[parent_dim, child_dim]
        out = np.where(
            t > 0,
            self.eps * self.common_rate * np.exp(-self.common_rate * t)
            + (1.0 - self.eps) * lam * np.exp(-lam * t),
            0.0,
        )
        return out if out.ndim else float(out)

    def cdf(self, parent_dim: int, child_dim: int, t):
        t = np.asarray(t, dtype=float)
        lam = self.rates[parent_dim, child_dim]
        out = np.where(
            t > 0,
            self.eps * (-np.expm1(-self.common_rate * t))
            + (1.0 - self.eps) * (-np.expm1(-lam * t)),
            0.0,
        )
        return out if out.ndim else float(out)

    def sample_lags(self, parent_dim: int, child_dim: int, rng: np.random.Generator, size: int):
        w = (rng.random(size) >= self.eps).astype(np.int8)
        lam = np.where(w == 0, self.common_rate, self.rates[parent_dim, child_dim])
        lags = rng.exponential(1.0 / lam)
        z = np.full(size, -1, dtype=np.int64)
        return lags, w, z

    def max_density(self, parent_dim: int, child_dim: int) -> float:
        lam = float(self.rates[parent_dim, child_dim])
        return self.eps * self.common_rate + (1.0 - self.eps) * lam


@dataclass(frozen=True)
class SimScenario:
    """Generator parameters, horizon, and RNG seed for one synthetic run."""

    params: HawkesParams
    T: float
    seed: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError("T must be finite and positive")
        rho = spectral_radius(self.params.alpha)
        if rho >= 1.0:
            raise ValueError(f"spectral radius {rho:.4f} >= 1: simulation would not terminate")


def benchmark_beta_params(eps_true: float) -> HawkesParams:
    """Two-dimensional benchmark with single-component Beta-mixture kernels."""
    a0, b0 = BENCHMARK_COMMON_SHAPES
    common = BetaMixture(np.array([1.0]), np.array([a0]), np.array([b0]))
    idio = tuple(
        tuple(
            BetaMixture(np.array([1.0]), np.array([BENCHMARK_IDIO_A[i, j]]),
                        np.array([BENCHMARK_IDIO_B[i, j]]))
            for j in range(2)
        )
        for i in range(2)
    )
    model = ExcitationModel(eps=eps_true, common=common, idio=idio, T0=BENCHMARK_T0)
    return HawkesParams(BENCHMARK_MU.copy(), BENCHMARK_ALPHA.copy(), model)


def benchmark_exponential_params(eps_true: float) -> HawkesParams:
    """Two-dimensional benchmark with unbounded exponential-blend kernels."""
    model = ExpBlendKernels(eps=eps_true, rates=BENCHMARK_EXP_RATES.copy())
    return HawkesParams(BENCHMARK_MU.copy(), BENCHMARK_ALPHA.copy(), model)


def expected_rates(params: HawkesParams) -> np.ndarray:
    """Stationary mean event rates: solves ``rate = mu + alpha^T rate``."""
    rho = spectral_radius(params.alpha)
    if rho >= 1.0:
        raise ValueError(f"spectral radius {rho:.4f} >= 1: no stationary rates")
    K = params.K
    return np.linalg.solve(np.eye(K) - params.alpha.T, params.mu)


def _sort_merge(times: list[np.ndarray], dims: list[np.ndarray], parents: list[np.ndarray],
                w: list[np.ndarray], z: list[np.ndarray], T: float, K: int):
    t = np.concatenate(times) if times else np.empty(0)
    d = np.concatenate(dims).astype(np.int64) if dims else np.empty(0, dtype=np.int64)
    par = np.concatenate(parents).astype(np.int64) if parents else np.empty(0, dtype=np.int64)
    ww = np.concatenate(w).astype(np.int64) if w else np.empty(0, dtype=np.int64)
    zz = np.concatenate(z).astype(np.int64) if z else np.empty(0, dtype=np.int64)
    order = np.argsort(t, kind="stable")
    t, d, par, ww, zz = t[order], d[order], par[order], ww[order], zz[order]
    # continuous draws essentially never tie; nudge defensively if they do
    for i in range(1, t.size):
        if t[i] <= t[i - 1]:
            t[i] = np.nextafter(t[i - 1], np.inf)
    if t.size and t[-1] > T:
        T = float(t[-1])
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    remap = np.where(par >= 0, inv[np.clip(par, 0, None)], -1)
    seq = EventSequence(t, d, T, K)
    return seq, LatentState(remap, ww, zz)


def simulate_branching(scenario: SimScenario) -> tuple[EventSequence, LatentState]:
    """Cluster-construction sampler returning the true branching structure.

    Generation 0 events arrive as homogeneous background streams; each event
    on dimension p then spawns Poisson(alpha[p, c]) children on dimension c
    at kernel-distributed lags, recursively, until no offspring land inside
    the horizon. Offspring past the horizon are discarded. Stream g of the
    seed tree drives generation g, with draws consumed in (time, parent dim,
    child dim) order, so independent generations never share randomness.
    """
    params, T, K = scenario.params, scenario.T, scenario.params.K
    exc = params.excitation
    root = np.random.SeedSequence(scenario.seed)
    all_t: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    all_parent: list[np.ndarray] = []
    all_w: list[np.ndarray] = []
    all_z: list[np.ndarray] = []

    rng = np.random.Generator(np.random.Philox(root.spawn(1)[0]))
    gen_t: list[np.ndarray] = []
    gen_d: list[np.ndarray] = []
    for k in range(K):
        count = rng.poisson(params.mu[k] * T)
        gen_t.append(np.sort(rng.uniform(0.0, T, size=count)))
        gen_d.append(np.full(count, k, dtype=np.int64))
    cur_t = np.concatenate(gen_t)
    cur_d = np.concatenate(gen_d)
    order = np.argsort(cur_t, kind="stable")
    cur_t, cur_d = cur_t[order], cur_d[order]
    cur_ids = np.arange(cur_t.size, dtype=np.int64)
    next_id = cur_t.size
    all_t.append(cur_t)
    all_d.append(cur_d)
    all_parent.append(np.full(cur_t.size, -1, dtype=np.int64))
    all_w.append(np.full(cur_t.size, -1, dtype=np.int64))
    all_z.append(np.full(cur_t.size, -1, dtype=np.int64))

    while cur_t.size:
        rng = np.random.Generator(np.random.Philox(root.spawn(1)[0]))
        nt, nd, npar, nw, nz = [], [], [], [], []
        for p in range(K):
            sel = cur_d == p
            if not np.any(sel):
                continue
            src_t = cur_t[sel]
            src_id = cur_ids[sel]
            for c in range(K):
                counts = rng.poisson(params.alpha[p, c], size=src_t.size)
                total = int(counts.sum())
                if total == 0:
                    continue
                lags, w, z = exc.sample_lags(p, c, rng, total)
                t = np.repeat(src_t, counts) + lags
                keep = t <= T
                nt.append(t[keep])
                nd.append(np.full(int(keep.sum()), c, dtype=np.int64))
                npar.append(np.repeat(src_id, counts)[keep])
                nw.append(w[keep].astype(np.int64))
                nz.append(z[keep])
        if not nt:
            break
        cur_t = np.concatenate(nt)
        cur_d = np.concatenate(nd)
        par = np.concatenate(npar)
        w = np.concatenate(nw)
        z = np.concatenate(nz)
        order = np.argsort(cur_t, kind="stable")
        cur_t, cur_d, par, w, z = cur_t[order], cur_d[order], par[order], w[order], z[order]
        cur_ids = next_id + np.arange(cur_t.size, dtype=np.int64)
        next_id += cur_t.size
        all_t.append(cur_t)
        all_d.append(cur_d)
        all_parent.append(par)
        all_w.append(w)
        all_z.append(z)

    return _sort_merge(all_t, all_d, all_parent, all_w, all_z, T, K)


def simulate_thinning(scenario: SimScenario) -> EventSequence:
    """Dominating-rate rejection sampler over the conditional intensity.

    The bound is the total background rate plus, for every event still
    inside the kernel window, the peak total contribution that event can
    ever make. Kernel peaks come from a fine grid scan padded by 2%, with a
    unit additive margin on top. This dominates the intensity at every
    future time until a new event is accepted (contributions can jump at
    lag zero, so a pointwise-intensity bound would not), and is refreshed
    after every acceptance and every rejection. Violations raise.
    """
    params, T, K = scenario.params, scenario.T, scenario.params.K
    exc = params.excitation
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(scenario.seed)))
    # peak total child-rate contribution of one event per parent dimension
    peak = np.array([
        sum(params.alpha[p, c] * exc.max_density(p, c) for c in range(K))
        for p in range(K)
    ]) * 1.02
    mu_total = float(np.sum(params.mu))
    t_arr = np.empty(1024)
    d_arr = np.empty(1024, dtype=np.int64)
    n = 0
    first_active = 0

    t = 0.0
    violations = 0
    while t < T:
        while first_active < n and t - t_arr[first_active] >= exc.max_lag:
            first_active += 1
        bound = mu_total + float(np.sum(peak[d_arr[first_active:n]])) + 1.0
        if bound <= 0:
            break
        t = t + rng.exponential(1.0 / bound)
        if t >= T:
            break
        lam = excitation_rates(params, t_arr[first_active:n], d_arr[first_active:n], t)
        total = float(lam.sum())
        if total > bound:
            violations += 1
        if rng.random() * bound < total:
            k = int(rng.choice(K, p=lam / total))
            if n == t_arr.size:
                t_arr = np.resize(t_arr, 2 * n)
                d_arr = np.resize(d_arr, 2 * n)
            t_arr[n] = t
            d_arr[n] = k
            n += 1
    if violations:
        raise RuntimeError(f"dominating-rate bound violated {violations} times")
    tt = t_arr[:n].copy()
    for i in range(1, n):
        if tt[i] <= tt[i - 1]:
            tt[i] = np.nextafter(tt[i - 1], np.inf)
    return EventSequence(tt, d_arr[:n].copy(), T, K)
