"""Stochastic mean-field variational inference for the blended-mixture model.

The variational family mirrors the priors: Gamma factors for rates and
kernel shapes, Dirichlet factors for mixture weights, a Beta factor for the
blend weight, one categorical per event over its admissible parents, and
one joint categorical per admissible pair over (blend side, component).

Kernel-shape expectations of log densities are handled with a second-order
Taylor surrogate around the variational means; its closed-form block
updates are the only ones that are not exact coordinate maximizers of the
surrogate objective, so the optimizer tracks them separately from the
conjugate blocks (which increase the surrogate monotonically when applied
with a unit step on the full data).

Stochastic steps subsample a random time window, exclude pairs whose parent
precedes the window, scale every window count sum by the inverse
subsampling ratio, and blend natural-parameter targets with the learning
rate ``rho0 * (r + tau1) ** (-tau2)``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .events import EventSequence
from .kernels import lag_design
from .params import Hyperparams
from .pairs import PairData, build_pairs, parent_softmax
from .mcmc import VARIANTS

logger = logging.getLogger(__name__)

_POSITIVE_FLOOR = 1e-10


@dataclass(frozen=True)
class SviConfig:
    """Subsampling ratio, learning-rate schedule, truncations, and variant."""

    iterations: int
    kappa: float = 0.2
    rho0: float = 1.0
    tau1: float = 1.0
    tau2: float = 0.7
    h0: int = 10
    h: int = 10
    t0: float = 1.0
    variant: str = "RANDOM"
    hyper: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 0
    elbo_every: int = 25

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        if self.rho0 <= 0 or self.tau1 < 0 or not 0.5 < self.tau2 <= 1.0:
            raise ValueError("need rho0 > 0, tau1 >= 0, tau2 in (0.5, 1]")
        if self.h0 < 1 or self.h < 1 or self.t0 <= 0:
            raise ValueError("invalid truncation levels or kernel support")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.elbo_every < 1:
            raise ValueError("elbo_every must be at least 1")


def learning_rate(r: int, cfg: SviConfig) -> float:
    """Decaying step size; square-summable but not summable for the
    configured forgetting-rate range."""
    if r < 1:
        raise ValueError("iteration index starts at 1")
    return cfg.rho0 * (r + cfg.tau1) ** (-cfg.tau2)


def select_window(seq: EventSequence, kappa: float, rng: np.random.Generator) -> tuple[EventSequence, float]:
    """Uniformly placed window of length ``kappa * T`` with times retained."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    t_start = float(rng.uniform(0.0, (1.0 - kappa) * seq.T))
    return seq.window(t_start, t_start + kappa * seq.T), t_start


def _clamp_positive(arr: np.ndarray, label: str) -> np.ndarray:
    low = arr < _POSITIVE_FLOOR
    if np.any(low):
        logger.warning("clamped %d nonpositive %s parameters to %g", int(low.sum()), label, _POSITIVE_FLOOR)
        arr = np.maximum(arr, _POSITIVE_FLOOR)
    return arr


# ---------------------------------------------------------------------------
# Taylor surrogate for expectations of log Beta-kernel normalizers
# ---------------------------------------------------------------------------

def _taylor_bound(sa, ra, sb, rb):
    """Second-order surrogate of E[log Gamma(a+b) - log Gamma(a) - log Gamma(b)]
    for independent Gamma-distributed shapes, expanded around their means."""
    abar = sa / ra
    bbar = sb / rb
    dla = special.digamma(sa) - np.log(sa)
    dlb = special.digamma(sb) - np.log(sb)
    m2a = dla ** 2 + special.polygamma(1, sa)
    m2b = dlb ** 2 + special.polygamma(1, sb)
    s = abar + bbar
    tri_s = special.polygamma(1, s)
    return (special.gammaln(s) - special.gammaln(abar) - special.gammaln(bbar)
            + abar * (special.digamma(s) - special.digamma(abar)) * dla
            + bbar * (special.digamma(s) - special.digamma(bbar)) * dlb
            + 0.5 * abar ** 2 * (tri_s - special.polygamma(1, abar)) * m2a
            + 0.5 * bbar ** 2 * (tri_s - special.polygamma(1, bbar)) * m2b
            + abar * bbar * tri_s * dla * dlb)


def taylor_elbo_bound(eta_a: tuple[float, float], eta_b: tuple[float, float]) -> float:
    """Surrogate of the expected log kernel normalizer for one component."""
    sa, ra = eta_a
    sb, rb = eta_b
    if min(sa, ra, sb, rb) <= 0:
        raise ValueError("Gamma parameters must be positive")
    return float(_taylor_bound(sa, ra, sb, rb))


def q_expected_log_beta(eta_a: tuple[float, float], eta_b: tuple[float, float],
                        t: float, T0: float) -> float:
    """Surrogate of E[log kernel density] at one lag inside the support."""
    if not 0.0 < t < T0:
        raise ValueError("t must lie strictly inside (0, T0)")
    sa, ra = eta_a
    sb, rb = eta_b
    if min(sa, ra, sb, rb) <= 0:
        raise ValueError("Gamma parameters must be positive")
    abar = sa / ra
    bbar = sb / rb
    return float(_taylor_bound(sa, ra, sb, rb)
                 + (abar - 1.0) * np.log(t / T0)
                 + (bbar - 1.0) * np.log1p(-t / T0)
                 - np.log(T0))


# ---------------------------------------------------------------------------
# State containers
# ---------------------------------------------------------------------------

@dataclass
class VariationalState:
    """Global variational parameters plus fixed data context.

    Gamma families store (shape, rate) in the trailing axis. For the pinned
    variants the unused blend side stays at its prior and ``eta_eps`` is
    None.
    """

    K: int
    h0: int
    h: int
    t0: float
    variant: str
    hyper: Hyperparams
    T: float
    n_parent: np.ndarray
    eta_mu: np.ndarray
    eta_alpha: np.ndarray
    eta_p0: np.ndarray
    eta_a0: np.ndarray
    eta_b0: np.ndarray
    eta_pkl: np.ndarray
    eta_akl: np.ndarray
    eta_bkl: np.ndarray
    eta_eps: np.ndarray | None

    # -- expectations ------------------------------------------------------

    def elog_mu(self) -> np.ndarray:
        return special.digamma(self.eta_mu[:, 0]) - np.log(self.eta_mu[:, 1])

    def emu(self) -> np.ndarray:
        return self.eta_mu[:, 0] / self.eta_mu[:, 1]

    def elog_alpha(self) -> np.ndarray:
        return special.digamma(self.eta_alpha[..., 0]) - np.log(self.eta_alpha[..., 1])

    def ealpha(self) -> np.ndarray:
        return self.eta_alpha[..., 0] / self.eta_alpha[..., 1]

    def elog_p0(self) -> np.ndarray:
        return special.digamma(self.eta_p0) - special.digamma(self.eta_p0.sum())

    def elog_pkl(self) -> np.ndarray:
        return special.digamma(self.eta_pkl) - special.digamma(self.eta_pkl.sum(axis=-1, keepdims=True))

    def elog_eps_pair(self) -> tuple[float, float]:
        """(E[log eps], E[log(1 - eps)]), degenerate for pinned variants."""
        if self.variant == "IDIO":
            return -np.inf, 0.0
        if self.variant == "COMMON":
            return 0.0, -np.inf
        s = special.digamma(self.eta_eps.sum())
        return (float(special.digamma(self.eta_eps[0]) - s),
                float(special.digamma(self.eta_eps[1]) - s))

    def eps_mean(self) -> float:
        if self.variant == "IDIO":
            return 0.0
        if self.variant == "COMMON":
            return 1.0
        return float(self.eta_eps[0] / self.eta_eps.sum())


@dataclass
class LocalState:
    """Window events, their pair structure, and local categorical tables."""

    events: EventSequence
    pairs: PairData
    eta_imm: np.ndarray
    eta_pair: np.ndarray
    qc: np.ndarray
    qi: np.ndarray


def init_state(cfg: SviConfig, seq: EventSequence) -> VariationalState:
    """Moderate-variance start: every Gamma factor has shape 2 with its mean
    at the corresponding sampler initialization (prior means for shapes)."""
    K, h0, h = seq.K, cfg.h0, cfg.h
    hyper = cfg.hyper
    nk = seq.counts().astype(float)
    mu_mean = np.maximum(nk, 1.0) / (2.0 * seq.T)
    eta_mu = np.column_stack([np.full(K, 2.0), 2.0 / mu_mean])
    eta_alpha = np.empty((K, K, 2))
    eta_alpha[..., 0] = 2.0
    eta_alpha[..., 1] = 2.0 / (0.5 / K)
    common_dead = cfg.variant == "IDIO"
    idio_dead = cfg.variant == "COMMON"

    def gamma_init(c, d, shape, dead):
        out = np.empty(shape + (2,))
        if dead:
            out[..., 0] = c
            out[..., 1] = d
        else:
            out[..., 0] = 2.0
            out[..., 1] = 2.0 * d / c
        return out

    return VariationalState(
        K=K, h0=h0, h=h, t0=cfg.t0, variant=cfg.variant, hyper=hyper,
        T=seq.T, n_parent=nk,
        eta_mu=eta_mu,
        eta_alpha=eta_alpha,
        eta_p0=np.full(h0, hyper.gamma_dp / h0) if common_dead else np.ones(h0),
        eta_a0=gamma_init(hyper.ca_common, hyper.da_common, (h0,), common_dead),
        eta_b0=gamma_init(hyper.cb_common, hyper.db_common, (h0,), common_dead),
        eta_pkl=np.full((K, K, h), hyper.gamma_dp / h) if idio_dead else np.ones((K, K, h)),
        eta_akl=gamma_init(hyper.ca_idio, hyper.da_idio, (K, K, h), idio_dead),
        eta_bkl=gamma_init(hyper.cb_idio, hyper.db_idio, (K, K, h), idio_dead),
        eta_eps=np.array([1.0, 1.0]) if cfg.variant == "RANDOM" else None,
    )


def make_local(window: EventSequence, t0: float) -> LocalState:
    """Pair structure for a window; local tables start uninformative."""
    pairs = build_pairs(window, t0)
    n, m = window.n, pairs.m
    h0 = 1  # placeholder sizes; tables are resized on first update
    return LocalState(
        events=window,
        pairs=pairs,
        eta_imm=np.ones(n),
        eta_pair=np.zeros(m),
        qc=np.zeros((m, h0)),
        qi=np.zeros((m, h0)),
    )


# ---------------------------------------------------------------------------
# Local updates
# ---------------------------------------------------------------------------

def _component_tables(state: VariationalState):
    """Per-component surrogate constants and shape means, flattened."""
    K, h0, h = state.K, state.h0, state.h
    t0c = _taylor_bound(state.eta_a0[:, 0], state.eta_a0[:, 1],
                        state.eta_b0[:, 0], state.eta_b0[:, 1])
    abar0 = state.eta_a0[:, 0] / state.eta_a0[:, 1]
    bbar0 = state.eta_b0[:, 0] / state.eta_b0[:, 1]
    akl = state.eta_akl.reshape(K * K, h, 2)
    bkl = state.eta_bkl.reshape(K * K, h, 2)
    t0i = _taylor_bound(akl[..., 0], akl[..., 1], bkl[..., 0], bkl[..., 1])
    abari = akl[..., 0] / akl[..., 1]
    bbari = bkl[..., 0] / bkl[..., 1]
    return t0c, abar0, bbar0, t0i, abari, bbari


def _cell_scores(local: LocalState, state: VariationalState) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale allocation scores for every pair and mixture cell.

    Common-side score: E[log eps] + E[log weight] + surrogate log density;
    idiosyncratic side analogous with the pair's own components. Both are
    the lag design times rows ``[abar - 1; bbar - 1; constant]`` whose
    constant holds the Taylor surrogate and the expected log weights.
    """
    pr = local.pairs
    t0c, abar0, bbar0, t0i, abari, bbari = _component_tables(state)
    le, l1e = state.elog_eps_pair()
    log_t0 = np.log(state.t0)
    design = lag_design(pr.lag, pr.T0)
    sc = design @ np.stack([abar0 - 1.0, bbar0 - 1.0, le + state.elog_p0() + t0c - log_t0])
    elog_pkl = state.elog_pkl().reshape(state.K * state.K, state.h)
    coefs = np.stack([abari - 1.0, bbari - 1.0, l1e + elog_pkl + t0i - log_t0])
    si = np.empty((pr.m, state.h))
    for g, rows in pr.groups():
        si[rows] = design[rows] @ coefs[:, g]
    return sc, si


def _softmax_cells(sc: np.ndarray, si: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-normalize cell scores jointly; returns (qc, qi, log normalizer)."""
    m = sc.shape[0]
    if m == 0:
        return sc.copy(), si.copy(), np.zeros(0)
    top = np.maximum(sc.max(axis=1), si.max(axis=1))
    ec = np.exp(sc - top[:, None])
    ei = np.exp(si - top[:, None])
    tot = ec.sum(axis=1) + ei.sum(axis=1)
    return ec / tot[:, None], ei / tot[:, None], top + np.log(tot)


def _evidence(q: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row sums of q * (score - log q) with zero cells contributing zero."""
    if q.size == 0:
        return np.zeros(q.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = q * (scores - np.log(q))
    return np.where(q > 0, terms, 0.0).sum(axis=1)


def update_allocations(local: LocalState, state: VariationalState) -> None:
    """Exact coordinate update of every pair's joint allocation table."""
    sc, si = _cell_scores(local, state)
    local.qc, local.qi, _ = _softmax_cells(sc, si)


def update_branching(local: LocalState, state: VariationalState) -> None:
    """Exact coordinate update of every event's parent distribution.

    A candidate parent's score is its expected log interaction rate plus
    the pair's allocation evidence (expected cell score plus allocation
    entropy); the immigrant score is the expected log background rate.
    """
    pr, win = local.pairs, local.events
    imm_score = state.elog_mu()[win.dims]
    if pr.m == 0:
        local.eta_imm = np.ones(win.n)
        local.eta_pair = np.zeros(0)
        return
    sc, si = _cell_scores(local, state)
    pair_score = (state.elog_alpha().reshape(-1)[pr.kl]
                  + _evidence(local.qc, sc) + _evidence(local.qi, si))
    w, imm_w, tot = parent_softmax(pair_score, imm_score, pr)
    local.eta_imm = imm_w / tot
    local.eta_pair = w / tot[pr.child]


def update_local(local: LocalState, state: VariationalState) -> None:
    """Allocation tables then parent distributions, sharing one score pass."""
    pr, win = local.pairs, local.events
    imm_score = state.elog_mu()[win.dims]
    if pr.m == 0:
        local.eta_imm = np.ones(win.n)
        local.eta_pair = np.zeros(0)
        local.qc = np.zeros((0, state.h0))
        local.qi = np.zeros((0, state.h))
        return
    sc, si = _cell_scores(local, state)
    local.qc, local.qi, lse = _softmax_cells(sc, si)
    pair_score = state.elog_alpha().reshape(-1)[pr.kl] + lse
    w, imm_w, tot = parent_softmax(pair_score, imm_score, pr)
    local.eta_imm = imm_w / tot
    local.eta_pair = w / tot[pr.child]


# ---------------------------------------------------------------------------
# Global updates
# ---------------------------------------------------------------------------

@dataclass
class WindowStats:
    """Inverse-ratio-scaled count sums of one window's local tables."""

    imm_counts: np.ndarray
    pair_counts: np.ndarray
    n_common: np.ndarray
    s_common_t: np.ndarray
    s_common_m: np.ndarray
    n_idio: np.ndarray
    s_idio_t: np.ndarray
    s_idio_m: np.ndarray


def window_stats(local: LocalState, state: VariationalState, kappa: float) -> WindowStats:
    pr, win = local.pairs, local.events
    K, h = state.K, state.h
    inv = 1.0 / kappa
    imm = np.bincount(win.dims, weights=local.eta_imm, minlength=K) * inv
    pair = np.bincount(pr.kl, weights=local.eta_pair, minlength=K * K) * inv
    # design.T @ weights stacks the allocated sums of log(lag/T0) and
    # log(1 - lag/T0) over the occupancy counts, per component
    design = lag_design(pr.lag, pr.T0)
    common = design.T @ (local.eta_pair[:, None] * local.qc) * inv
    wi = local.eta_pair[:, None] * local.qi
    idio = np.zeros((3, K * K, h))
    for g, rows in pr.groups():
        idio[:, g] = design[rows].T @ wi[rows]
    idio *= inv
    return WindowStats(imm, pair.reshape(K, K), common[2], common[0], common[1],
                       idio[2], idio[0], idio[1])


def _blend(current: np.ndarray, target: np.ndarray, rho: float, label: str) -> np.ndarray:
    return _clamp_positive((1.0 - rho) * current + rho * target, label)


def update_mu(state: VariationalState, stats: WindowStats, rho: float) -> None:
    target = np.column_stack([state.hyper.e + stats.imm_counts,
                              np.full(state.K, state.hyper.f + state.T)])
    state.eta_mu = _blend(state.eta_mu, target, rho, "mu")


def update_alpha(state: VariationalState, stats: WindowStats, rho: float) -> None:
    target = np.empty_like(state.eta_alpha)
    target[..., 0] = state.hyper.g + stats.pair_counts
    target[..., 1] = state.hyper.h + state.n_parent[:, None]
    state.eta_alpha = _blend(state.eta_alpha, target, rho, "alpha")


def update_weights(state: VariationalState, stats: WindowStats, rho: float) -> None:
    if state.variant != "IDIO":
        target = state.hyper.gamma_dp / state.h0 + stats.n_common
        state.eta_p0 = _blend(state.eta_p0, target, rho, "p0")
    if state.variant != "COMMON":
        target = state.hyper.gamma_dp / state.h + stats.n_idio.reshape(state.K, state.K, state.h)
        state.eta_pkl = _blend(state.eta_pkl, target, rho, "p")


def update_eps(state: VariationalState, stats: WindowStats, rho: float) -> None:
    if state.variant != "RANDOM":
        return
    target = np.array([1.0 + stats.n_common.sum(), 1.0 + stats.n_idio.sum()])
    state.eta_eps = _blend(state.eta_eps, target, rho, "eps")


def _shape_targets(eta_a: np.ndarray, eta_b: np.ndarray, n: np.ndarray,
                   s_t: np.ndarray, s_m: np.ndarray, c_a: float, d_a: float,
                   c_b: float, d_b: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form surrogate targets for one block of (a, b) factors.

    Pseudo-counts weight each component's expected occupancy by the local
    sensitivity of the surrogate normalizer; the rate targets absorb the
    (nonpositive) allocated log-lag sums.
    """
    sa, ra = eta_a[..., 0], eta_a[..., 1]
    sb, rb = eta_b[..., 0], eta_b[..., 1]
    abar, bbar = sa / ra, sb / rb
    elog_a_m = special.digamma(sa) - np.log(sa)
    elog_b_m = special.digamma(sb) - np.log(sb)
    dig_s = special.digamma(abar + bbar)
    tri_s = special.polygamma(1, abar + bbar)
    coef_a = abar * (dig_s - special.digamma(abar)) + abar * bbar * tri_s * elog_b_m
    coef_b = bbar * (dig_s - special.digamma(bbar)) + abar * bbar * tri_s * elog_a_m
    ta = np.stack([c_a + coef_a * n, d_a - s_t], axis=-1)
    tb = np.stack([c_b + coef_b * n, d_b - s_m], axis=-1)
    return ta, tb


def update_shapes(state: VariationalState, stats: WindowStats, rho: float) -> None:
    """Surrogate-based closed-form updates of all active kernel shapes.

    Both targets of a component are computed from the pre-update state.
    """
    hyper = state.hyper
    if state.variant != "IDIO":
        ta, tb = _shape_targets(state.eta_a0, state.eta_b0, stats.n_common,
                                stats.s_common_t, stats.s_common_m,
                                hyper.ca_common, hyper.da_common,
                                hyper.cb_common, hyper.db_common)
        state.eta_a0 = _blend(state.eta_a0, ta, rho, "a0")
        state.eta_b0 = _blend(state.eta_b0, tb, rho, "b0")
    if state.variant != "COMMON":
        K, h = state.K, state.h
        akl = state.eta_akl.reshape(K * K, h, 2)
        bkl = state.eta_bkl.reshape(K * K, h, 2)
        ta, tb = _shape_targets(akl, bkl, stats.n_idio, stats.s_idio_t, stats.s_idio_m,
                                hyper.ca_idio, hyper.da_idio, hyper.cb_idio, hyper.db_idio)
        state.eta_akl = _blend(akl, ta, rho, "a").reshape(K, K, h, 2)
        state.eta_bkl = _blend(bkl, tb, rho, "b").reshape(K, K, h, 2)


def update_global(state: VariationalState, local: LocalState, rho: float, kappa: float) -> None:
    """All global blocks from one window's statistics."""
    stats = window_stats(local, state, kappa)
    update_mu(state, stats, rho)
    update_alpha(state, stats, rho)
    update_weights(state, stats, rho)
    update_eps(state, stats, rho)
    update_shapes(state, stats, rho)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _kl_gamma(s: np.ndarray, r: np.ndarray, s0: float, r0: float) -> np.ndarray:
    return ((s - s0) * special.digamma(s) - special.gammaln(s) + special.gammaln(s0)
            + s0 * (np.log(r) - np.log(r0)) + s * (r0 - r) / r)


def _kl_dirichlet(q: np.ndarray, p0: float) -> np.ndarray:
    """KL of Dirichlet(q) rows from the symmetric Dirichlet(p0, ..., p0)."""
    q = np.asarray(q, dtype=float)
    qsum = q.sum(axis=-1)
    n = q.shape[-1]
    return (special.gammaln(qsum) - special.gammaln(q).sum(axis=-1)
            - special.gammaln(n * p0) + n * special.gammaln(p0)
            + ((q - p0) * (special.digamma(q) - np.expand_dims(special.digamma(qsum), -1))).sum(axis=-1))


def elbo_value(state: VariationalState, local: LocalState) -> float:
    """Surrogate evidence bound at the current local and global parameters.

    Exact except that every expected log kernel normalizer is replaced by
    its Taylor surrogate; conjugate-block coordinate updates therefore
    increase this value monotonically.
    """
    pr, win = local.pairs, local.events
    hyper = state.hyper
    sc, si = _cell_scores(local, state)
    value = float(local.eta_imm @ state.elog_mu()[win.dims])
    if pr.m:
        pair_term = (state.elog_alpha().reshape(-1)[pr.kl]
                     + _evidence(local.qc, sc) + _evidence(local.qi, si))
        value += float(local.eta_pair @ pair_term)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent_imm = np.where(local.eta_imm > 0, local.eta_imm * np.log(local.eta_imm), 0.0)
        ent_pair = np.where(local.eta_pair > 0, local.eta_pair * np.log(local.eta_pair), 0.0)
    value -= float(ent_imm.sum() + ent_pair.sum())
    value -= state.T * float(np.sum(state.emu()))
    value -= float(np.sum(state.n_parent[:, None] * state.ealpha()))
    value -= float(np.sum(_kl_gamma(state.eta_mu[:, 0], state.eta_mu[:, 1], hyper.e, hyper.f)))
    value -= float(np.sum(_kl_gamma(state.eta_alpha[..., 0], state.eta_alpha[..., 1], hyper.g, hyper.h)))
    if state.variant != "IDIO":
        value -= float(_kl_dirichlet(state.eta_p0, hyper.gamma_dp / state.h0))
        value -= float(np.sum(_kl_gamma(state.eta_a0[:, 0], state.eta_a0[:, 1], hyper.ca_common, hyper.da_common)))
        value -= float(np.sum(_kl_gamma(state.eta_b0[:, 0], state.eta_b0[:, 1], hyper.cb_common, hyper.db_common)))
    if state.variant != "COMMON":
        value -= float(np.sum(_kl_dirichlet(state.eta_pkl, hyper.gamma_dp / state.h)))
        value -= float(np.sum(_kl_gamma(state.eta_akl[..., 0], state.eta_akl[..., 1], hyper.ca_idio, hyper.da_idio)))
        value -= float(np.sum(_kl_gamma(state.eta_bkl[..., 0], state.eta_bkl[..., 1], hyper.cb_idio, hyper.db_idio)))
    if state.variant == "RANDOM":
        value -= float(_kl_dirichlet(state.eta_eps, 1.0))
    return value


def elbo(state: VariationalState, seq: EventSequence) -> float:
    """Full-data surrogate bound after a fresh local evaluation pass."""
    local = make_local(seq, state.t0)
    update_local(local, state)
    return elbo_value(state, local)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_svi(cfg: SviConfig, seq: EventSequence) -> tuple[VariationalState, np.ndarray]:
    """Optimize on random windows; returns the state and an (iter, elbo) trace."""
    state = init_state(cfg, seq)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    trace: list[tuple[int, float]] = []
    for r in range(1, cfg.iterations + 1):
        window, _ = select_window(seq, cfg.kappa, rng)
        local = make_local(window, cfg.t0)
        update_local(local, state)
        update_global(state, local, learning_rate(r, cfg), cfg.kappa)
        if r % cfg.elbo_every == 0 and r < cfg.iterations:
            trace.append((r, elbo(state, seq)))
    trace.append((cfg.iterations, elbo(state, seq)))
    return state, np.asarray(trace, dtype=float)


def sample_from_variational(state: VariationalState, n_draws: int,
                            rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Independent draws of every global parameter from its factor."""
    K, h0, h = state.K, state.h0, state.h
    out = {
        "mu": rng.gamma(state.eta_mu[:, 0], 1.0 / state.eta_mu[:, 1], size=(n_draws, K)),
        "alpha": rng.gamma(state.eta_alpha[..., 0], 1.0 / state.eta_alpha[..., 1], size=(n_draws, K, K)),
        "p0": rng.dirichlet(state.eta_p0, size=n_draws) if n_draws else np.empty((0, h0)),
        "a0": rng.gamma(state.eta_a0[:, 0], 1.0 / state.eta_a0[:, 1], size=(n_draws, h0)),
        "b0": rng.gamma(state.eta_b0[:, 0], 1.0 / state.eta_b0[:, 1], size=(n_draws, h0)),
        "akl": rng.gamma(state.eta_akl[..., 0], 1.0 / state.eta_akl[..., 1], size=(n_draws, K, K, h)),
        "bkl": rng.gamma(state.eta_bkl[..., 0], 1.0 / state.eta_bkl[..., 1], size=(n_draws, K, K, h)),
    }
    pkl = np.empty((n_draws, K, K, h))
    for i in range(K):
        for j in range(K):
            pkl[:, i, j, :] = rng.dirichlet(state.eta_pkl[i, j], size=n_draws) if n_draws else 0.0
    out["pkl"] = pkl
    if state.variant == "RANDOM":
        out["eps"] = rng.beta(state.eta_eps[0], state.eta_eps[1], size=n_draws)
    else:
        out["eps"] = np.full(n_draws, 0.0 if state.variant == "IDIO" else 1.0)
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_state(state: VariationalState, path: str | Path) -> None:
    doc = {
        "K": state.K, "h0": state.h0, "h": state.h, "t0": state.t0,
        "variant": state.variant, "T": state.T,
        "n_parent": state.n_parent.tolist(),
        "eta_mu": state.eta_mu.tolist(),
        "eta_alpha": state.eta_alpha.tolist(),
        "eta_p0": state.eta_p0.tolist(),
        "eta_a0": state.eta_a0.tolist(),
        "eta_b0": state.eta_b0.tolist(),
        "eta_pkl": state.eta_pkl.tolist(),
        "eta_akl": state.eta_akl.tolist(),
        "eta_bkl": state.eta_bkl.tolist(),
        "eta_eps": None if state.eta_eps is None else state.eta_eps.tolist(),
        "hyper": vars(state.hyper),
    }
    with open(Path(path), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_state(path: str | Path) -> VariationalState:
    with open(Path(path)) as fh:
        doc = json.load(fh)
    return VariationalState(
        K=doc["K"], h0=doc["h0"], h=doc["h"], t0=doc["t0"], variant=doc["variant"],
        hyper=Hyperparams(**doc["hyper"]), T=doc["T"],
        n_parent=np.asarray(doc["n_parent"]),
        eta_mu=np.asarray(doc["eta_mu"]),
        eta_alpha=np.asarray(doc["eta_alpha"]),
        eta_p0=np.asarray(doc["eta_p0"]),
        eta_a0=np.asarray(doc["eta_a0"]),
        eta_b0=np.asarray(doc["eta_b0"]),
        eta_pkl=np.asarray(doc["eta_pkl"]),
        eta_akl=np.asarray(doc["eta_akl"]),
        eta_bkl=np.asarray(doc["eta_bkl"]),
        eta_eps=None if doc["eta_eps"] is None else np.asarray(doc["eta_eps"]),
    )


def save_trace(trace: np.ndarray, path: str | Path) -> None:
    with open(Path(path), "w") as fh:
        fh.write("iter,elbo\n")
        for it, val in trace:
            fh.write(f"{int(it)},{repr(float(val))}\n")
