"""Stochastic mean-field variational inference for the blended-mixture model.

The variational family mirrors the priors: Gamma factors for rates and
kernel shapes, Dirichlet factors for mixture weights, a Beta factor for the
blend weight, one categorical per event over its admissible parents, and
one joint categorical per admissible pair over (blend side, component).

Both engines share their allocation and conjugate math: the allocation
tables are :func:`~hawkesmix.kernels.cell_log_scores`, the sampler's
cell-major score table, fed expected values, and the rate, weight and blend
targets are the sampler's full conditionals at expected counts.

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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .events import EventSequence
from .files import write_json, write_table
from .kernels import cell_log_scores
from .params import Hyperparams
from .pairs import PairData, build_pairs, parent_softmax
from .mcmc import VARIANTS, alpha_full_conditional, mu_full_conditional, weight_full_conditionals

logger = logging.getLogger(__name__)

_POSITIVE_FLOOR = 1e-10


@dataclass(frozen=True)
class SviConfig:
    """Subsampling ratio, learning-rate schedule, truncations, and variant."""

    iterations: int = 2000
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
    hyper: Hyperparams

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


@dataclass
class LocalState:
    """Window events, their pair structure, and local categorical tables.

    The allocation tables ``qc``/``qi`` are None until the first
    :func:`update_allocations`.
    """

    events: EventSequence
    pairs: PairData
    eta_imm: np.ndarray
    eta_pair: np.ndarray
    qc: np.ndarray | None = None
    qi: np.ndarray | None = None


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
    """Pair structure for a window; parent tables start uninformative."""
    pairs = build_pairs(window, t0)
    return LocalState(events=window, pairs=pairs, eta_imm=np.ones(window.n), eta_pair=np.zeros(pairs.m))


# ---------------------------------------------------------------------------
# Local updates
# ---------------------------------------------------------------------------

def _surrogate_coefs(eta_a: np.ndarray, eta_b: np.ndarray, t0: float) -> np.ndarray:
    """Rows ``[abar - 1; bbar - 1; surrogate - log t0]`` of Gamma shape factors."""
    sa, ra, sb, rb = eta_a[..., 0], eta_a[..., 1], eta_b[..., 0], eta_b[..., 1]
    return np.stack([sa / ra - 1.0, sb / rb - 1.0, _taylor_bound(sa, ra, sb, rb) - np.log(t0)])


def _cell_scores(local: LocalState, state: VariationalState) -> np.ndarray:
    """Cell-major allocation scores, (h0 + h, m), at expected values.

    :func:`cell_log_scores` fed E[log side weight], E[log component weight]
    and rows ``[abar - 1; bbar - 1; surrogate - log t0]``, whose constant is
    the Taylor surrogate of the expected log normalizer.
    """
    pr = local.pairs
    le, l1e = state.elog_eps_pair()
    idio = _surrogate_coefs(state.eta_akl, state.eta_bkl, state.t0).reshape(3, state.K * state.K, state.h)
    return cell_log_scores(pr.log_lag_frac, pr.log1m_lag_frac, pr.kl,
                           (le, _surrogate_coefs(state.eta_a0, state.eta_b0, state.t0), state.elog_p0()),
                           (l1e, idio, state.elog_pkl().reshape(state.K * state.K, state.h)))


def _evidence(q: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Column sums of q * (score - log q), cell-major, with zero cells contributing zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = q * (scores - np.log(q))
    return np.where(q > 0, terms, 0.0).sum(axis=0)


def _allocation_evidence(local: LocalState, state: VariationalState) -> np.ndarray:
    """Each pair's expected cell score plus allocation entropy under its current table."""
    if local.qc is None:
        raise ValueError("no allocation tables yet: run update_allocations first")
    scores = _cell_scores(local, state)
    return _evidence(local.qc.T, scores[:state.h0]) + _evidence(local.qi.T, scores[state.h0:])


def update_allocations(local: LocalState, state: VariationalState) -> np.ndarray:
    """Exact coordinate update of every pair's joint allocation table.

    Returns each pair's log normalizer, its allocation evidence at the new table.
    """
    scores = _cell_scores(local, state)
    top = scores.max(axis=0)
    q = np.exp(scores - top)
    tot = q.sum(axis=0)
    q /= tot
    local.qc, local.qi = q[:state.h0].T, q[state.h0:].T
    return top + np.log(tot)


def update_branching(local: LocalState, state: VariationalState,
                     evidence: np.ndarray | None = None) -> None:
    """Exact coordinate update of every event's parent distribution.

    A candidate parent's score is its expected log interaction rate plus
    the pair's allocation evidence (expected cell score plus allocation
    entropy), computed here unless given; the immigrant score is the
    expected log background rate.
    """
    pr, win = local.pairs, local.events
    if evidence is None:
        evidence = _allocation_evidence(local, state)
    pair_score = state.elog_alpha().reshape(-1)[pr.kl] + evidence
    w, imm_w, tot = parent_softmax(pair_score, state.elog_mu()[win.dims], pr)
    local.eta_imm = imm_w / tot
    local.eta_pair = w / tot[pr.child]


def update_local(local: LocalState, state: VariationalState) -> None:
    """Allocation tables, then parent distributions fed the tables' log normalizers."""
    update_branching(local, state, update_allocations(local, state))


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
    K = state.K
    inv = 1.0 / kappa
    imm = np.bincount(win.dims, weights=local.eta_imm, minlength=K) * inv
    pair = np.bincount(pr.kl, weights=local.eta_pair, minlength=K * K) * inv
    # design.T @ weights stacks the allocated sums of log(lag/T0) and
    # log(1 - lag/T0) over the occupancy counts, per component; in kl_order
    # every group's design is one contiguous slice
    order, design, start = pr.kl_order, pr.kl_design, pr.kl_start
    w = local.eta_pair[order]
    wc, wi = local.qc.T[:, order] * w, local.qi.T[:, order] * w
    common = design.T @ wc.T * inv
    idio = np.stack([design[sl].T @ wi[:, sl].T for sl in map(slice, start[:-1], start[1:])], axis=1) * inv
    return WindowStats(imm, pair.reshape(K, K), common[2], common[0], common[1],
                       idio[2], idio[0], idio[1])


def _blend(current: np.ndarray, target: np.ndarray, rho: float, label: str) -> np.ndarray:
    return _clamp_positive((1.0 - rho) * current + rho * target, label)


def update_mu(state: VariationalState, stats: WindowStats, rho: float) -> None:
    shape, rate = mu_full_conditional(state.hyper, stats.imm_counts, state.T)
    state.eta_mu = _blend(state.eta_mu, np.column_stack([shape, np.full(state.K, rate)]), rho, "mu")


def update_alpha(state: VariationalState, stats: WindowStats, rho: float) -> None:
    shape, rate = alpha_full_conditional(state.hyper, stats.pair_counts, state.n_parent[:, None])
    state.eta_alpha = _blend(state.eta_alpha, np.stack(np.broadcast_arrays(shape, rate), axis=-1), rho, "alpha")


def update_weights(state: VariationalState, stats: WindowStats, rho: float) -> None:
    dir0, dirkl, _ = weight_full_conditionals(state.hyper, stats.n_common, stats.n_idio, state.h0, state.h)
    if state.variant != "IDIO":
        state.eta_p0 = _blend(state.eta_p0, dir0, rho, "p0")
    if state.variant != "COMMON":
        state.eta_pkl = _blend(state.eta_pkl, dirkl.reshape(state.eta_pkl.shape), rho, "p")


def update_eps(state: VariationalState, stats: WindowStats, rho: float) -> None:
    if state.variant != "RANDOM":
        return
    _, _, eps_beta = weight_full_conditionals(state.hyper, stats.n_common, stats.n_idio, state.h0, state.h)
    state.eta_eps = _blend(state.eta_eps, np.array(eps_beta), rho, "eps")


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


def elbo_value(state: VariationalState, local: LocalState,
               evidence: np.ndarray | None = None) -> float:
    """Surrogate evidence bound at the current local and global parameters.

    Exact except that every expected log kernel normalizer is replaced by
    its Taylor surrogate; conjugate-block coordinate updates therefore
    increase this value monotonically. ``evidence`` is each pair's
    allocation evidence, computed here unless given.
    """
    pr, win = local.pairs, local.events
    hyper = state.hyper
    if evidence is None:
        evidence = _allocation_evidence(local, state)
    value = float(local.eta_imm @ state.elog_mu()[win.dims])
    pair_term = state.elog_alpha().reshape(-1)[pr.kl] + evidence
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


def elbo(state: VariationalState, seq: EventSequence, local: LocalState | None = None) -> float:
    """Full-data surrogate bound after a fresh local evaluation pass.

    ``local`` is a reusable :func:`make_local` of ``seq``; its tables are
    overwritten. Without it the pair structure is built here.
    """
    if local is None:
        local = make_local(seq, state.t0)
    evidence = update_allocations(local, state)
    update_branching(local, state, evidence)
    return elbo_value(state, local, evidence)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_svi(cfg: SviConfig, seq: EventSequence) -> tuple[VariationalState, np.ndarray]:
    """Optimize on random windows; returns the state and an (iter, elbo) trace."""
    state = init_state(cfg, seq)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    trace: list[tuple[int, float]] = []
    full = make_local(seq, cfg.t0)
    for r in range(1, cfg.iterations + 1):
        window, _ = select_window(seq, cfg.kappa, rng)
        local = make_local(window, cfg.t0)
        update_local(local, state)
        update_global(state, local, learning_rate(r, cfg), cfg.kappa)
        if r % cfg.elbo_every == 0 and r < cfg.iterations:
            trace.append((r, elbo(state, seq, full)))
    trace.append((cfg.iterations, elbo(state, seq, full)))
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
    """Every field under its own name: arrays as nested lists, ``hyper`` as a dict."""
    write_json(path, {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(state).items()})


def load_state(path: str | Path) -> VariationalState:
    doc = json.loads(Path(path).read_text())
    doc["hyper"] = Hyperparams(**doc["hyper"])
    return VariationalState(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in doc.items()})


def save_trace(trace: np.ndarray, path: str | Path) -> None:
    write_table(path, ["iter", "elbo"], [trace[:, 0].astype(np.int64), trace[:, 1]])
