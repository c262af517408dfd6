"""Metropolis-within-Gibbs sampler for the blended-mixture Hawkes posterior.

Sweep composition: branching structure, then pair allocations, then
background/interaction rates, then kernel shapes (random-walk proposals on
the log scale), then mixture weights and the blend weight. All categorical
draws are normalized in log space via max-subtraction.

Model variants: ``RANDOM`` learns the blend weight, ``IDIO`` pins it to 0
(independent kernels), ``COMMON`` pins it to 1 (one shared kernel).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .events import EventSequence
from .kernels import ExcitationModel, beta_log_coefs, lag_design
from .likelihood import LatentState, compensator_terms, log_likelihood, pair_density
from .params import HawkesParams, Hyperparams
from .pairs import PairData, build_pairs, group_rows, iter_groups, parent_softmax

VARIANTS = ("RANDOM", "IDIO", "COMMON")


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, model variant, truncations, and proposal settings."""

    iterations: int
    burn_in: int
    variant: str = "RANDOM"
    h0: int = 10
    h: int = 10
    t0: float = 1.0
    mh_step: float = 0.3
    adapt_mh: bool = True
    compensator: str = "approx"
    hyper: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.burn_in >= self.iterations:
            raise ValueError("need 0 <= burn_in < iterations")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.h0 < 1 or self.h < 1:
            raise ValueError("truncation levels must be at least 1")
        if self.mh_step <= 0:
            raise ValueError("mh_step must be positive")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.compensator not in ("exact", "approx"):
            raise ValueError("compensator must be 'exact' or 'approx'")


@dataclass
class PosteriorSamples:
    """Retained post-burn-in draws plus acceptance and likelihood traces."""

    config: McmcConfig
    mu: np.ndarray
    alpha: np.ndarray
    eps: np.ndarray
    p0: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    pkl: np.ndarray
    akl: np.ndarray
    bkl: np.ndarray
    loglik: np.ndarray
    accept_rates: dict[str, float]

    @property
    def n_draws(self) -> int:
        return int(self.loglik.size)

    def mean_loglik(self) -> float:
        return float(np.mean(self.loglik))

    def kernel_draws(self) -> dict[str, np.ndarray]:
        """Arrays needed to evaluate excitation curves per retained draw."""
        return {"eps": self.eps, "p0": self.p0, "a0": self.a0, "b0": self.b0,
                "pkl": self.pkl, "akl": self.akl, "bkl": self.bkl}


def select_best_restart(runs: list[PosteriorSamples]) -> int:
    """Index of the run with the highest mean retained log-likelihood.

    Ties resolve to the lowest index.
    """
    if not runs:
        raise ValueError("need at least one run")
    return int(np.argmax([run.mean_loglik() for run in runs]))


# ---------------------------------------------------------------------------
# Full-conditional parameter computations (pure; used by the sampler and as
# direct oracles in tests)
# ---------------------------------------------------------------------------

def mu_full_conditional(hyper: Hyperparams, imm_counts: np.ndarray, T: float) -> tuple[np.ndarray, float]:
    """Gamma(shape, rate) of each background rate given the branching."""
    return hyper.e + np.asarray(imm_counts, dtype=float), hyper.f + T


def alpha_full_conditional(hyper: Hyperparams, off_counts: np.ndarray, comp_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(shape, rate) of each interaction strength given the branching.

    ``comp_terms[p, c]`` is the parent-dimension event count in approx mode
    or the summed kernel integrals over remaining horizons in exact mode.
    """
    return hyper.g + np.asarray(off_counts, dtype=float), hyper.h + np.asarray(comp_terms, dtype=float)


def weight_full_conditionals(hyper: Hyperparams, n0: np.ndarray, nkl: np.ndarray,
                             h0: int, h: int) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Dirichlet vectors for all weight blocks and the blend-weight Beta."""
    dir0 = hyper.gamma_dp / h0 + np.asarray(n0, dtype=float)
    dirkl = hyper.gamma_dp / h + np.asarray(nkl, dtype=float)
    eps_beta = (1.0 + float(np.sum(n0)), 1.0 + float(np.sum(nkl)))
    return dir0, dirkl, eps_beta


def branching_distribution(mu: np.ndarray, alpha: np.ndarray, model: ExcitationModel,
                           seq: EventSequence, j: int) -> np.ndarray:
    """Parent distribution of event j: immigrant first, then candidates.

    Slow reference path used for oracle checks; the sampler uses the
    vectorized equivalent.
    """
    from .pairs import candidate_parents

    cands = candidate_parents(seq, j, model.T0)
    weights = np.empty(1 + cands.size)
    weights[0] = mu[seq.dims[j]]
    for pos, i in enumerate(cands):
        p, c = int(seq.dims[i]), int(seq.dims[j])
        weights[1 + pos] = alpha[p, c] * model.density(p, c, seq.times[j] - seq.times[i])
    return weights / weights.sum()


def allocation_distribution(eps: float, p0: np.ndarray, a0: np.ndarray, b0: np.ndarray,
                            pk: np.ndarray, ak: np.ndarray, bk: np.ndarray,
                            lag: float, T0: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint (blend side, component) probabilities for one assigned pair.

    Returns the common-side and idiosyncratic-side cell probabilities; the
    two blocks sum to one jointly.
    """
    design = lag_design(np.array([lag]), T0)
    logc = np.log(eps) + np.log(p0) + (design @ beta_log_coefs(a0, b0, T0))[0] if eps > 0 else np.full(p0.size, -np.inf)
    logi = np.log1p(-eps) + np.log(pk) + (design @ beta_log_coefs(ak, bk, T0))[0] if eps < 1 else np.full(pk.size, -np.inf)
    top = max(logc.max(), logi.max())
    wc, wi = np.exp(logc - top), np.exp(logi - top)
    total = wc.sum() + wi.sum()
    return wc / total, wi / total


def shape_log_target(x, other, n_alloc, lag_log_sum, c_prior: float, d_prior: float):
    """Unnormalized log full conditional of one kernel shape parameter.

    For the first shape, ``other`` is the second shape and ``lag_log_sum``
    the allocated sum of ``log(lag/T0)``; for the second shape the roles
    swap, with the sum of ``log(1 - lag/T0)``.
    """
    x = np.asarray(x, dtype=float)
    return (n_alloc * (special.gammaln(x + other) - special.gammaln(x))
            + (x - 1.0) * lag_log_sum + (c_prior - 1.0) * np.log(x) - d_prior * x)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

class McmcSampler:
    """One chain's mutable state with vectorized per-block updates.

    Initialization: background rates start at half the empirical rates,
    interactions at ``0.5/K``, blend weight at 0.5 (or its pinned variant
    value), shapes are drawn from their priors, and every event starts as an
    immigrant.
    """

    def __init__(self, config: McmcConfig, seq: EventSequence):
        self.cfg = config
        self.seq = seq
        self.pairs: PairData = build_pairs(seq, config.t0)
        self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
        K, h0, h = seq.K, config.h0, config.h
        hyper = config.hyper
        self.mu = seq.counts() / (2.0 * seq.T)
        self.alpha = np.full((K, K), 0.5 / K)
        if config.variant == "IDIO":
            self.eps = 0.0
        elif config.variant == "COMMON":
            self.eps = 1.0
        else:
            self.eps = 0.5
        self.p0 = np.full(h0, 1.0 / h0)
        self.a0 = self.rng.gamma(hyper.ca_common, 1.0 / hyper.da_common, size=h0)
        self.b0 = self.rng.gamma(hyper.cb_common, 1.0 / hyper.db_common, size=h0)
        self.pkl = np.full((K * K, h), 1.0 / h)
        self.akl = self.rng.gamma(hyper.ca_idio, 1.0 / hyper.da_idio, size=(K * K, h))
        self.bkl = self.rng.gamma(hyper.cb_idio, 1.0 / hyper.db_idio, size=(K * K, h))
        n = seq.n
        self.parent = np.full(n, -1, dtype=np.int64)
        self.pair_row = np.full(n, -1, dtype=np.int64)
        self.w = np.full(n, -1, dtype=np.int64)
        self.z = np.full(n, -1, dtype=np.int64)
        self.mh_step = config.mh_step
        self.mh_accepted = 0
        self.mh_attempted = 0
        self._win_accepted = 0
        self._win_attempted = 0

    # -- block updates ----------------------------------------------------

    def sample_branching(self) -> None:
        """Draw each event's parent from its categorical full conditional.

        The blend-side indicators are marginalized out here (the mixture
        density appears in the weights); the subsequent allocation draw
        conditions on the new parents, so the two blocks form one joint
        update.
        """
        pr, n = self.pairs, self.seq.n
        if pr.m == 0:
            self.parent.fill(-1)
            self.pair_row.fill(-1)
            return
        with np.errstate(divide="ignore"):
            imm_score = np.log(self.mu[self.seq.dims])
            scores = (np.log(self.alpha.reshape(-1)[pr.kl])
                      + np.log(pair_density(self._excitation_model(), pr)))
        w, imm_w, tot = parent_softmax(scores, imm_score, pr)
        u = self.rng.random(n) * tot
        cum = np.concatenate([[0.0], np.cumsum(w)])
        starts = pr.child_start[:-1]
        ends = pr.child_start[1:]
        take_pair = u >= imm_w
        target = cum[starts] + (u - imm_w)
        rows = np.searchsorted(cum, target, side="right") - 1
        rows = np.clip(rows, starts, np.maximum(starts, ends - 1))
        self.parent = np.where(take_pair, pr.parent[np.clip(rows, 0, max(pr.m - 1, 0))], -1)
        self.pair_row = np.where(take_pair, np.clip(rows, 0, max(pr.m - 1, 0)), -1)

    def sample_allocations(self) -> None:
        """Draw the joint (blend side, component) cell for each assigned pair."""
        assigned = np.flatnonzero(self.parent >= 0)
        self.w.fill(-1)
        self.z.fill(-1)
        if assigned.size == 0:
            return
        rows = self.pair_row[assigned]
        h0, K, t0 = self.cfg.h0, self.seq.K, self.cfg.t0
        design = lag_design(self.pairs.lag[rows], t0)
        scores = np.full((assigned.size, h0 + self.cfg.h), -np.inf)
        with np.errstate(divide="ignore"):
            if self.eps > 0.0:
                scores[:, :h0] = (np.log(self.eps) + np.log(self.p0)
                                  + design @ beta_log_coefs(self.a0, self.b0, t0))
            if self.eps < 1.0:
                log_w = np.log1p(-self.eps) + np.log(self.pkl)
                coefs = beta_log_coefs(self.akl, self.bkl, t0)
                for g, sel in iter_groups(*group_rows(self.pairs.kl[rows], K * K)):
                    scores[sel, h0:] = log_w[g] + design[sel] @ coefs[:, g]
        top = scores.max(axis=1, keepdims=True)
        weights = np.exp(scores - top)
        cum = np.cumsum(weights, axis=1)
        u = self.rng.random(assigned.size) * cum[:, -1]
        cell = (cum < u[:, None]).sum(axis=1)
        self.w[assigned] = (cell >= h0).astype(np.int64)
        self.z[assigned] = np.where(cell >= h0, cell - h0, cell)

    def sample_rates(self) -> None:
        """Conjugate Gamma draws for background and interaction rates."""
        seq, K = self.seq, self.seq.K
        imm = self.parent < 0
        imm_counts = np.bincount(seq.dims[imm], minlength=K)
        shape, rate = mu_full_conditional(self.cfg.hyper, imm_counts, seq.T)
        self.mu = self.rng.gamma(shape, 1.0 / rate)
        assigned = np.flatnonzero(self.parent >= 0)
        kl = self.pairs.kl[self.pair_row[assigned]]
        off = np.bincount(kl, minlength=K * K).reshape(K, K)
        model = self._excitation_model() if self.cfg.compensator == "exact" else None
        comp = compensator_terms(seq, model, self.cfg.compensator)
        shape_a, rate_a = alpha_full_conditional(self.cfg.hyper, off, comp)
        self.alpha = self.rng.gamma(shape_a, 1.0 / rate_a)

    def _allocation_stats(self):
        """Occupancy counts and allocated log-lag sums per component."""
        pr = self.pairs
        h0, h, K = self.cfg.h0, self.cfg.h, self.seq.K
        assigned = np.flatnonzero(self.parent >= 0)
        rows = self.pair_row[assigned]
        wa, za = self.w[assigned], self.z[assigned]
        cm = wa == 0
        n0 = np.bincount(za[cm], minlength=h0).astype(float)
        s0t = np.bincount(za[cm], weights=pr.log_lag_frac[rows[cm]], minlength=h0)
        s0m = np.bincount(za[cm], weights=pr.log1m_lag_frac[rows[cm]], minlength=h0)
        im = wa == 1
        idx = pr.kl[rows[im]] * h + za[im]
        nkl = np.bincount(idx, minlength=K * K * h).astype(float).reshape(K * K, h)
        skt = np.bincount(idx, weights=pr.log_lag_frac[rows[im]], minlength=K * K * h).reshape(K * K, h)
        skm = np.bincount(idx, weights=pr.log1m_lag_frac[rows[im]], minlength=K * K * h).reshape(K * K, h)
        return n0, s0t, s0m, nkl, skt, skm

    def _mh_pair_update(self, a, b, n, st, sm, ca, da, cb, db):
        """Log-scale random-walk updates of (a, b) for a block of components.

        The proposal is symmetric in log space, so the acceptance ratio
        carries the proposed/current value as a Jacobian factor.
        """
        rng = self.rng
        prop = a * np.exp(self.mh_step * rng.standard_normal(a.shape))
        delta = (shape_log_target(prop, b, n, st, ca, da)
                 - shape_log_target(a, b, n, st, ca, da)
                 + np.log(prop) - np.log(a))
        acc = np.log(rng.random(a.shape)) < delta
        a = np.where(acc, prop, a)
        n_acc = int(acc.sum())
        prop = b * np.exp(self.mh_step * rng.standard_normal(b.shape))
        delta = (shape_log_target(prop, a, n, sm, cb, db)
                 - shape_log_target(b, a, n, sm, cb, db)
                 + np.log(prop) - np.log(b))
        acc = np.log(rng.random(b.shape)) < delta
        b = np.where(acc, prop, b)
        n_acc += int(acc.sum())
        return a, b, n_acc, 2 * a.size

    def sample_shapes(self) -> None:
        """Metropolis updates of every active kernel shape parameter."""
        hyper = self.cfg.hyper
        n0, s0t, s0m, nkl, skt, skm = self._allocation_stats()
        acc = att = 0
        if self.cfg.variant != "IDIO":
            self.a0, self.b0, a, t = self._mh_pair_update(
                self.a0, self.b0, n0, s0t, s0m,
                hyper.ca_common, hyper.da_common, hyper.cb_common, hyper.db_common)
            acc += a
            att += t
        if self.cfg.variant != "COMMON":
            self.akl, self.bkl, a, t = self._mh_pair_update(
                self.akl, self.bkl, nkl, skt, skm,
                hyper.ca_idio, hyper.da_idio, hyper.cb_idio, hyper.db_idio)
            acc += a
            att += t
        self.mh_accepted += acc
        self.mh_attempted += att
        self._win_accepted += acc
        self._win_attempted += att

    def sample_weights(self) -> None:
        """Conjugate Dirichlet/Beta draws for mixture and blend weights."""
        h0, h = self.cfg.h0, self.cfg.h
        n0, _, _, nkl, _, _ = self._allocation_stats()
        dir0, dirkl, eps_beta = weight_full_conditionals(self.cfg.hyper, n0, nkl, h0, h)
        if self.cfg.variant != "IDIO":
            self.p0 = self._dirichlet(dir0)
        if self.cfg.variant != "COMMON":
            g = self.rng.gamma(dirkl)
            tot = g.sum(axis=1, keepdims=True)
            bad = tot[:, 0] <= 0
            if np.any(bad):
                g[bad] = 1.0
                tot = g.sum(axis=1, keepdims=True)
            self.pkl = g / tot
        if self.cfg.variant == "RANDOM":
            self.eps = float(self.rng.beta(*eps_beta))

    def _dirichlet(self, conc: np.ndarray) -> np.ndarray:
        g = self.rng.gamma(conc)
        if g.sum() <= 0:
            g = np.ones_like(g)
        return g / g.sum()

    def sweep(self) -> None:
        self.sample_branching()
        self.sample_allocations()
        self.sample_rates()
        self.sample_shapes()
        self.sample_weights()

    def adapt_step(self, target: float = 0.35, gain: float = 0.5) -> None:
        """Robbins-Monro tweak of the proposal scale toward a target rate."""
        if self._win_attempted:
            rate = self._win_accepted / self._win_attempted
            self.mh_step = float(np.clip(self.mh_step * np.exp(gain * (rate - target)), 0.01, 5.0))
        self._win_accepted = 0
        self._win_attempted = 0

    # -- observables ------------------------------------------------------

    def _excitation_model(self) -> ExcitationModel:
        K = self.seq.K
        return ExcitationModel.from_arrays(
            self.eps, self.p0, self.a0, self.b0,
            self.pkl.reshape(K, K, -1), self.akl.reshape(K, K, -1), self.bkl.reshape(K, K, -1),
            self.cfg.t0)

    def latent_state(self) -> LatentState:
        return LatentState(self.parent.copy(), self.w.copy(), self.z.copy())

    def observed_loglik(self) -> float:
        """Observed-data log-likelihood under the configured compensator."""
        params = HawkesParams(self.mu, self.alpha, self._excitation_model())
        return log_likelihood(params, self.seq, self.cfg.compensator, self.pairs)


def run_chain(config: McmcConfig, seq: EventSequence) -> PosteriorSamples:
    """Run one chain and retain every post-burn-in draw."""
    sampler = McmcSampler(config, seq)
    K, h0, h = seq.K, config.h0, config.h
    S = config.iterations - config.burn_in
    out = PosteriorSamples(
        config=config,
        mu=np.empty((S, K)),
        alpha=np.empty((S, K, K)),
        eps=np.empty(S),
        p0=np.empty((S, h0)),
        a0=np.empty((S, h0)),
        b0=np.empty((S, h0)),
        pkl=np.empty((S, K, K, h)),
        akl=np.empty((S, K, K, h)),
        bkl=np.empty((S, K, K, h)),
        loglik=np.empty(S),
        accept_rates={},
    )
    for it in range(config.iterations):
        sampler.sweep()
        if config.adapt_mh and it < config.burn_in and (it + 1) % 50 == 0:
            sampler.adapt_step()
        if it >= config.burn_in:
            s = it - config.burn_in
            out.mu[s] = sampler.mu
            out.alpha[s] = sampler.alpha
            out.eps[s] = sampler.eps
            out.p0[s] = sampler.p0
            out.a0[s] = sampler.a0
            out.b0[s] = sampler.b0
            out.pkl[s] = sampler.pkl.reshape(K, K, h)
            out.akl[s] = sampler.akl.reshape(K, K, h)
            out.bkl[s] = sampler.bkl.reshape(K, K, h)
            out.loglik[s] = sampler.observed_loglik()
    out.accept_rates = {
        "shapes": sampler.mh_accepted / max(sampler.mh_attempted, 1),
        "final_mh_step": sampler.mh_step,
    }
    return out


# ---------------------------------------------------------------------------
# Persistence: flattened-draw CSV plus a JSON run manifest
# ---------------------------------------------------------------------------

def _sample_columns(K: int, h0: int, h: int) -> list[str]:
    cols = ["loglik"]
    cols += [f"mu.{k + 1}" for k in range(K)]
    cols += [f"alpha.{p + 1}.{c + 1}" for p in range(K) for c in range(K)]
    cols.append("eps")
    for name in ("p0", "a0", "b0"):
        cols += [f"{name}.{i + 1}" for i in range(h0)]
    for name in ("p", "a", "b"):
        cols += [f"{name}.{p + 1}.{c + 1}.{i + 1}" for p in range(K) for c in range(K) for i in range(h)]
    return cols


def save_samples(samples: PosteriorSamples, csv_path: str | Path) -> None:
    """One row per retained draw with flattened parameter names."""
    S = samples.n_draws
    K = samples.mu.shape[1]
    h0 = samples.p0.shape[1]
    h = samples.pkl.shape[3]
    mat = np.column_stack([
        samples.loglik,
        samples.mu,
        samples.alpha.reshape(S, -1),
        samples.eps,
        samples.p0, samples.a0, samples.b0,
        samples.pkl.reshape(S, -1), samples.akl.reshape(S, -1), samples.bkl.reshape(S, -1),
    ])
    with open(Path(csv_path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_sample_columns(K, h0, h))
        for row in mat:
            writer.writerow([repr(float(v)) for v in row])


def load_samples(csv_path: str | Path, config: McmcConfig, K: int | None = None) -> PosteriorSamples:
    with open(Path(csv_path), newline="") as fh:
        names = next(csv.reader(fh))
        mat = np.loadtxt(fh, delimiter=",", ndmin=2)
    if K is None:
        K = sum(1 for n in names if n.startswith("mu."))
    h0 = sum(1 for n in names if n.startswith("p0."))
    h = sum(1 for n in names if n.startswith("p.") and n.count(".") == 3) // (K * K)
    S = mat.shape[0]
    i = 0
    loglik = mat[:, i]; i += 1
    mu = mat[:, i:i + K]; i += K
    alpha = mat[:, i:i + K * K].reshape(S, K, K); i += K * K
    eps = mat[:, i]; i += 1
    p0 = mat[:, i:i + h0]; i += h0
    a0 = mat[:, i:i + h0]; i += h0
    b0 = mat[:, i:i + h0]; i += h0
    pkl = mat[:, i:i + K * K * h].reshape(S, K, K, h); i += K * K * h
    akl = mat[:, i:i + K * K * h].reshape(S, K, K, h); i += K * K * h
    bkl = mat[:, i:i + K * K * h].reshape(S, K, K, h); i += K * K * h
    return PosteriorSamples(config=config, mu=mu, alpha=alpha, eps=eps, p0=p0, a0=a0, b0=b0,
                            pkl=pkl, akl=akl, bkl=bkl, loglik=loglik, accept_rates={})
