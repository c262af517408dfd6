"""Metropolis-within-Gibbs sampler for the blended-mixture Hawkes posterior.

Sweep composition: branching structure, then pair allocations, then
background/interaction rates, then kernel shapes (random-walk proposals on
the log scale), then mixture weights and the blend weight. All categorical
draws are normalized in log space via max-subtraction.

One density pass per sweep: φ, the excitation density at every pair lag,
is passed from the retained draw (where it gives the log-likelihood) to
the next branching step; nothing changes the draw in between.

Model variants: ``RANDOM`` learns the blend weight, ``IDIO`` pins it to 0
(independent kernels), ``COMMON`` pins it to 1 (one shared kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .events import EventSequence
from .files import read_table, write_table
from .kernels import ExcitationModel, beta_log_coefs, cell_log_scores, lag_design
from .likelihood import LatentState, compensator_terms, log_likelihood, mixture_pair_density
from .params import HawkesParams, Hyperparams
from .pairs import PairData, build_pairs, parent_softmax

VARIANTS = ("RANDOM", "IDIO", "COMMON")
# shape-proposal acceptance rate that adapt_step steers toward, and its gain
ADAPT_TARGET = 0.35
ADAPT_GAIN = 0.5


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, model variant, truncations, and proposal settings."""

    iterations: int = 4000
    burn_in: int | None = None  # half the iterations when unset
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
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.iterations // 2)
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

    def sample_branching(self, phi: np.ndarray | None = None) -> None:
        """Draw each event's parent from its categorical full conditional.

        The blend-side indicators are marginalized out here (the mixture
        density appears in the weights); the subsequent allocation draw
        conditions on the new parents, so the two blocks form one joint
        update. ``phi`` is :meth:`pair_excitation`, if already computed.
        """
        pr, n = self.pairs, self.seq.n
        if pr.m == 0:
            self.parent.fill(-1)
            self.pair_row.fill(-1)
            return
        if phi is None:
            phi = self.pair_excitation()
        with np.errstate(divide="ignore"):
            imm_score = np.log(self.mu[self.seq.dims])
            scores = np.log(self.alpha).reshape(-1)[pr.kl] + np.log(phi)
        w, imm_w, tot = parent_softmax(scores, imm_score, pr)
        u = self.rng.random(n) * tot
        cum = np.concatenate([[0.0], np.cumsum(w)])
        starts = pr.child_start[:-1]
        take_pair = u >= imm_w
        target = cum[starts] + (u - imm_w)
        # a child's row is past each of its own pairs whose running weight is at most
        # its target; the cap holds rounding inside the child's segment
        below = np.bincount(pr.child, weights=cum[1:] <= target[pr.child], minlength=n)
        rows = np.minimum(starts + below.astype(np.int64), pr.child_start[1:] - 1)
        self.parent = np.where(take_pair, pr.parent[rows], -1)
        self.pair_row = np.where(take_pair, rows, -1)

    def sample_allocations(self) -> None:
        """Draw the joint (blend side, component) cell for each assigned pair.

        Scores are cell-major, (h0 + h, assigned): every step runs along pairs.
        """
        assigned = np.flatnonzero(self.parent >= 0)
        self.w.fill(-1)
        self.z.fill(-1)
        if assigned.size == 0:
            return
        pr, rows = self.pairs, self.pair_row[assigned]
        h0, t0 = self.cfg.h0, self.cfg.t0
        with np.errstate(divide="ignore"):
            scores = cell_log_scores(
                pr.log_lag_frac[rows], pr.log1m_lag_frac[rows], pr.kl[rows],
                (np.log(self.eps), beta_log_coefs(self.a0, self.b0, t0), np.log(self.p0)),
                (np.log1p(-self.eps), beta_log_coefs(self.akl, self.bkl, t0), np.log(self.pkl)))
        scores -= scores.max(axis=0)
        cum = np.exp(scores, out=scores)
        for i in range(1, cum.shape[0]):  # running sum down the cells, one vector op per cell
            cum[i] += cum[i - 1]
        u = self.rng.random(assigned.size) * cum[-1]
        cell = (cum < u).sum(axis=0)
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
        comp = compensator_terms(seq, self._exact_model(), self.cfg.compensator)
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
        a, acc_a = self._mh_shape(a, b, n, st, ca, da)
        b, acc_b = self._mh_shape(b, a, n, sm, cb, db)
        return a, b, acc_a + acc_b, 2 * a.size

    def _mh_shape(self, x, other, n, lag_log_sum, c, d):
        """One shape's half of :meth:`_mh_pair_update`; returns (values, accepted count)."""
        prop = x * np.exp(self.mh_step * self.rng.standard_normal(x.shape))
        delta = (shape_log_target(prop, other, n, lag_log_sum, c, d)
                 - shape_log_target(x, other, n, lag_log_sum, c, d)
                 + np.log(prop) - np.log(x))
        acc = np.log(self.rng.random(x.shape)) < delta
        return np.where(acc, prop, x), int(acc.sum())

    def sample_shapes(self, stats=None) -> None:
        """Metropolis updates of every active kernel shape; ``stats`` is :meth:`_allocation_stats`, if computed."""
        hyper = self.cfg.hyper
        n0, s0t, s0m, nkl, skt, skm = self._allocation_stats() if stats is None else stats
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

    def sample_weights(self, stats=None) -> None:
        """Conjugate Dirichlet/Beta draws for mixture and blend weights; ``stats`` as in :meth:`sample_shapes`."""
        h0, h = self.cfg.h0, self.cfg.h
        n0, _, _, nkl, _, _ = self._allocation_stats() if stats is None else stats
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

    def sweep(self, phi: np.ndarray | None = None) -> None:
        """One full update; shapes and weights share one :meth:`_allocation_stats`."""
        self.sample_branching(phi)
        self.sample_allocations()
        self.sample_rates()
        stats = self._allocation_stats()
        self.sample_shapes(stats)
        self.sample_weights(stats)

    def adapt_step(self) -> None:
        """Robbins-Monro tweak of the proposal scale toward the target acceptance rate."""
        if self._win_attempted:
            rate = self._win_accepted / self._win_attempted
            self.mh_step = float(np.clip(self.mh_step * np.exp(ADAPT_GAIN * (rate - ADAPT_TARGET)), 0.01, 5.0))
        self._win_accepted = 0
        self._win_attempted = 0

    # -- observables ------------------------------------------------------

    def _excitation_model(self) -> ExcitationModel:
        K = self.seq.K
        return ExcitationModel.from_arrays(
            self.eps, self.p0, self.a0, self.b0,
            self.pkl.reshape(K, K, -1), self.akl.reshape(K, K, -1), self.bkl.reshape(K, K, -1),
            self.cfg.t0)

    def pair_excitation(self) -> np.ndarray:
        """Excitation density at every pair lag (child order) under the current draw."""
        return mixture_pair_density(self.eps, self.p0, self.a0, self.b0,
                                    self.pkl, self.akl, self.bkl, self.pairs)

    def _exact_model(self) -> ExcitationModel | None:
        """The kernels as a model; only the exact compensator reads them."""
        return self._excitation_model() if self.cfg.compensator == "exact" else None

    def latent_state(self) -> LatentState:
        return LatentState(self.parent.copy(), self.w.copy(), self.z.copy())

    def observed_loglik(self, phi: np.ndarray | None = None) -> float:
        """Observed-data log-likelihood; ``phi`` is :meth:`pair_excitation`, if already computed."""
        params = HawkesParams(self.mu, self.alpha, self._exact_model())
        phi = self.pair_excitation() if phi is None else phi
        return log_likelihood(params, self.seq, self.cfg.compensator, self.pairs, phi)


def run_chain(config: McmcConfig, seq: EventSequence) -> PosteriorSamples:
    """Run one chain and retain every post-burn-in draw."""
    sampler = McmcSampler(config, seq)
    shapes = _draw_shapes(seq.K, config.h0, config.h)
    S = config.iterations - config.burn_in
    out = PosteriorSamples(config=config, accept_rates={},
                           **{name: np.empty((S, *shape)) for name, shape in shapes.items()})
    phi = None  # density at the last retained draw, reused by the next branching step
    for it in range(config.iterations):
        sampler.sweep(phi)
        phi = None
        if config.adapt_mh and it < config.burn_in and (it + 1) % 50 == 0:
            sampler.adapt_step()
        if it >= config.burn_in:
            s = it - config.burn_in
            for name, shape in shapes.items():
                if name != "loglik":
                    getattr(out, name)[s] = np.reshape(getattr(sampler, name), shape)
            phi = sampler.pair_excitation()
            out.loglik[s] = sampler.observed_loglik(phi)
    out.accept_rates = {
        "shapes": sampler.mh_accepted / max(sampler.mh_attempted, 1),
        "final_mh_step": sampler.mh_step,
    }
    return out


# ---------------------------------------------------------------------------
# Persistence: flattened-draw CSV plus a JSON run manifest
# ---------------------------------------------------------------------------

def _draw_shapes(K: int, h0: int, h: int) -> dict[str, tuple[int, ...]]:
    """Per-draw shape of every stored array, in CSV column order."""
    return {"loglik": (), "mu": (K,), "alpha": (K, K), "eps": (), "p0": (h0,), "a0": (h0,), "b0": (h0,),
            "pkl": (K, K, h), "akl": (K, K, h), "bkl": (K, K, h)}


def save_samples(samples: PosteriorSamples, csv_path: str | Path) -> None:
    """One row per retained draw; one column per array entry, named by the
    array (``kl`` dropped) and its 1-based index, as in ``alpha.1.2``."""
    K, h0, h = samples.mu.shape[1], samples.p0.shape[1], samples.pkl.shape[3]
    shapes = _draw_shapes(K, h0, h)
    header = [".".join([name.removesuffix("kl"), *(str(i + 1) for i in ix)])
              for name, shape in shapes.items() for ix in np.ndindex(*shape)]
    mat = np.column_stack([getattr(samples, name).reshape(samples.n_draws, -1) for name in shapes])
    write_table(csv_path, header, mat.T)


def load_samples(csv_path: str | Path, config: McmcConfig, K: int | None = None) -> PosteriorSamples:
    names, mat = read_table(csv_path)
    if K is None:
        K = sum(n.startswith("mu.") for n in names)
    h0 = sum(n.startswith("p0.") for n in names)
    h = sum(n.startswith("p.") for n in names) // (K * K)
    shapes = _draw_shapes(K, h0, h)
    cols = np.split(mat, np.cumsum([int(np.prod(shape)) for shape in shapes.values()])[:-1], axis=1)
    return PosteriorSamples(config=config, accept_rates={}, **{
        name: col.reshape(mat.shape[0], *shape) for (name, shape), col in zip(shapes.items(), cols)})
