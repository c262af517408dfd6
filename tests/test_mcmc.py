import numpy as np
import pytest

from hawkesmix import (
    BetaMixture,
    EventSequence,
    ExcitationModel,
    HawkesParams,
    Hyperparams,
    LatentState,
    McmcConfig,
    McmcSampler,
    augmented_log_likelihood,
    benchmark_beta_params,
    run_chain,
    select_best_restart,
    simulate_branching,
    SimScenario,
)
from hawkesmix.likelihood import (
    allocation_counts,
    immigrant_counts,
    log_likelihood_naive,
    offspring_counts,
)
from hawkesmix.mcmc import (
    allocation_distribution,
    alpha_full_conditional,
    branching_distribution,
    compensator_terms,
    mu_full_conditional,
    shape_log_target,
    weight_full_conditionals,
)


def frozen_instance():
    """Six events on two dimensions with a fixed latent configuration.

    Immigrants per dimension (1, 2); assigned pairs: 0->1 (lag 0.4, dims
    0->1, idio z=0), 1->2 (lag 0.3, dims 1->0, common z=1), 3->4 (lag 0.35,
    dims 1->0, idio z=1).
    """
    seq = EventSequence(np.array([0.5, 0.9, 1.2, 4.0, 4.35, 9.5]),
                        np.array([0, 1, 0, 1, 0, 1]), T=10.0, K=2)
    latent = LatentState(np.array([-1, 0, 1, -1, 3, -1]),
                         np.array([-1, 1, 0, -1, 1, -1]),
                         np.array([-1, 0, 1, -1, 1, -1]))
    return seq, latent


class TestRateConditionals:
    def test_background_rate_posterior(self):
        hyper = Hyperparams()
        seq, latent = frozen_instance()
        shape, rate = mu_full_conditional(hyper, immigrant_counts(seq, latent), seq.T)
        np.testing.assert_array_equal(shape, [2.0, 3.0])
        assert rate == 11.0

    def test_worked_example(self):
        shape, rate = mu_full_conditional(Hyperparams(), np.array([3]), T=10.0)
        assert shape[0] == 4.0 and rate == 11.0

    def test_interaction_posterior_approx(self):
        hyper = Hyperparams()
        seq, latent = frozen_instance()
        off = offspring_counts(seq, latent)
        np.testing.assert_array_equal(off, [[0, 1], [2, 0]])
        shape, rate = alpha_full_conditional(hyper, off, compensator_terms(seq, None, "approx"))
        np.testing.assert_array_equal(shape, [[1.0, 2.0], [3.0, 1.0]])
        np.testing.assert_array_equal(rate, [[4.0, 4.0], [4.0, 4.0]])

    def test_no_offspring_keeps_prior_shape(self):
        shape, rate = alpha_full_conditional(Hyperparams(), np.zeros((1, 1)),
                                             np.array([[5.0]]))
        assert shape[0, 0] == 1.0 and rate[0, 0] == 6.0

    def test_interaction_posterior_exact_mode(self, rng):
        from conftest import random_excitation

        seq, _ = frozen_instance()
        model = random_excitation(rng, K=2, T0=1.0)
        comp = compensator_terms(seq, model, "exact")
        # only the last event is within one support length of the horizon
        expect = np.tile(np.array([3.0, 3.0])[:, None], (1, 2))
        for c in range(2):
            expect[1, c] -= 1.0 - model.cdf(1, c, 0.5)
        np.testing.assert_allclose(comp, expect, rtol=0, atol=1e-12)


class TestWeightConditionals:
    def test_frozen_counts(self):
        seq, latent = frozen_instance()
        n0, nkl = allocation_counts(seq, latent, h0=2, h=2)
        np.testing.assert_array_equal(n0, [0, 1])
        np.testing.assert_array_equal(nkl[0, 1], [1, 0])
        np.testing.assert_array_equal(nkl[1, 0], [0, 1])
        dir0, dirkl, eps_beta = weight_full_conditionals(Hyperparams(), n0, nkl, 2, 2)
        np.testing.assert_array_equal(dir0, [0.5, 1.5])
        np.testing.assert_array_equal(dirkl[0, 1], [1.5, 0.5])
        assert eps_beta == (2.0, 3.0)  # one common, two idiosyncratic pairs

    def test_prior_case(self):
        dir0, dirkl, eps_beta = weight_full_conditionals(
            Hyperparams(), np.zeros(3), np.zeros((1, 1, 3)), 3, 3)
        np.testing.assert_allclose(dir0, [1 / 3] * 3)
        assert eps_beta == (1.0, 1.0)

    def test_worked_dirichlet_example(self):
        dir0, _, _ = weight_full_conditionals(
            Hyperparams(), np.array([2, 0, 1]), np.zeros((1, 1, 3)), 3, 3)
        np.testing.assert_allclose(dir0, [2 + 1 / 3, 1 / 3, 1 + 1 / 3])

    def test_blend_weight_counts(self):
        _, _, eps_beta = weight_full_conditionals(
            Hyperparams(), np.array([3]), np.array([[[5]]]), 1, 1)
        assert eps_beta == (4.0, 6.0)


class TestBranchingDistribution:
    def test_first_event_is_immigrant(self, uniform_kernel_model):
        seq = EventSequence(np.array([1.0, 1.2]), np.array([0, 0]), T=3.0, K=1)
        probs = branching_distribution(np.array([1.0]), np.array([[1.0]]),
                                       uniform_kernel_model, seq, 0)
        np.testing.assert_array_equal(probs, [1.0])

    def test_two_event_hand_normalization(self, uniform_kernel_model):
        seq = EventSequence(np.array([1.0, 1.2]), np.array([0, 0]), T=3.0, K=1)
        probs = branching_distribution(np.array([1.0]), np.array([[1.0]]),
                                       uniform_kernel_model, seq, 1)
        np.testing.assert_allclose(probs, [0.5, 0.5], rtol=1e-14)

    def test_no_candidates_forces_immigrant(self, uniform_kernel_model):
        seq = EventSequence(np.array([1.0, 2.8]), np.array([0, 0]), T=3.0, K=1)
        probs = branching_distribution(np.array([1.0]), np.array([[1.0]]),
                                       uniform_kernel_model, seq, 1)
        np.testing.assert_array_equal(probs, [1.0])


class TestAllocationDistribution:
    def test_full_blend_forces_common(self):
        pc, pi = allocation_distribution(1.0, np.array([1.0]), np.array([1.0]), np.array([1.0]),
                                         np.array([1.0]), np.array([2.0]), np.array([2.0]),
                                         lag=0.4, T0=1.0)
        assert pc.sum() == pytest.approx(1.0)
        assert pi.sum() == 0.0

    def test_symmetric_blend_is_even(self):
        # identical single components on both sides, eps = 0.5
        pc, pi = allocation_distribution(0.5, np.array([1.0]), np.array([2.0]), np.array([3.0]),
                                         np.array([1.0]), np.array([2.0]), np.array([3.0]),
                                         lag=0.4, T0=1.0)
        assert pc[0] == pytest.approx(0.5, rel=1e-14)
        assert pi[0] == pytest.approx(0.5, rel=1e-14)

    def test_single_component_always_selected(self):
        pc, pi = allocation_distribution(0.0, np.array([1.0]), np.array([1.0]), np.array([1.0]),
                                         np.array([1.0]), np.array([2.0]), np.array([2.0]),
                                         lag=0.25, T0=1.0)
        assert pi[0] == pytest.approx(1.0)


class TestShapeBlock:
    def test_identity_proposal_always_accepted(self):
        seq = EventSequence(np.array([1.0, 1.4]), np.array([0, 0]), T=3.0, K=1)
        cfg = McmcConfig(iterations=2, burn_in=1, h0=1, h=1, seed=0)
        sampler = McmcSampler(cfg, seq)
        # zero-width proposals: delta == 0, always accepted
        sampler.mh_step = 1e-300
        before_a = sampler.akl.copy()
        sampler.sample_branching()
        sampler.sample_allocations()
        sampler.sample_shapes()
        assert sampler.mh_accepted == sampler.mh_attempted

    def test_hand_computed_acceptance_ratio(self):
        # one allocated pair at lag 0.3: target has a single kernel term
        n, st = 1.0, np.log(0.3)
        a, b, prop = 1.2, 2.5, 1.7
        from scipy.special import gammaln
        def target(x):
            return (n * (gammaln(x + b) - gammaln(x)) + (x - 1) * st
                    + (1.0 - 1.0) * np.log(x) - 1.0 * x)
        by_hand = target(prop) - target(a) + np.log(prop) - np.log(a)
        by_code = (shape_log_target(prop, b, n, st, 1.0, 1.0)
                   - shape_log_target(a, b, n, st, 1.0, 1.0)
                   + np.log(prop) - np.log(a))
        assert by_code == pytest.approx(by_hand, abs=1e-12)

    def test_empty_component_reduces_to_prior(self):
        # no allocations: the target is the prior alone
        x = np.array([0.7, 1.3])
        got = shape_log_target(x, np.array([2.0, 2.0]), np.zeros(2), np.zeros(2), 1.5, 2.0)
        expected = (1.5 - 1.0) * np.log(x) - 2.0 * x
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_empty_component_moves_get_accepted(self):
        seq = EventSequence(np.empty(0), np.empty(0, dtype=int), T=5.0, K=1)
        cfg = McmcConfig(iterations=2, burn_in=1, h0=2, h=2, seed=1, adapt_mh=False)
        sampler = McmcSampler(cfg, seq)
        for _ in range(50):
            sampler.sample_shapes()
        assert sampler.mh_accepted > 0

    def test_stationary_distribution_rank_agreement(self):
        """Long MH run on a one-pair target: empirical mass near probe
        points is ordered like the target density."""
        rng = np.random.default_rng(5)
        n, st = 1.0, np.log(0.45)
        b = 2.0
        cur = 1.0
        cur_t = shape_log_target(cur, b, n, st, 1.0, 1.0)
        samples = np.empty(100000)
        for i in range(samples.size):
            prop = cur * np.exp(0.5 * rng.standard_normal())
            pt = shape_log_target(prop, b, n, st, 1.0, 1.0)
            if np.log(rng.random()) < pt - cur_t + np.log(prop) - np.log(cur):
                cur, cur_t = prop, pt
            samples[i] = cur
        probes = np.array([0.5, 1.5, 3.5])
        half = 0.15
        mass = np.array([np.mean(np.abs(samples - p) < half) for p in probes])
        # target density (posterior of the shape) at the probes, with the
        # log-scale reference measure cancelling in the ordering comparison
        dens = np.array([np.exp(shape_log_target(p, b, n, st, 1.0, 1.0)) for p in probes])
        assert np.array_equal(np.argsort(mass), np.argsort(dens))


class TestSamplerBlocks:
    def test_exact_branching_posterior_two_events(self, uniform_kernel_model):
        """Empirical parent frequency across sweeps matches the analytic
        categorical within 3 Monte Carlo standard errors."""
        seq = EventSequence(np.array([1.0, 1.3]), np.array([0, 0]), T=3.0, K=1)
        cfg = McmcConfig(iterations=2, burn_in=1, h0=1, h=1, seed=7)
        sampler = McmcSampler(cfg, seq)
        sampler.mu = np.array([1.0])
        sampler.alpha = np.array([[0.5]])
        sampler.eps = 0.5
        sampler.a0[:] = 1.0
        sampler.b0[:] = 1.0
        sampler.akl[:] = 1.0
        sampler.bkl[:] = 1.0
        n_sweeps = 20000
        hits = 0
        for _ in range(n_sweeps):
            sampler.sample_branching()
            hits += sampler.parent[1] == 0
        p_true = 0.5 / 1.5
        se = np.sqrt(p_true * (1 - p_true) / n_sweeps)
        assert abs(hits / n_sweeps - p_true) < 3 * se

    def test_variant_constraints(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=300.0, seed=2))
        for variant, forbidden_w in (("IDIO", 0), ("COMMON", 1)):
            cfg = McmcConfig(iterations=30, burn_in=10, variant=variant, h0=3, h=3, seed=3)
            sampler = McmcSampler(cfg, seq)
            for _ in range(cfg.iterations):
                sampler.sweep()
                assigned = sampler.parent >= 0
                assert not np.any(sampler.w[assigned] == forbidden_w)
        assert sampler.eps == 1.0  # COMMON keeps the blend pinned

    def test_common_variant_has_identical_pair_curves(self):
        params = benchmark_beta_params(1.0)
        seq, _ = simulate_branching(SimScenario(params, T=400.0, seed=8))
        cfg = McmcConfig(iterations=40, burn_in=20, variant="COMMON", h0=3, h=3, seed=9)
        sampler = McmcSampler(cfg, seq)
        for _ in range(cfg.iterations):
            sampler.sweep()
        model = sampler._excitation_model()
        t = np.linspace(0.05, 0.95, 7)
        base = model.density(0, 0, t)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(model.density(i, j, t), base, rtol=1e-12)


class TestRunChain:
    def test_retained_draw_count(self, uniform_kernel_model):
        seq = EventSequence(np.array([0.5, 1.0, 2.2]), np.array([0, 0, 0]), T=4.0, K=1)
        out = run_chain(McmcConfig(iterations=10, burn_in=5, h0=2, h=2, seed=0), seq)
        assert out.n_draws == 5

    def test_fixed_seed_reproducibility(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=200.0, seed=4))
        cfg = McmcConfig(iterations=40, burn_in=20, h0=3, h=3, seed=11)
        a = run_chain(cfg, seq)
        b = run_chain(cfg, seq)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.loglik, b.loglik)

    def test_augmented_loglik_finite_across_draws(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=250.0, seed=14))
        cfg = McmcConfig(iterations=60, burn_in=20, h0=3, h=3, seed=15)
        sampler = McmcSampler(cfg, seq)
        for it in range(cfg.iterations):
            sampler.sweep()
            if it >= cfg.burn_in:
                value = augmented_log_likelihood(
                    sampler._excitation_model() and _params_of(sampler), seq,
                    sampler.latent_state(), cfg.compensator)
                assert np.isfinite(value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=5, burn_in=5)
        with pytest.raises(ValueError):
            McmcConfig(iterations=5, burn_in=1, variant="OTHER")
        with pytest.raises(ValueError):
            McmcConfig(iterations=5, burn_in=1, mh_step=0.0)

    def test_benchmark_recovery_at_desk_scale(self):
        """Posterior means land within 50% of the true background rates and
        within 0.15 absolute of the true interaction strengths."""
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=3000.0, seed=61))
        cfg = McmcConfig(iterations=2000, burn_in=1000, seed=62)
        out = run_chain(cfg, seq)
        mu_hat = out.mu.mean(axis=0)
        assert np.all(np.abs(mu_hat - params.mu) <= 0.5 * params.mu)
        alpha_hat = out.alpha.mean(axis=0)
        assert np.all(np.abs(alpha_hat - params.alpha) <= 0.15)


def _params_of(sampler):
    return HawkesParams(sampler.mu, sampler.alpha, sampler._excitation_model())


class TestObservedLoglik:
    @pytest.mark.parametrize("compensator", ["exact", "approx"])
    @pytest.mark.parametrize("variant", ["RANDOM", "IDIO", "COMMON"])
    def test_matches_naive_oracle_after_sweeps(self, variant, compensator):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=60.0, seed=3))
        cfg = McmcConfig(iterations=2, burn_in=1, h0=3, h=3, variant=variant,
                         compensator=compensator, seed=9)
        sampler = McmcSampler(cfg, seq)
        for _ in range(3):
            sampler.sweep()
        oracle = log_likelihood_naive(_params_of(sampler), seq, compensator)
        assert sampler.observed_loglik() == pytest.approx(oracle, abs=1e-9)


class TestRestartSelection:
    def _fake_run(self, mean):
        cfg = McmcConfig(iterations=2, burn_in=1)
        from hawkesmix.mcmc import PosteriorSamples

        return PosteriorSamples(config=cfg, mu=np.zeros((1, 1)), alpha=np.zeros((1, 1, 1)),
                                eps=np.zeros(1), p0=np.zeros((1, 1)), a0=np.zeros((1, 1)),
                                b0=np.zeros((1, 1)), pkl=np.zeros((1, 1, 1, 1)),
                                akl=np.zeros((1, 1, 1, 1)), bkl=np.zeros((1, 1, 1, 1)),
                                loglik=np.array([mean]), accept_rates={})

    def test_single_run(self):
        assert select_best_restart([self._fake_run(-5.0)]) == 0

    def test_argmax(self):
        runs = [self._fake_run(-100.0), self._fake_run(-90.0)]
        assert select_best_restart(runs) == 1

    def test_tie_goes_to_lowest_index(self):
        runs = [self._fake_run(-7.0), self._fake_run(-7.0)]
        assert select_best_restart(runs) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best_restart([])


class TestSamplesIO:
    def test_roundtrip(self, tmp_path):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=150.0, seed=30))
        cfg = McmcConfig(iterations=8, burn_in=4, h0=2, h=2, seed=5)
        out = run_chain(cfg, seq)
        from hawkesmix.mcmc import load_samples, save_samples

        path = tmp_path / "samples.csv"
        save_samples(out, path)
        back = load_samples(path, cfg, K=2)
        np.testing.assert_array_equal(back.mu, out.mu)
        np.testing.assert_array_equal(back.alpha, out.alpha)
        np.testing.assert_array_equal(back.pkl, out.pkl)
        np.testing.assert_array_equal(back.loglik, out.loglik)
