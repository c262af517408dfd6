import numpy as np
import pytest
from scipy import special

from hawkesmix import (
    EventSequence,
    SimScenario,
    SviConfig,
    benchmark_beta_params,
    elbo,
    learning_rate,
    q_expected_log_beta,
    run_svi,
    sample_from_variational,
    select_window,
    simulate_branching,
    taylor_elbo_bound,
)
from hawkesmix import svi as sv


def small_sequence():
    return EventSequence(np.array([0.5, 0.9, 1.2]), np.array([0, 1, 0]), T=4.0, K=2)


def small_config(**kw):
    defaults = dict(iterations=5, kappa=1.0, h0=2, h=2, seed=0)
    defaults.update(kw)
    return SviConfig(**defaults)


class TestLearningRate:
    def test_first_iteration_unit(self):
        cfg = small_config(rho0=1.0, tau1=0.0, tau2=1.0)
        assert learning_rate(1, cfg) == pytest.approx(1.0)

    def test_delayed_square_root_decay(self):
        cfg = small_config(rho0=1.0, tau1=1.0, tau2=0.51)
        assert learning_rate(3, cfg) == pytest.approx(4 ** -0.51)

    def test_divergent_sum_square_summable(self):
        cfg = small_config(rho0=1.0, tau1=0.0, tau2=0.7)
        r = np.arange(1, 200001)
        rho = cfg.rho0 * (r + cfg.tau1) ** -cfg.tau2
        # partial sums grow without bound; squared sums converge
        assert rho.sum() > 50
        head = (rho[:100000] ** 2).sum()
        assert (rho ** 2).sum() - head < 0.01  # square-sum tail is negligible

    def test_validation(self):
        with pytest.raises(ValueError):
            learning_rate(0, small_config())
        with pytest.raises(ValueError):
            SviConfig(iterations=5, tau2=0.4)
        with pytest.raises(ValueError):
            SviConfig(iterations=5, kappa=0.0)


class TestSelectWindow:
    def test_full_ratio_returns_everything(self, rng):
        seq = small_sequence()
        win, start = select_window(seq, 1.0, rng)
        assert start == 0.0
        np.testing.assert_array_equal(win.times, seq.times)

    def test_deterministic_given_seed(self):
        seq = small_sequence()
        a, sa = select_window(seq, 0.25, np.random.default_rng(3))
        b, sb = select_window(seq, 0.25, np.random.default_rng(3))
        assert sa == sb
        np.testing.assert_array_equal(a.times, b.times)

    def test_empty_window_possible(self):
        seq = small_sequence()
        win, _ = select_window(seq, 0.1, np.random.default_rng(11))
        assert win.n in (0, 1)  # a narrow window may cover no events


class TestTaylorSurrogate:
    def test_concentrated_at_unit_means_vanishes(self):
        assert taylor_elbo_bound((1e9, 1e9), (1e9, 1e9)) == pytest.approx(0.0, abs=1e-6)

    def test_q_concentrated_uniform_kernel(self):
        # degenerate factors at shapes (1, 1): log density tends to log(1/T0)
        got = q_expected_log_beta((1e9, 1e9), (1e9, 1e9), 0.3, 2.0)
        assert got == pytest.approx(np.log(0.5), abs=1e-6)

    def test_lower_bounds_monte_carlo(self, rng):
        for _ in range(6):
            sa, sb = rng.uniform(4, 40, size=2)
            ra = sa / rng.uniform(0.5, 4.0)
            rb = sb / rng.uniform(0.5, 4.0)
            a = rng.gamma(sa, 1 / ra, size=200000)
            b = rng.gamma(sb, 1 / rb, size=200000)
            mc = np.mean(special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b))
            assert taylor_elbo_bound((sa, ra), (sb, rb)) <= mc + 0.05

    def test_role_swap_symmetry(self):
        assert taylor_elbo_bound((6.0, 2.0), (9.0, 4.0)) == pytest.approx(
            taylor_elbo_bound((9.0, 4.0), (6.0, 2.0)), rel=1e-12)

    def test_q_accuracy_against_monte_carlo(self, rng):
        sa, ra, sb, rb = 32.0, 16.0, 48.0, 24.0
        a = rng.gamma(sa, 1 / ra, size=400000)
        b = rng.gamma(sb, 1 / rb, size=400000)
        for t in (0.2, 0.7):
            mc = np.mean(special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b)
                         + (a - 1) * np.log(t) + (b - 1) * np.log1p(-t))
            assert q_expected_log_beta((sa, ra), (sb, rb), t, 1.0) == pytest.approx(mc, abs=0.1)

    def test_q_linearity_in_repeated_lags(self):
        q = q_expected_log_beta((8.0, 4.0), (8.0, 4.0), 0.4, 1.0)
        assert q + q == pytest.approx(2 * q)

    def test_q_domain_error(self):
        with pytest.raises(ValueError):
            q_expected_log_beta((2.0, 1.0), (2.0, 1.0), 1.5, 1.0)
        with pytest.raises(ValueError):
            q_expected_log_beta((0.0, 1.0), (2.0, 1.0), 0.5, 1.0)


class TestLocalUpdates:
    def test_no_candidates_forces_immigrant(self):
        seq = EventSequence(np.array([0.5, 3.0]), np.array([0, 1]), T=5.0, K=2)
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        np.testing.assert_allclose(local.eta_imm, 1.0)

    def test_symmetric_components_split_evenly(self):
        seq = small_sequence()
        cfg = small_config(variant="IDIO")
        state = sv.init_state(cfg, seq)
        # identical idiosyncratic components: allocation must be uniform
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        np.testing.assert_allclose(local.qi[:, 0], local.qi[:, 1], rtol=1e-12)
        np.testing.assert_allclose(local.qi.sum(axis=1), 1.0, atol=1e-12)

    def test_concentrated_blend_forces_common_side(self):
        seq = small_sequence()
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        state.eta_eps = np.array([5e6, 1.0])  # variational blend weight near 1
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        eta_w = local.qi.sum(axis=1)  # idiosyncratic-side mass
        assert np.all(eta_w < 1e-4)

    def test_normalization_invariants(self, rng):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=200.0, seed=12))
        cfg = small_config(h0=3, h=3)
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        for _ in range(3):
            sv.update_local(local, state)
            sv.update_global(state, local, rho=0.7, kappa=1.0)
            cells = local.qc.sum(axis=1) + local.qi.sum(axis=1)
            np.testing.assert_allclose(cells, 1.0, atol=1e-12)
            rows = local.eta_imm.copy()
            np.testing.assert_array_less(-1e-15, local.eta_pair)
            rows += np.bincount(local.pairs.child, weights=local.eta_pair, minlength=seq.n)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def three_dim_sequence(rng):
    """K=3 events where dimension 2 only ends the sequence, so no pair has parent dim 2."""
    times = np.sort(rng.uniform(0.0, 6.0, size=30))
    times = np.append(times, times[-1] + 0.3)
    dims = np.append(rng.integers(0, 2, size=30), 2)
    return EventSequence(times, dims, T=7.0, K=3)


def randomized_state(rng, cfg, seq):
    state = sv.init_state(cfg, seq)
    for name in ("eta_mu", "eta_alpha", "eta_p0", "eta_a0", "eta_b0",
                 "eta_pkl", "eta_akl", "eta_bkl", "eta_eps"):
        arr = getattr(state, name)
        if arr is not None:
            setattr(state, name, arr * rng.uniform(0.2, 5.0, size=arr.shape))
    return state


class TestAllocationTable:
    """The cell-major allocation table against its closed form, cell by cell."""

    @pytest.mark.parametrize("variant", ["RANDOM", "IDIO", "COMMON"])
    def test_tables_match_closed_form(self, rng, variant):
        seq = three_dim_sequence(rng)
        cfg = small_config(h0=3, h=2, variant=variant)
        state = randomized_state(rng, cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        pr = local.pairs
        assert np.any(np.diff(pr.kl_start) == 0) and pr.m > 0
        le, l1e = state.elog_eps_pair()
        elog_p0, elog_pkl = state.elog_p0(), state.elog_pkl()
        for r in range(pr.m):
            p, c, lag = pr.parent_dim[r], pr.child_dim[r], pr.lag[r]
            common = [le + elog_p0[k] + q_expected_log_beta(state.eta_a0[k], state.eta_b0[k], lag, cfg.t0)
                      for k in range(cfg.h0)]
            idio = [l1e + elog_pkl[p, c, k]
                    + q_expected_log_beta(state.eta_akl[p, c, k], state.eta_bkl[p, c, k], lag, cfg.t0)
                    for k in range(cfg.h)]
            log_norm = special.logsumexp(common + idio)
            np.testing.assert_allclose(local.qc[r], np.exp(np.array(common) - log_norm), rtol=0, atol=1e-12)
            np.testing.assert_allclose(local.qi[r], np.exp(np.array(idio) - log_norm), rtol=0, atol=1e-12)
        if variant == "IDIO":
            assert np.all(local.qc == 0.0)
        if variant == "COMMON":
            assert np.all(local.qi == 0.0)

    def test_window_stats_match_hand_loop(self, rng):
        seq = three_dim_sequence(rng)
        cfg = small_config(h0=3, h=2)
        state = randomized_state(rng, cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        pr, kappa = local.pairs, 0.4
        n0, s0t, s0m = np.zeros(cfg.h0), np.zeros(cfg.h0), np.zeros(cfg.h0)
        nkl, skt, skm = np.zeros((9, cfg.h)), np.zeros((9, cfg.h)), np.zeros((9, cfg.h))
        pair = np.zeros(9)
        for r in range(pr.m):
            g, w = pr.kl[r], local.eta_pair[r]
            lt, lm = np.log(pr.lag[r] / cfg.t0), np.log(1.0 - pr.lag[r] / cfg.t0)
            pair[g] += w
            n0 += w * local.qc[r]
            s0t += w * local.qc[r] * lt
            s0m += w * local.qc[r] * lm
            nkl[g] += w * local.qi[r]
            skt[g] += w * local.qi[r] * lt
            skm[g] += w * local.qi[r] * lm
        stats = sv.window_stats(local, state, kappa)
        for got, want in ((stats.pair_counts.reshape(-1), pair), (stats.n_common, n0),
                          (stats.s_common_t, s0t), (stats.s_common_m, s0m), (stats.n_idio, nkl),
                          (stats.s_idio_t, skt), (stats.s_idio_m, skm)):
            np.testing.assert_allclose(got, want / kappa, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stats.imm_counts, np.bincount(seq.dims, weights=local.eta_imm) / kappa,
                                   rtol=1e-12)

    def test_update_local_is_allocations_then_branching(self, rng):
        seq = three_dim_sequence(rng)
        cfg = small_config(h0=3, h=2)
        state = randomized_state(rng, cfg, seq)
        fused, split = sv.make_local(seq, cfg.t0), sv.make_local(seq, cfg.t0)
        sv.update_local(fused, state)
        sv.update_allocations(split, state)
        sv.update_branching(split, state)
        for name in ("qc", "qi", "eta_imm", "eta_pair"):
            np.testing.assert_allclose(getattr(fused, name), getattr(split, name), rtol=1e-12, atol=1e-15)

    def test_branching_needs_allocation_tables(self, rng):
        seq = three_dim_sequence(rng)
        cfg = small_config(h0=3, h=3)
        state = randomized_state(rng, cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        assert local.qc is None and local.qi is None
        with pytest.raises(ValueError, match="update_allocations"):
            sv.update_branching(local, state)
        with pytest.raises(ValueError, match="update_allocations"):
            sv.elbo_value(state, local)

    def test_elbo_reuses_allocation_normalizer(self, rng):
        seq = three_dim_sequence(rng)
        cfg = small_config(h0=3, h=2)
        state = randomized_state(rng, cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        value = elbo(state, seq, local)
        assert value == pytest.approx(sv.elbo_value(state, local), rel=1e-12)


class TestGlobalUpdates:
    def test_zero_step_keeps_state(self):
        seq = small_sequence()
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        before = {k: np.copy(getattr(state, k)) for k in
                  ("eta_mu", "eta_alpha", "eta_p0", "eta_a0", "eta_pkl", "eta_eps")}
        sv.update_global(state, local, rho=0.0, kappa=1.0)
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(state, k), v)

    def test_full_step_matches_hand_natural_parameters(self):
        """Unit-step full-data updates equal the conjugate coordinate
        solutions computed by hand on a three-event instance."""
        seq = small_sequence()
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        stats = sv.window_stats(local, state, kappa=1.0)
        hyper = cfg.hyper

        imm = np.bincount(seq.dims, weights=local.eta_imm, minlength=2)
        pair_counts = np.zeros((2, 2))
        for m in range(local.pairs.m):
            pair_counts[local.pairs.parent_dim[m], local.pairs.child_dim[m]] += local.eta_pair[m]
        nc = (local.eta_pair[:, None] * local.qc).sum(axis=0)
        ni_tot = float((local.eta_pair[:, None] * local.qi).sum())

        sv.update_mu(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_mu[:, 0], hyper.e + imm, rtol=1e-12)
        np.testing.assert_allclose(state.eta_mu[:, 1], hyper.f + seq.T, rtol=1e-12)

        sv.update_alpha(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_alpha[..., 0], hyper.g + pair_counts, rtol=1e-12)
        np.testing.assert_allclose(state.eta_alpha[..., 1],
                                   np.tile(hyper.h + seq.counts()[:, None].astype(float), (1, 2)),
                                   rtol=1e-12)

        sv.update_weights(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_p0, hyper.gamma_dp / cfg.h0 + nc, rtol=1e-12)

        sv.update_eps(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_eps, [1.0 + nc.sum(), 1.0 + ni_tot], rtol=1e-12)

    def test_empty_window_targets_are_priors(self):
        seq = small_sequence()
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        empty = seq.window(3.5, 3.9)
        assert empty.n == 0
        local = sv.make_local(empty, cfg.t0)
        sv.update_local(local, state)
        stats = sv.window_stats(local, state, kappa=0.1)
        hyper = cfg.hyper
        sv.update_weights(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_p0, hyper.gamma_dp / cfg.h0, rtol=1e-12)
        sv.update_eps(state, stats, rho=1.0)
        np.testing.assert_allclose(state.eta_eps, [1.0, 1.0], rtol=1e-12)
        sv.update_shapes(state, stats, rho=1.0)
        # pseudo-count terms vanish: shape factors collapse to their priors
        np.testing.assert_allclose(state.eta_akl[..., 0], hyper.ca_idio, rtol=1e-12)
        np.testing.assert_allclose(state.eta_akl[..., 1], hyper.da_idio, rtol=1e-12)

    def test_positivity_clamp(self, rng):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=150.0, seed=6))
        cfg = small_config(h0=3, h=3)
        state = sv.init_state(cfg, seq)
        for it in range(20):
            win, _ = select_window(seq, 0.3, rng)
            local = sv.make_local(win, cfg.t0)
            sv.update_local(local, state)
            sv.update_global(state, local, rho=learning_rate(it + 1, cfg), kappa=0.3)
            for name in ("eta_mu", "eta_alpha", "eta_p0", "eta_a0", "eta_b0",
                         "eta_pkl", "eta_akl", "eta_bkl", "eta_eps"):
                assert np.all(getattr(state, name) > 0), name


class TestCaviMonotonicity:
    def test_conjugate_blocks_never_decrease_surrogate(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=250.0, seed=19))
        cfg = small_config(h0=3, h=3)
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        value = sv.elbo_value(state, local)
        for _ in range(25):
            for block in (
                lambda: sv.update_allocations(local, state),
                lambda: sv.update_branching(local, state),
                lambda: sv.update_mu(state, sv.window_stats(local, state, 1.0), 1.0),
                lambda: sv.update_alpha(state, sv.window_stats(local, state, 1.0), 1.0),
                lambda: sv.update_weights(state, sv.window_stats(local, state, 1.0), 1.0),
                lambda: sv.update_eps(state, sv.window_stats(local, state, 1.0), 1.0),
            ):
                block()
                new = sv.elbo_value(state, local)
                assert new >= value - 1e-8
                value = new
            # surrogate-driven shape block: tracked, not required monotone
            sv.update_shapes(state, sv.window_stats(local, state, 1.0), 1.0)
            value = sv.elbo_value(state, local)


class TestUnbiasedSubsampling:
    def test_scaled_allocation_count_matches_full_data(self):
        """Mean of the inverse-ratio-scaled window allocation count over many
        windows matches the full-data count within two standard errors.

        The window scheme slightly under-covers horizon edges for any fixed
        dataset, so the horizon is kept long relative to the kernel support.
        """
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=2000.0, seed=23))
        cfg = small_config(h0=2, h=2)
        state = sv.init_state(cfg, seq)
        full_local = sv.make_local(seq, cfg.t0)
        sv.update_local(full_local, state)
        full_count = float((full_local.eta_pair[:, None] * full_local.qi).sum()
                           + (full_local.eta_pair[:, None] * full_local.qc).sum())
        kappa = 0.25
        rng = np.random.default_rng(99)
        draws = np.empty(2000)
        for i in range(draws.size):
            win, _ = select_window(seq, kappa, rng)
            local = sv.make_local(win, cfg.t0)
            sv.update_local(local, state)
            draws[i] = ((local.eta_pair[:, None] * local.qi).sum()
                        + (local.eta_pair[:, None] * local.qc).sum()) / kappa
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - full_count) < 2 * se


class TestElbo:
    def test_finite_on_randomized_states(self, rng):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=120.0, seed=31))
        cfg = small_config(h0=2, h=2)
        for _ in range(100):
            state = sv.init_state(cfg, seq)
            for name in ("eta_mu", "eta_alpha", "eta_p0", "eta_a0", "eta_b0",
                         "eta_pkl", "eta_akl", "eta_bkl", "eta_eps"):
                arr = getattr(state, name)
                setattr(state, name, arr * rng.uniform(0.2, 5.0, size=arr.shape))
            assert np.isfinite(elbo(state, seq))

    def test_better_conjugate_block_strictly_improves(self):
        seq = small_sequence()
        cfg = small_config()
        state = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        sv.update_local(local, state)
        worse = sv.elbo_value(state, local)
        sv.update_mu(state, sv.window_stats(local, state, 1.0), rho=1.0)
        assert sv.elbo_value(state, local) > worse


class TestRunSvi:
    def test_deterministic_trace(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=200.0, seed=41))
        cfg = SviConfig(iterations=30, kappa=0.4, h0=2, h=2, seed=17, elbo_every=10)
        _, tr1 = run_svi(cfg, seq)
        _, tr2 = run_svi(cfg, seq)
        np.testing.assert_array_equal(tr1, tr2)

    def test_full_ratio_unit_step_is_batch_coordinate_ascent(self):
        """kappa = 1 with a unit learning rate reproduces the deterministic
        batch optimizer: two implementations, same trajectory."""
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=200.0, seed=43))
        cfg = SviConfig(iterations=6, kappa=1.0, rho0=1.0, tau1=0.0, tau2=1.0,
                        h0=2, h=2, seed=5)
        # rho_r = (r)^-1 is not identically 1; use the block functions for
        # the reference and a custom schedule for the engine
        state_ref = sv.init_state(cfg, seq)
        local = sv.make_local(seq, cfg.t0)
        for _ in range(cfg.iterations):
            sv.update_local(local, state_ref)
            sv.update_global(state_ref, local, rho=1.0, kappa=1.0)

        state_run = sv.init_state(cfg, seq)
        rng = np.random.default_rng(0)
        for r in range(cfg.iterations):
            win, _ = select_window(seq, 1.0, rng)
            loc = sv.make_local(win, cfg.t0)
            sv.update_local(loc, state_run)
            sv.update_global(state_run, loc, rho=1.0, kappa=1.0)
        np.testing.assert_allclose(state_ref.eta_mu, state_run.eta_mu, rtol=1e-12)
        np.testing.assert_allclose(state_ref.eta_akl, state_run.eta_akl, rtol=1e-12)

    def test_final_elbo_matches_batch_reference(self):
        """Stochastic run within 1% of a batch coordinate-ascent reference.

        Uses an aggressive forgetting rate (near the admissible floor) so
        the first steps are close to unit length: gentler schedules can
        commit to a worse blend basin before the allocations break
        symmetry, which is the known failure mode of this engine.
        """
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=3000.0, seed=55))
        ref_cfg = SviConfig(iterations=150, kappa=1.0, h0=5, h=5, seed=1)
        ref = sv.init_state(ref_cfg, seq)
        local = sv.make_local(seq, ref_cfg.t0)
        for _ in range(150):
            sv.update_local(local, ref)
            sv.update_global(ref, local, rho=1.0, kappa=1.0)
        ref_elbo = sv.elbo(ref, seq)

        cfg = SviConfig(iterations=2000, kappa=0.2, tau1=1.0, tau2=0.51,
                        h0=5, h=5, seed=2, elbo_every=1000)
        _, trace = run_svi(cfg, seq)
        assert abs(trace[-1, 1] - ref_elbo) <= 0.01 * abs(ref_elbo)

    def test_state_roundtrip(self, tmp_path):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=150.0, seed=47))
        cfg = SviConfig(iterations=10, kappa=0.5, h0=2, h=2, seed=3)
        state, trace = run_svi(cfg, seq)
        sv.save_state(state, tmp_path / "state.json")
        back = sv.load_state(tmp_path / "state.json")
        np.testing.assert_allclose(back.eta_akl, state.eta_akl, rtol=1e-15)
        np.testing.assert_allclose(back.eta_eps, state.eta_eps, rtol=1e-15)
        sv.save_trace(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,elbo"


class TestVariationalSampling:
    def _state(self):
        params = benchmark_beta_params(0.5)
        seq, _ = simulate_branching(SimScenario(params, T=200.0, seed=53))
        state, _ = run_svi(SviConfig(iterations=15, kappa=0.5, h0=2, h=2, seed=2), seq)
        return state

    def test_zero_draws(self):
        out = sample_from_variational(self._state(), 0, np.random.default_rng(0))
        assert out["mu"].shape == (0, 2)
        assert out["eps"].shape == (0,)

    def test_gamma_family_moments(self):
        state = self._state()
        rng = np.random.default_rng(8)
        out = sample_from_variational(state, 100000, rng)
        mean = state.eta_mu[:, 0] / state.eta_mu[:, 1]
        sd = np.sqrt(state.eta_mu[:, 0]) / state.eta_mu[:, 1]
        got = out["mu"].mean(axis=0)
        assert np.all(np.abs(got - mean) < 3 * sd / np.sqrt(100000))

    def test_blend_draws_in_unit_interval(self):
        out = sample_from_variational(self._state(), 5000, np.random.default_rng(4))
        assert np.all((out["eps"] >= 0) & (out["eps"] <= 1))

    def test_pinned_variant_blend_is_constant(self):
        params = benchmark_beta_params(0.0)
        seq, _ = simulate_branching(SimScenario(params, T=150.0, seed=57))
        state, _ = run_svi(SviConfig(iterations=10, kappa=0.5, h0=2, h=2,
                                     variant="IDIO", seed=2), seq)
        out = sample_from_variational(state, 100, np.random.default_rng(0))
        assert np.all(out["eps"] == 0.0)


class TestStateFileRoundTrip:
    @pytest.mark.parametrize("variant", ["RANDOM", "IDIO", "COMMON"])
    def test_every_field_roundtrips_bitwise(self, tmp_path, variant):
        import dataclasses

        from conftest import random_sequence

        seq = random_sequence(np.random.default_rng(3), 40, 3, 20.0)
        state, _ = run_svi(SviConfig(iterations=3, kappa=0.5, h0=2, h=3, variant=variant, seed=1), seq)
        sv.save_state(state, tmp_path / "state.json")
        back = sv.load_state(tmp_path / "state.json")
        assert (state.eta_eps is None) == (variant != "RANDOM")
        for f in dataclasses.fields(state):
            mine, theirs = getattr(state, f.name), getattr(back, f.name)
            if isinstance(mine, np.ndarray):
                assert theirs.shape == mine.shape and theirs.dtype == mine.dtype, f.name
                np.testing.assert_array_equal(theirs.view(np.int64), mine.view(np.int64), err_msg=f.name)
            else:
                assert theirs == mine and type(theirs) is type(mine), f.name
