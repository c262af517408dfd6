import itertools

import numpy as np
import pytest

from hawkesmix import (
    BetaMixture,
    EventSequence,
    ExcitationModel,
    HawkesParams,
    LatentState,
    augmented_log_likelihood,
    build_pairs,
    candidate_parents,
    intensity,
    log_likelihood,
    spectral_radius,
)
from hawkesmix.likelihood import (
    load_branching,
    log_likelihood_naive,
    pair_density,
    save_branching,
    validate_latent,
)

from conftest import random_excitation, random_params, random_sequence


def _empty_seq(K, T):
    return EventSequence(np.empty(0), np.empty(0, dtype=int), T=T, K=K)


class TestIntensity:
    def test_empty_history_is_background(self, rng):
        params = random_params(rng, K=2)
        assert intensity(params, _empty_seq(2, 10.0), 0, 4.0) == pytest.approx(params.mu[0])

    def test_single_event_contribution(self, uniform_kernel_model):
        model = uniform_kernel_model
        params = HawkesParams(np.array([0.3]), np.array([[0.5]]), model)
        seq = EventSequence(np.array([1.0]), np.array([0]), T=5.0, K=1)
        lam = intensity(params, seq, 0, 1.2)
        expected = 0.3 + 0.5 * model.density(0, 0, 0.2)
        assert lam == pytest.approx(expected, rel=1e-13)

    def test_compact_support_cuts_old_events(self, rng):
        params = random_params(rng, K=2)
        seq = EventSequence(np.array([0.5, 0.7]), np.array([0, 1]), T=10.0, K=2)
        assert intensity(params, seq, 1, 5.0) == pytest.approx(params.mu[1])

    def test_event_at_eval_time_excluded(self, uniform_kernel_model):
        params = HawkesParams(np.array([0.3]), np.array([[0.5]]), uniform_kernel_model)
        seq = EventSequence(np.array([1.0]), np.array([0]), T=5.0, K=1)
        assert intensity(params, seq, 0, 1.0) == pytest.approx(0.3)


class TestLogLikelihood:
    def test_empty_sequence(self, rng):
        params = random_params(rng, K=3)
        T = 7.5
        assert log_likelihood(params, _empty_seq(3, T)) == pytest.approx(-params.mu.sum() * T)

    def test_exact_equals_approx_away_from_horizon(self, rng):
        params = random_params(rng, K=2)
        seq = EventSequence(np.array([0.4, 0.9, 1.7]), np.array([0, 1, 1]), T=5.0, K=2)
        # all events at least T0 before the horizon: kernel integrals saturate
        exact = log_likelihood(params, seq, "exact")
        approx = log_likelihood(params, seq, "approx")
        assert exact == pytest.approx(approx, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_matches_naive_double_loop(self, rng, mode):
        for _ in range(25):
            K = int(rng.integers(1, 4))
            n = int(rng.integers(0, 50))
            params = random_params(rng, K=K)
            seq = random_sequence(rng, n, K=K, T=8.0)
            fast = log_likelihood(params, seq, mode)
            slow = log_likelihood_naive(params, seq, mode)
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_mode_validation(self, rng):
        params = random_params(rng, K=1)
        with pytest.raises(ValueError):
            log_likelihood(params, _empty_seq(1, 1.0), "other")

    def test_isolated_event_perturbation_moves_only_compensator(self, rng):
        params = random_params(rng, K=2)
        base = np.array([0.5, 0.8, 5.0])
        dims = np.array([0, 1, 0])
        for mode in ("exact", "approx"):
            before = log_likelihood(params, EventSequence(base, dims, 10.0, 2), mode)
            moved = base.copy()
            moved[2] = 5.3  # still isolated from the others
            after = log_likelihood(params, EventSequence(moved, dims, 10.0, 2), mode)
            if mode == "approx":
                assert after == pytest.approx(before, abs=1e-12)
            else:
                # both positions are at least T0 from the horizon too
                assert after == pytest.approx(before, abs=1e-12)


class TestPairDensity:
    @pytest.mark.parametrize("eps", [0.0, 0.4, 1.0])
    def test_matches_row_by_row_density(self, rng, eps):
        model = random_excitation(rng, K=3, eps=eps)
        # dimension 0 fires only before t=4 and dimension 2 only after t=5,
        # so no admissible pair runs from dimension 2 to dimension 0
        times = np.sort(rng.uniform(0.0, 8.0, size=60))
        dims = np.where(times < 4.0, rng.integers(0, 2, size=60), rng.integers(1, 3, size=60))
        dims[(times > 4.0) & (times < 5.0)] = 1
        seq = EventSequence(times, dims, T=8.0, K=3)
        pairs = build_pairs(seq, model.T0)
        assert pairs.kl_start[2 * 3 + 0] == pairs.kl_start[2 * 3 + 1]
        expected = [model.density(int(kl) // 3, int(kl) % 3, lag) for kl, lag in zip(pairs.kl, pairs.lag)]
        np.testing.assert_allclose(pair_density(model, pairs), expected, rtol=1e-13, atol=0)

    def test_no_pairs(self, rng):
        model = random_excitation(rng, K=3, eps=0.4)
        seq = EventSequence(np.array([0.5, 2.0, 4.0]), np.array([0, 1, 2]), T=5.0, K=3)
        pairs = build_pairs(seq, model.T0)
        assert pairs.m == 0
        assert pair_density(model, pairs).shape == (0,)


class TestAugmented:
    def test_all_immigrants(self, rng):
        params = random_params(rng, K=2)
        seq = random_sequence(rng, 6, K=2, T=9.0)
        latent = LatentState.all_immigrants(seq.n)
        counts = np.bincount(seq.dims, minlength=2)
        comp = params.excitation
        expected = float(counts @ np.log(params.mu)) - params.mu.sum() * seq.T
        for p in range(2):
            for c in range(2):
                expected -= params.alpha[p, c] * sum(
                    comp.cdf(p, c, seq.T - t) for t in seq.times[seq.dims == p])
        assert augmented_log_likelihood(params, seq, latent, "exact") == pytest.approx(expected, rel=1e-10)

    def test_single_pair_uniform_kernel(self, uniform_kernel_model):
        params = HawkesParams(np.array([0.4]), np.array([[0.6]]), uniform_kernel_model)
        seq = EventSequence(np.array([1.0, 1.5]), np.array([0, 0]), T=5.0, K=1)
        latent = LatentState(np.array([-1, 0]), np.array([-1, 1]), np.array([-1, 0]))
        got = augmented_log_likelihood(params, seq, latent, "approx")
        expected = (np.log(0.4) - 0.4 * 5.0          # immigrant block
                    + np.log(0.6) + np.log(1.0)      # pair: interaction + uniform kernel
                    - 0.6 * 2)                       # compensator, two source events
        assert got == pytest.approx(expected, rel=1e-12)

    def test_latent_consistency_enforced(self, uniform_kernel_model):
        params = HawkesParams(np.array([0.4]), np.array([[0.6]]), uniform_kernel_model)
        seq = EventSequence(np.array([1.0, 3.5]), np.array([0, 0]), T=5.0, K=1)
        bad = LatentState(np.array([-1, 0]), np.array([-1, 1]), np.array([-1, 0]))
        with pytest.raises(ValueError):
            augmented_log_likelihood(params, seq, bad)  # lag 2.5 outside support

    def test_missing_allocation_rejected(self, uniform_kernel_model):
        params = HawkesParams(np.array([0.4]), np.array([[0.6]]), uniform_kernel_model)
        seq = EventSequence(np.array([1.0, 1.5]), np.array([0, 0]), T=5.0, K=1)
        with pytest.raises(ValueError):
            validate_latent(seq, LatentState(np.array([-1, 0]), np.array([-1, -1]), np.array([-1, -1])), 1.0)


def total_branching_mass(params, seq, mode):
    """Sum of exp(augmented) over all branching and allocation configurations,
    weighted by the allocation prior: the exact finite marginalization."""
    exc = params.excitation
    arrs = exc.arrays
    h0 = arrs["p0"].size
    h = arrs["pkl"].shape[2]
    cand = [list(candidate_parents(seq, j, exc.T0)) for j in range(seq.n)]
    total = 0.0
    for parents in itertools.product(*[[-1, *c] for c in cand]):
        assigned = [j for j, p in enumerate(parents) if p >= 0]
        cell_options = []
        for j in assigned:
            p, c = int(seq.dims[parents[j]]), int(seq.dims[j])
            opts = [(0, z, exc.eps * arrs["p0"][z]) for z in range(h0)]
            opts += [(1, z, (1 - exc.eps) * arrs["pkl"][p, c, z]) for z in range(h)]
            cell_options.append(opts)
        for combo in itertools.product(*cell_options):
            w = np.full(seq.n, -1, dtype=int)
            z = np.full(seq.n, -1, dtype=int)
            weight = 1.0
            for j, (wv, zv, pw) in zip(assigned, combo):
                w[j], z[j] = wv, zv
                weight *= pw
            if weight == 0.0:
                continue
            latent = LatentState(np.asarray(parents), w, z)
            total += weight * np.exp(augmented_log_likelihood(params, seq, latent, mode))
    return total


class TestMarginalization:
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_branching_sum_recovers_observed_likelihood(self, rng, mode):
        params = random_params(rng, K=2, h0=2, h=2)
        seq = EventSequence(np.array([0.3, 0.8, 1.1, 2.9]), np.array([0, 1, 1, 0]), T=4.0, K=2)
        mass = total_branching_mass(params, seq, mode)
        target = np.exp(log_likelihood(params, seq, mode))
        assert mass == pytest.approx(target, rel=1e-8)

    def test_two_event_hand_case(self, uniform_kernel_model):
        params = HawkesParams(np.array([0.5]), np.array([[0.4]]), uniform_kernel_model)
        seq = EventSequence(np.array([1.0, 1.2]), np.array([0, 0]), T=3.0, K=1)
        mass = total_branching_mass(params, seq, "approx")
        assert mass == pytest.approx(np.exp(log_likelihood(params, seq, "approx")), rel=1e-10)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0)

    def test_benchmark_matrix(self):
        got = spectral_radius(np.array([[0.6, 0.15], [0.3, 0.6]]))
        assert got == pytest.approx(0.6 + np.sqrt(0.045), abs=1e-12)
        assert got == pytest.approx(0.81213, abs=1e-5)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_shape_error(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestBranchingIO:
    def test_roundtrip(self, tmp_path):
        latent = LatentState(np.array([-1, 0, -1, 2]), np.array([-1, 1, -1, 0]), np.array([-1, 0, -1, 1]))
        path = tmp_path / "branching.csv"
        save_branching(latent, path)
        text = path.read_text().splitlines()
        assert text[0] == "child_index,parent_index"
        assert text[1] == "1,0"  # immigrant encoded as 0
        assert text[2] == "2,1"
        back = load_branching(path, n=4)
        np.testing.assert_array_equal(back, latent.parent)
