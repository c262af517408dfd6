import numpy as np
import pytest

from hawkesmix import (
    CurveSamples,
    GridSpec,
    benchmark_beta_params,
    coverage_acr,
    curve_samples_from_draws,
    excitation_bands,
    interval_score,
    rmise,
    spectral_histogram,
)
from hawkesmix.metrics import evaluate_truth

GRID = GridSpec(n_points=64, T0=1.0)


def _constant_samples(value, draws=3, K=2, grid=GRID):
    vals = np.full((draws, K, K, grid.n_points), float(value))
    return CurveSamples(vals, grid)


def _truth_table(params, grid=GRID):
    return evaluate_truth(lambda i, j, x: params.excitation.density(i, j, x), params.K, grid)


class TestRmise:
    def test_perfect_estimate(self):
        params = benchmark_beta_params(0.5)
        truth = _truth_table(params)
        samples = CurveSamples(np.repeat(truth[None], 4, axis=0), GRID)
        assert rmise(truth, samples) == 0.0

    def test_constant_offset_on_unit_support(self):
        delta = 0.37
        truth = np.zeros((2, 2, GRID.n_points))
        samples = _constant_samples(delta)
        # sqrt of the integral of delta^2 over a unit-length support
        assert rmise(truth, samples) == pytest.approx(delta, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        truth = np.zeros((3, 3, GRID.n_points))
        with pytest.raises(ValueError):
            rmise(truth, _constant_samples(1.0))

    def test_grid_refinement_stability(self):
        """Refining the grid past 512 points moves the value by under 1%
        for the benchmark truths."""
        params = benchmark_beta_params(0.2)
        est_params = benchmark_beta_params(0.8)  # deliberately wrong curves
        for n in (512, 1024, 2048):
            grid = GridSpec(n, 1.0)
            truth = _truth_table(params, grid)
            est = _truth_table(est_params, grid)
            samples = CurveSamples(np.repeat(est[None], 2, axis=0), grid)
            if n == 512:
                base = rmise(truth, samples)
            else:
                assert rmise(truth, samples) == pytest.approx(base, rel=0.01)


class TestCoverage:
    def test_degenerate_samples_equal_truth(self):
        truth = np.full((2, 2, GRID.n_points), 1.3)
        assert coverage_acr(_constant_samples(1.3), truth) == 1.0

    def test_truth_above_all_draws(self):
        truth = np.full((2, 2, GRID.n_points), 9.0)
        assert coverage_acr(_constant_samples(1.0), truth) == 0.0

    def test_needs_two_draws(self):
        truth = np.zeros((2, 2, GRID.n_points))
        with pytest.raises(ValueError):
            coverage_acr(_constant_samples(1.0, draws=1), truth)


class TestIntervalScore:
    def _two_point_samples(self, lo, hi):
        vals = np.empty((2, 1, 1, 2))
        vals[0] = lo
        vals[1] = hi
        return CurveSamples(vals, GridSpec(2, 1.0))

    def test_inside_pays_width_only(self):
        # interval [1, 3] built from two draws; truth 2 sits inside
        samples = self._two_point_samples(1.0, 3.0)
        truth = np.full((1, 1, 2), 2.0)
        width = (3.0 - 1.0) * 0.95  # interpolated 2.5%/97.5% order statistics
        assert interval_score(samples, truth, level=0.95) == pytest.approx(width, rel=1e-12)

    def test_hand_penalty_value(self):
        # 20 draws at 1 and 20 at 3: interpolated quantiles land exactly on
        # [1, 3]; truth 3.5 then pays 2 + (2 / 0.05) * 0.5 = 22
        vals = np.empty((40, 1, 1, 2))
        vals[:20] = 1.0
        vals[20:] = 3.0
        samples = CurveSamples(vals, GridSpec(2, 1.0))
        truth = np.full((1, 1, 2), 3.5)
        assert interval_score(samples, truth, level=0.95) == pytest.approx(22.0, abs=1e-12)

    def test_score_at_least_width_iff_outside(self):
        samples = self._two_point_samples(1.0, 3.0)
        inside = np.full((1, 1, 2), 1.5)
        outside = np.full((1, 1, 2), 4.0)
        w = interval_score(samples, inside)
        assert interval_score(samples, outside) > w

    def test_score_never_below_width_equality_iff_covered(self, rng):
        vals = rng.gamma(2.0, 1.0, size=(25, 2, 2, 8))
        samples = CurveSamples(vals, GridSpec(8, 1.0))
        lo = np.quantile(vals, 0.025, axis=0)
        hi = np.quantile(vals, 0.975, axis=0)
        width = float(np.mean(hi - lo))
        for truth in (rng.gamma(2.0, 1.0, size=(2, 2, 8)), (lo + hi) / 2.0):
            score = interval_score(samples, truth)
            covered_all = bool(np.all((truth >= lo) & (truth <= hi)))
            assert score >= width - 1e-12
            assert (abs(score - width) < 1e-12) == covered_all

    def test_consistency_with_coverage(self, rng):
        """Cells paying a miss penalty are exactly the non-covered cells."""
        vals = rng.gamma(2.0, 1.0, size=(30, 2, 2, 16))
        samples = CurveSamples(vals, GridSpec(16, 1.0))
        truth = rng.gamma(2.0, 1.0, size=(2, 2, 16))
        lo = np.quantile(vals, 0.025, axis=0)
        hi = np.quantile(vals, 0.975, axis=0)
        covered = (truth >= lo) & (truth <= hi)
        assert coverage_acr(samples, truth) == pytest.approx(covered.mean(), abs=1e-12)
        width_only = float(np.mean(hi - lo))
        has_penalty = interval_score(samples, truth) > width_only
        assert has_penalty == bool(np.any(~covered))


class TestBands:
    def test_single_draw_rejected(self):
        with pytest.raises(ValueError):
            excitation_bands(_constant_samples(1.0, draws=1))

    def test_symmetric_two_draw_mean(self):
        grid = GridSpec(8, 1.0)
        c = 2.0
        delta = 0.5
        vals = np.stack([np.full((2, 2, 8), c - delta), np.full((2, 2, 8), c + delta)])
        bands = excitation_bands(CurveSamples(vals, grid))
        np.testing.assert_allclose(bands["mean"], c, rtol=1e-14)

    def test_bands_bracket_mean_for_regular_draws(self, rng):
        vals = rng.normal(5.0, 0.5, size=(200, 2, 2, 16)).clip(min=0)
        bands = excitation_bands(CurveSamples(vals, GridSpec(16, 1.0)))
        assert np.all(bands["lower"] <= bands["mean"])
        assert np.all(bands["mean"] <= bands["upper"])


class TestSpectralHistogram:
    def test_identity_draws(self):
        hist = spectral_histogram(np.repeat(np.eye(2)[None], 5, axis=0))
        np.testing.assert_allclose(hist["radii"], 1.0)
        assert hist["stationary_fraction"] == 0.0  # radius 1 is not stationary

    def test_benchmark_matrix_draws(self):
        alpha = np.array([[0.6, 0.15], [0.3, 0.6]])
        hist = spectral_histogram(np.repeat(alpha[None], 7, axis=0))
        np.testing.assert_allclose(hist["radii"], 0.81213, atol=1e-5)
        assert hist["stationary_fraction"] == 1.0

    def test_fraction_invariant_to_binning(self, rng):
        draws = rng.uniform(0.1, 1.4, size=(50, 2, 2))
        f10 = spectral_histogram(draws, bins=10)["stationary_fraction"]
        f200 = spectral_histogram(draws, bins=200)["stationary_fraction"]
        assert f10 == f200

    @pytest.mark.parametrize("K", [2, 4])
    def test_radii_equal_per_draw_spectral_radius(self, rng, K):
        from hawkesmix import spectral_radius

        draws = rng.gamma(1.0, 0.4, size=(200, K, K))
        radii = spectral_histogram(draws)["radii"]
        assert radii.tobytes() == np.array([spectral_radius(a) for a in draws]).tobytes()

    @pytest.mark.parametrize("draws", [np.ones((3, 2, 3)), np.full((2, 2, 2), np.nan), np.ones((0, 2, 2))])
    def test_bad_draws_rejected(self, draws):
        with pytest.raises(ValueError):
            spectral_histogram(draws)


class TestCurveEvaluation:
    def test_matches_direct_density(self, rng):
        params = benchmark_beta_params(0.4)
        arrs = params.excitation.arrays
        draws = {
            "eps": np.array([0.4]),
            "p0": arrs["p0"][None], "a0": arrs["a0"][None], "b0": arrs["b0"][None],
            "pkl": arrs["pkl"][None], "akl": arrs["akl"][None], "bkl": arrs["bkl"][None],
        }
        grid = GridSpec(32, 1.0)
        curves = curve_samples_from_draws(draws, 1.0, grid)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    curves.values[0, i, j],
                    params.excitation.density(i, j, grid.points), rtol=1e-12)
