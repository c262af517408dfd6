import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hawkesmix import BetaMixture, beta_cdf, beta_pdf, beta_log_pdf
from hawkesmix.kernels import ExcitationModel

from conftest import random_excitation


class TestBetaPdf:
    def test_uniform_case(self):
        assert beta_pdf(0.3, 1, 1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_outside_support(self):
        assert beta_pdf(1.5, 2, 3, 1) == 0.0
        assert beta_pdf(-0.1, 2, 3, 1) == 0.0

    def test_symmetric_quadratic(self):
        # 6 t (1 - t) at t = 0.25
        assert beta_pdf(0.25, 2, 2, 1) == pytest.approx(1.125, abs=1e-13)

    def test_endpoints_are_zero_even_for_diverging_shapes(self):
        # densities with a < 1 or b < 1 diverge pointwise at the boundary;
        # the evaluator pins the endpoints to 0 instead
        assert beta_pdf(0.0, 0.5, 2.0, 1.0) == 0.0
        assert beta_pdf(1.0, 2.0, 0.5, 1.0) == 0.0

    def test_scaled_support(self):
        assert beta_pdf(1.0, 1, 1, 4.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [dict(a=0), dict(b=-1), dict(T0=0), dict(a=np.nan)])
    def test_domain_errors(self, bad):
        kw = dict(a=2.0, b=2.0, T0=1.0)
        kw.update(bad)
        with pytest.raises(ValueError):
            beta_pdf(0.5, **kw)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(ValueError):
            beta_pdf(np.inf, 2, 2, 1)

    def test_vectorized_matches_scalar(self, rng):
        t = rng.uniform(-0.5, 1.5, size=64)
        vec = beta_pdf(t, 2.5, 1.5, 1.0)
        scalars = np.array([beta_pdf(float(x), 2.5, 1.5, 1.0) for x in t])
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)

    def test_log_pdf_consistency(self):
        t = 0.37
        assert np.exp(beta_log_pdf(t, 3.0, 4.0, 2.0)) == pytest.approx(beta_pdf(t, 3.0, 4.0, 2.0))


class TestBetaCdf:
    def test_uniform_midpoint(self):
        assert beta_cdf(0.5, 1, 1, 1) == pytest.approx(0.5, abs=1e-14)

    def test_beyond_support(self):
        assert beta_cdf(2, 3, 7, 1) == 1.0
        assert beta_cdf(-1, 3, 7, 1) == 0.0

    def test_symmetric_shape_midpoint(self):
        assert beta_cdf(0.5, 2, 2, 1) == pytest.approx(0.5, abs=1e-14)

    def test_agrees_with_integrated_pdf(self, rng):
        for _ in range(5):
            a, b = rng.uniform(2, 6, size=2)
            t = rng.uniform(0.1, 0.9)
            quad, _ = integrate.quad(lambda s: beta_pdf(s, a, b, 1.0), 0, t, limit=200)
            assert beta_cdf(t, a, b, 1.0) == pytest.approx(quad, abs=1e-8)

    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert beta_cdf(lo, 1.7, 3.2, 1.0) <= beta_cdf(hi, 1.7, 3.2, 1.0) + 1e-15

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_cdf(np.nan, 2, 2, 1)


class TestBetaMixture:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            BetaMixture(np.array([0.6, 0.6]), np.ones(2), np.ones(2))

    def test_positive_shapes_enforced(self):
        with pytest.raises(ValueError):
            BetaMixture(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.ones(2))

    def test_density_is_weighted_sum(self):
        m = BetaMixture(np.array([0.3, 0.7]), np.array([2.0, 5.0]), np.array([2.0, 1.0]))
        t = 0.4
        expected = 0.3 * beta_pdf(t, 2, 2, 1) + 0.7 * beta_pdf(t, 5, 1, 1)
        assert m.density(t, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_sampling_stays_in_support(self, rng):
        m = BetaMixture(np.array([0.5, 0.5]), np.array([2.0, 3.0]), np.array([4.0, 1.0]))
        lags, z = m.sample(rng, 2000, T0=2.0)
        assert np.all((lags > 0) & (lags < 2.0))
        assert set(np.unique(z)) <= {0, 1}


class TestExcitationModel:
    def test_full_blend_collapses_to_common(self, rng):
        model = random_excitation(rng, K=2, eps=1.0)
        t = 0.33
        for i in range(2):
            for j in range(2):
                assert model.density(i, j, t) == pytest.approx(
                    model.common.density(t, model.T0), rel=1e-12)

    def test_zero_blend_reduces_to_pair_kernel(self):
        uni = BetaMixture(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        sym = BetaMixture(np.array([1.0]), np.array([2.0]), np.array([2.0]))
        model = ExcitationModel(eps=0.0, common=uni, idio=((sym,),), T0=1.0)
        assert model.density(0, 0, 0.25) == pytest.approx(1.125, abs=1e-13)

    def test_half_blend_hand_value(self):
        uni = BetaMixture(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        sym = BetaMixture(np.array([1.0]), np.array([2.0]), np.array([2.0]))
        model = ExcitationModel(eps=0.5, common=uni, idio=((sym,),), T0=1.0)
        assert model.density(0, 0, 0.25) == pytest.approx(1.0625, abs=1e-13)

    def test_dimension_bounds(self, uniform_kernel_model):
        with pytest.raises(IndexError):
            uniform_kernel_model.density(0, 1, 0.5)

    def test_eps_range_enforced(self, uniform_kernel_model):
        with pytest.raises(ValueError):
            ExcitationModel(eps=1.2, common=uniform_kernel_model.common,
                            idio=uniform_kernel_model.idio, T0=1.0)

    def test_normalization_by_simpson(self, rng):
        """Composite Simpson with 512 panels integrates each pair's blended
        density to 1 within 1e-6 (shapes >= 2 keep the integrand smooth at
        the endpoints)."""
        for trial in range(3):
            model = random_excitation(rng, K=2, h0=3, h=3, T0=1.5,
                                      shape_low=2.0, shape_high=8.0)
            n = 512
            x = np.linspace(0.0, model.T0, n + 1)
            for i in range(2):
                for j in range(2):
                    y = model.density(i, j, x)
                    total = integrate.simpson(y, x=x)
                    assert total == pytest.approx(1.0, abs=1e-6)

    def test_arrays_roundtrip(self, rng):
        model = random_excitation(rng, K=2, h0=2, h=3)
        arrs = model.arrays
        rebuilt = ExcitationModel.from_arrays(model.eps, arrs["p0"], arrs["a0"], arrs["b0"],
                                              arrs["pkl"], arrs["akl"], arrs["bkl"], model.T0)
        t = 0.42
        for i in range(2):
            for j in range(2):
                assert rebuilt.density(i, j, t) == pytest.approx(model.density(i, j, t), rel=1e-14)
