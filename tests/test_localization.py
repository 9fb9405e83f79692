"""Tests for the localization-function splitting bound."""

import numpy as np
import pytest

from dwsplit import exact, experiments, localization, models, numerics

from helpers import trapezoid_localization


def reference_view(sigma=0.3593, alpha=1.0):
    model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
    return models.meanfield_view(model)


def assert_matches_trapezoid_route(view):
    res = localization.splitting_localization(view)
    split_ref, i_ref, norm_ref = trapezoid_localization(view)
    assert res.splitting == pytest.approx(split_ref, rel=1e-9)
    assert res.i_value == pytest.approx(i_ref, rel=1e-9)
    assert res.g_norm == pytest.approx(norm_ref, rel=1e-9)


class TestAgainstDenseOracle:
    def test_matches_trapezoid_route(self):
        assert_matches_trapezoid_route(reference_view())

    @pytest.mark.parametrize("model", [
        models.QuarticMeanFieldModel(du=5.0),
        models.QuarticMeanFieldModel(du=30.0),
        models.TwoGaussianModel(sigma=experiments.sigma_for_du(30.0)),
        models.TwoGaussianModel(sigma=experiments.sigma_for_du(40.0)),
    ], ids=["quartic-du5", "quartic-du30", "two_gaussian-du30",
            "two_gaussian-du40"])
    def test_matches_trapezoid_route_high_barriers(self, model):
        assert_matches_trapezoid_route(models.meanfield_view(model))

    def test_matches_oracle_for_narrow_wells(self):
        # deep barrier: integrand of I spans ~5 decades, bound ~1e-4
        view = reference_view(sigma=0.2730, alpha=3.0)
        res = localization.splitting_localization(view)
        split_ref, _, _ = trapezoid_localization(view, n=2_000_001)
        assert res.splitting == pytest.approx(split_ref, rel=1e-8)


class TestIngredients:
    def test_splitting_identity(self):
        view = reference_view(sigma=0.31)
        res = localization.splitting_localization(view)
        assert res.splitting == pytest.approx(
            2.0 * view.x0**2 / (res.i_value * res.g_norm), rel=1e-14)

    def test_norm_slightly_below_one(self):
        res = localization.splitting_localization(reference_view())
        assert 0.9 < res.g_norm < 1.0

    def test_x_m_matches_view(self):
        view = reference_view()
        res = localization.splitting_localization(view)
        assert res.x_m == view.x_m


class TestLocalizationFunction:
    def test_odd_and_clipped(self):
        view = reference_view()
        xs = np.linspace(-2.5, 2.5, 41)
        g = localization.localization_g(view, xs)
        assert np.allclose(g, -g[::-1], atol=1e-12)
        assert np.all(np.abs(g) <= 1.0)
        assert g[0] == -1.0 and g[-1] == 1.0

    def test_monotone_and_saturating(self):
        view = reference_view()
        xs = np.linspace(0.0, view.x_m, 30)
        g = localization.localization_g(view, xs)
        assert np.all(np.diff(g) >= 0.0)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1.0, abs=1e-9)
        assert localization.localization_g(view, view.x_m + 0.1) == 1.0

    def test_scalar_matches_vector(self):
        view = reference_view()
        for xv in (-0.7, 0.0, 0.4, 1.3):
            scalar = localization.localization_g(view, xv)
            vector = localization.localization_g(view, np.array([xv]))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(float(vector[0]), rel=1e-12, abs=1e-15)


class TestUnderflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [
        models.QuarticMeanFieldModel(du=800.0),
        models.TwoGaussianModel(sigma=0.025),
    ], ids=["quartic-du800", "two_gaussian-sigma0.025"])
    def test_density_underflow_at_barrier_raises(self, model):
        view = models.meanfield_view(model)
        with pytest.raises(numerics.NumericsError, match="integral I"):
            localization.splitting_localization(view)


class TestBoundProperty:
    def test_upper_bounds_exact_splitting(self):
        model = models.TwoGaussianModel(sigma=0.3247, alpha=1.5)
        view = models.meanfield_view(model)
        bound = localization.splitting_localization(view).splitting
        truth = exact.exact_splitting(
            lambda x: models.quantum_potential_closed(model, x),
            well_location=model.x0,
            well_curvature=models.curvature_at_minima(model)).splitting
        assert bound > truth
        # separated wells: the bound is tight to a couple percent
        assert bound == pytest.approx(truth, rel=0.05)


class TestResultObject:
    def test_deterministic(self):
        view = reference_view()
        a = localization.splitting_localization(view)
        b = localization.splitting_localization(view)
        assert a.splitting == b.splitting
        assert a.i_value == b.i_value
        assert a.g_norm == b.g_norm
