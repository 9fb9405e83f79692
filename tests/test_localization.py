"""Tests for the localization-function splitting bound."""

import numpy as np
import pytest

from dwsplit import exact, localization, models, numerics

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
        models.TwoGaussianModel(sigma=models.sigma_for_du(30.0)),
        models.TwoGaussianModel(sigma=models.sigma_for_du(40.0)),
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


class TestLocalizationFunction:
    """g on the nodes of the panels that localization and exact share."""

    def node_values(self, panels=64):
        *_, g, estimate = localization.discretize(reference_view(), panels)
        return estimate.i_value, g

    def test_positive_and_clipped(self):
        _, g = self.node_values()
        assert g.shape == (64, 16)
        assert np.all(g > 0.0) and np.all(g <= 1.0)

    def test_monotone_and_saturating(self):
        i_value, g = self.node_values()
        # row by row, the nodes run from 0 out to domain_halfwidth
        assert np.all(np.diff(g.ravel()) >= 0.0)
        assert np.all(g[:32] < 1.0)
        assert np.all(g[32:] == 1.0)   # every node of [x0, L]
        assert i_value == pytest.approx(
            localization.splitting_localization(reference_view()).i_value,
            rel=1e-12)


class TestUnderflow:
    @pytest.mark.parametrize("model", [
        models.QuarticMeanFieldModel(du=800.0),
        models.TwoGaussianModel(sigma=0.025),
    ], ids=["quartic-du800", "two_gaussian-sigma0.025"])
    def test_density_underflow_at_barrier_raises(self, model):
        view = models.meanfield_view(model)
        with pytest.raises(numerics.NumericsError, match="rho_eq underflows"):
            localization.splitting_localization(view)


class TestOnePass:
    """green_splitting carries the estimate of the panels it stopped at."""

    @pytest.mark.parametrize("model", [
        *(models.TwoGaussianModel(sigma=models.sigma_for_du(du))
          for du in np.linspace(1.0, 12.0, 40)),
        models.QuarticMeanFieldModel(du=3.0),
        models.TwoGaussianModel(sigma=models.sigma_for_delta_v(15.0, 2.0),
                                alpha=2.0),
    ])
    def test_matches_splitting_localization(self, model):
        view = models.meanfield_view(model)
        one_pass = exact.green_splitting(view).localization
        reference = localization.splitting_localization(view)
        for field in ("splitting", "i_value", "g_norm"):
            assert getattr(one_pass, field) == pytest.approx(
                getattr(reference, field), rel=1e-12)


class TestBoundProperty:
    def test_upper_bounds_exact_splitting(self):
        model = models.TwoGaussianModel(sigma=0.3247, alpha=1.5)
        view = models.meanfield_view(model)
        bound = localization.splitting_localization(view).splitting
        truth = exact.green_splitting(view)
        assert truth.converged
        assert bound > truth.splitting
        # separated wells: the bound is tight to a couple percent
        assert bound == pytest.approx(truth.splitting, rel=0.05)


class TestResultObject:
    def test_deterministic(self):
        view = reference_view()
        a = localization.splitting_localization(view)
        b = localization.splitting_localization(view)
        assert a.splitting == b.splitting
        assert a.i_value == b.i_value
        assert a.g_norm == b.g_norm
