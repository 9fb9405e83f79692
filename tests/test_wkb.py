"""Tests for the semiclassical splitting estimate."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dwsplit import exact, experiments, models, numerics, wkb


def deep_well(delta_v_height=30.0, width=0.5):
    model = models.solve_parameters(delta_v_height, width)
    dv = lambda x: models.quantum_potential_closed(model, x)
    return model, dv


class TestTurningPoints:
    def test_potential_equals_energy_at_turning_point(self):
        model, dv = deep_well()
        res = wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                                model.x0)
        x_l, x_r = res.turning_points
        assert x_l == -x_r
        assert 0.0 < x_r < model.x0
        assert res.action > 0.0
        scale = abs(dv(0.0))
        assert abs(dv(x_r) - res.energy) < 1e-10 * scale

    def test_energy_is_half_frequency_above_floor(self):
        model, dv = deep_well()
        res = wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                                model.x0)
        omega = math.sqrt(2.0 * models.curvature_at_minima(model))
        assert res.well_frequency == pytest.approx(omega, rel=1e-12)
        assert res.energy == pytest.approx(dv(model.x0) + 0.5 * omega,
                                           rel=1e-12)


class TestAction:
    def test_matches_quad_oracle(self):
        # scipy's adaptive quadrature of the unsubstituted integrand
        model, dv = deep_well()
        res = wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                                model.x0)
        x_t = res.turning_points[1]
        half, _ = quad(lambda x: math.sqrt(max(dv(x) - res.energy, 0.0)),
                       0.0, x_t, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert res.action == pytest.approx(2.0 * half, rel=1e-9)

    def test_action_grows_with_barrier(self):
        actions = []
        for dv_height in (20.0, 30.0, 40.0):
            model, dv = deep_well(dv_height, width=0.5)
            res = wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                                    model.x0)
            actions.append(res.action)
        assert actions[0] < actions[1] < actions[2]
        assert all(a > 0 for a in actions)

    def test_rejects_rising_turning_point(self):
        # slope has the wrong sign on the outer face of the barrier
        with pytest.raises(ValueError, match="fall"):
            wkb.barrier_action(lambda x: x * x, energy=0.25,
                               turning_point=0.5)


class TestScaling:
    def test_splitting_scales_with_coordinate_stretch(self):
        # deltaV2(x) = s^2 deltaV(s x) maps spectra by a factor s^2
        model, dv = deep_well()
        curv = models.curvature_at_minima(model)
        s = 1.7
        dv2 = lambda x: s**2 * dv(s * x)
        base = wkb.wkb_splitting(dv, curv, model.x0)
        stretched = wkb.wkb_splitting(dv2, s**4 * curv, model.x0 / s)
        assert stretched.splitting / s**2 == pytest.approx(base.splitting,
                                                           rel=1e-9)
        assert stretched.action == pytest.approx(base.action, rel=1e-9)


class TestApplicabilityLimits:
    def test_shallow_well_raises(self):
        # sigma close to x0: ground level exceeds the tiny barrier
        model = models.TwoGaussianModel(sigma=1.02)
        dv = lambda x: models.quantum_potential_closed(model, x)
        with pytest.raises(wkb.WkbInapplicableError, match="barrier top"):
            wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                              model.x0)

    def test_handcrafted_low_barrier_raises(self):
        dv = lambda x: 0.05 * (x * x - 1.0) ** 2
        with pytest.raises(wkb.WkbInapplicableError):
            wkb.wkb_splitting(dv, 0.4, 1.0)

    def test_quartic_well_below_three_eighths_is_no_minimum(self):
        # at du = 0.2, deltaV''(x0) = -1.12: x0 is not a minimum of deltaV
        row = experiments.evaluate(models.QuarticMeanFieldModel(du=0.2))
        assert row.failures["wkb"].startswith("WkbInapplicableError: ")
        assert "not a minimum" in row.failures["wkb"]
        with pytest.raises(wkb.WkbInapplicableError, match="curvature_min"):
            wkb.wkb_splitting(lambda x: x * x, math.nan, 1.0)

    def test_parameter_validation(self):
        dv = lambda x: (x * x - 1.0) ** 2
        with pytest.raises(ValueError, match="curvature_min"):
            wkb.wkb_splitting(dv, -8.0, 1.0)
        with pytest.raises(ValueError, match="x_min"):
            wkb.wkb_splitting(dv, 8.0, -1.0)
        # a NaN passes x_min <= 0 and used to reach the turning-point bracket
        with pytest.raises(ValueError, match="x_min must be positive"):
            wkb.wkb_splitting(dv, 8.0, math.nan)


class TestUnderflow:
    def test_underflowing_barrier_factor_raises(self):
        # action ~796: exp(-Theta) is below the smallest float
        model = models.TwoGaussianModel(sigma=0.025)
        dv = lambda x: models.quantum_potential_closed(model, x)
        with pytest.raises(numerics.NumericsError, match="action 79"):
            wkb.wkb_splitting(dv, models.curvature_at_minima(model),
                              model.x0)


class TestAccuracyRegime:
    def test_approaches_exact_for_high_barriers(self):
        sigma = models.sigma_for_du(12.0)
        model = models.TwoGaussianModel(sigma=sigma)
        dv = lambda x: models.quantum_potential_closed(model, x)
        curv = models.curvature_at_minima(model)
        semic = wkb.wkb_splitting(dv, curv, model.x0).splitting
        truth = exact.green_splitting(models.meanfield_view(model))
        assert truth.converged
        assert semic == pytest.approx(truth.splitting, rel=0.03)


class TestSemiclassicalPlateau:
    """The wkb error does not vanish as the barrier grows.

    Pinned at its measured values so that a change to the WKB estimate
    cannot move them silently: the two-Gaussian (alpha = 1) error settles
    on a plateau near +1.29e-2 from dU = 100 to 600, and the quartic error
    grows with dU."""

    @pytest.mark.parametrize("du", [100.0, 300.0, 600.0])
    def test_two_gaussian_plateau(self, du):
        row = experiments.evaluate(
            models.TwoGaussianModel(sigma=models.sigma_for_du(du)))
        assert 1.28e-2 <= row.rel_errors["wkb"] <= 1.30e-2

    @pytest.mark.parametrize("du, error", [(40.0, 6.65e-3), (100.0, 4.166e-2),
                                           (300.0, 6.160e-2)])
    def test_quartic_growth(self, du, error):
        row = experiments.evaluate(models.QuarticMeanFieldModel(du=du))
        assert row.rel_errors["wkb"] == pytest.approx(error, abs=5e-4)
