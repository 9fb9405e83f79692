"""Model-layer checks: closed forms, validity handling, inverse design."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from dwsplit import localization, models, numerics

LN2 = math.log(2.0)


def table_model(alpha, delta_v=30.0):
    return models.TwoGaussianModel(
        sigma=models.sigma_for_delta_v(delta_v, alpha), alpha=alpha)


class TestTwoGaussianModel:
    def test_rejects_wide_sigma(self):
        with pytest.raises(ValueError, match="sigma/x0"):
            models.TwoGaussianModel(sigma=0.9)

    def test_allow_flag_records_warning(self):
        m = models.TwoGaussianModel(sigma=0.9, allow_out_of_range=True)
        assert any("sigma" in w for w in m.validity_warnings)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError, match="alpha"):
            models.TwoGaussianModel(sigma=0.3, alpha=0.5)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            models.TwoGaussianModel(sigma=-0.1)
        with pytest.raises(ValueError):
            models.TwoGaussianModel(sigma=0.3, x0=0.0)


class TestClosedForms:
    # printed reference row: alpha=1.5 -> sigma/x0=0.3247, dU=3.70,
    # V''(0)=-1124, V''(x0)=45, w/x0=0.49
    def test_reference_row_alpha_15(self):
        m = table_model(1.5)
        assert m.sigma == pytest.approx(0.3247, abs=5e-5)
        h = models.barrier_heights(m)
        assert h.delta_u == pytest.approx(3.70, abs=0.005)
        assert models.curvature_at_origin(m) == pytest.approx(-1124, abs=0.5)
        assert models.curvature_at_minima(m) == pytest.approx(45.0, abs=1e-9)
        assert models.barrier_width(m) == pytest.approx(0.49, abs=0.005)

    def test_curvature_minima_closed_form(self):
        m = models.TwoGaussianModel(sigma=0.3, alpha=2.0)
        assert models.curvature_at_minima(m) == pytest.approx(
            m.x0**4 / (2.0 * 2.0 * 0.3**4) * 2.0 / m.x0**2, rel=1e-12)

    @given(sigma=st.floats(0.05, 0.5), alpha=st.floats(1.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_barrier_relation_identity(self, sigma, alpha):
        m = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
        h = models.barrier_heights(m)
        assert h.delta_v == pytest.approx(
            (2.0 / alpha) * (h.delta_u + alpha * LN2) ** 2, rel=1e-12)

    def test_superposition_coefficient(self):
        m = models.TwoGaussianModel(sigma=0.4, alpha=2.0)
        expected = math.exp(-2.0 * m.x0**2 / (2.0 * 0.4**2))
        assert models.superposition_coefficient(m) == pytest.approx(
            expected, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        m = table_model(1.0)
        xs = np.linspace(-1.5, 1.5, 7)
        vec = models.quantum_potential_closed(m, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert models.quantum_potential_closed(m, float(x)) == v


class TestBarrierWidth:
    def test_width_hits_half_depth_level(self):
        m = table_model(2.0)
        w = models.barrier_width(m)
        level = (models.quantum_potential_closed(m, 0.0)
                 - models.barrier_heights(m).delta_v / 2.0)
        assert models.quantum_potential_closed(m, w / 2.0) == pytest.approx(
            level, abs=1e-8 * models.barrier_heights(m).delta_v)

    def test_width_grows_with_alpha(self):
        widths = [models.barrier_width(table_model(a))
                  for a in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_no_width_when_origin_not_a_maximum(self):
        # close to the two-minimum limit the origin flattens out
        limit = models.two_minimum_alpha_limit(30.0)
        m = table_model(limit * 1.02)
        assert models.curvature_at_origin(m) > 0
        with pytest.raises(ValueError):
            models.barrier_width(m)


class TestTwoMinimumLimit:
    def test_limit_value_dv30(self):
        # frozen from a bisection on the closed-form curvature
        assert models.two_minimum_alpha_limit(30.0) == pytest.approx(
            3.4656601791, abs=1e-8)

    def test_curvature_sign_flips_at_limit(self):
        limit = models.two_minimum_alpha_limit(30.0)
        below = table_model(limit * 0.999)
        above = table_model(limit * 1.001)
        assert models.curvature_at_origin(below) < 0
        assert models.curvature_at_origin(above) > 0

    @pytest.mark.parametrize("delta_v", [16.005, 16.01, 16.5, 30.0])
    def test_first_sign_change_above_alpha_one(self, delta_v):
        # just above dV = 16 the curvature is positive on a narrow alpha
        # window only; the limit is where it first leaves the negative side
        limit = models.two_minimum_alpha_limit(delta_v)
        curv = [models.curvature_at_origin(table_model(a, delta_v))
                for a in np.linspace(1.0, limit * (1.0 - 1e-6), 4001)]
        assert max(curv) < 0
        assert models.curvature_at_origin(
            table_model(limit * (1.0 + 1e-6), delta_v)) > 0

    def test_limit_peaks_at_dv_16(self):
        # the largest limit sits at dV = 16, on the branch with b < 1
        assert models.two_minimum_alpha_limit(16.0) == pytest.approx(
            ((math.sqrt(32.0) + 8.0) / 2.0) ** 2, rel=1e-14)
        assert max(models.two_minimum_alpha_limit(dv)
                   for dv in np.linspace(0.1, 2000.0, 2001)) < 46.7

    def test_no_limit_at_tiny_barrier(self):
        with pytest.raises(ValueError, match="even for alpha = 1"):
            models.two_minimum_alpha_limit(0.08)

    def test_larger_at_lower_barrier(self):
        assert models.two_minimum_alpha_limit(15.0) > \
            models.two_minimum_alpha_limit(30.0)


class TestSolveParameters:
    def test_round_trip_table_width(self):
        m = models.solve_parameters(30.0, 0.64)
        assert m.alpha == pytest.approx(2.0, abs=2e-3)
        assert m.sigma == pytest.approx(0.3021, abs=5e-5)
        assert models.barrier_width(m) == pytest.approx(0.64, rel=1e-10)
        assert models.barrier_heights(m).delta_v == pytest.approx(30.0,
                                                                  rel=1e-12)

    def test_unattainable_width_names_band(self):
        with pytest.raises(ValueError, match="attainable"):
            models.solve_parameters(30.0, 1.5)

    @pytest.mark.parametrize("call, name", [
        (lambda v: models.sigma_for_du(v), "du"),
        (lambda v: models.sigma_for_delta_v(v, 1.0), "delta_v"),
        (lambda v: models.sigma_for_delta_v(30.0, v), "alpha"),
        (lambda v: models.two_minimum_alpha_limit(v), "delta_v"),
        (lambda v: models.solve_parameters(v, 0.64), "delta_v"),
        (lambda v: models.solve_parameters(30.0, v), "width"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_is_named(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{name} must .*finite"):
            call(value)


class TestQuartic:
    def test_curvature_closed_form(self):
        m = models.QuarticMeanFieldModel(du=2.0)
        assert models.quartic_curvature_at_origin(m) == pytest.approx(
            8.0 * 4.0 - 12.0 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("du", [0.5, 1.0, 3.5, 8.0, 12.0])
    def test_barrier_heights_closed_form(self, du):
        # reference: a bounded minimizer of deltaV over s in [0, 3]
        m = models.QuarticMeanFieldModel(du=du)
        found = minimize_scalar(
            lambda s: models.quartic_quantum_potential(m, s),
            bounds=(0.0, 3.0), method="bounded", options={"xatol": 1e-12})
        heights = models.quartic_barrier_heights(m)
        assert heights.delta_u == du
        assert heights.delta_v == pytest.approx(2.0 * du - found.fun,
                                                rel=1e-12)

    @pytest.mark.parametrize("du", [0.5, 3.5, 12.0])
    def test_curvature_at_x0_closed_form(self, du):
        # five-point second difference of deltaV(x0 s) at s = 1, at x0 = 2
        m = models.QuarticMeanFieldModel(du=du, x0=2.0)
        h = 1e-3
        v = [models.quartic_quantum_potential(m, 2.0 * (1.0 + k * h))
             for k in (-2, -1, 0, 1, 2)]
        fd = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        assert models.quartic_curvature_at_x0(m) == pytest.approx(fd,
                                                                  rel=1e-8)

    def test_quantum_barrier_top(self):
        # deltaV(0) = 2 dU in reduced units
        m = models.QuarticMeanFieldModel(du=5.0)
        assert models.quartic_quantum_potential(m, 0.0) == pytest.approx(
            10.0, rel=1e-12)

    def test_meanfield_minima_at_x0(self):
        m = models.QuarticMeanFieldModel(du=3.0)
        assert models.quartic_potential(m, 1.0) == 0.0
        assert models.quartic_potential(m, 0.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("du", [0.5, 3.5, 8.0, 12.0])
    def test_density_route_recovers_quantum_potential(self, du):
        # deltaV = x0^2 (sqrt rho)''/sqrt rho, five-point Laplacian
        model = models.QuarticMeanFieldModel(du=du)
        rho = models.meanfield_view(model).rho_eq
        psi = lambda y: np.sqrt(rho(y))
        x = np.linspace(-1.5, 1.5, 801)
        h = 1e-3
        lap = (-psi(x + 2 * h) + 16 * psi(x + h) - 30 * psi(x)
               + 16 * psi(x - h) - psi(x - 2 * h)) / (12 * h * h)
        closed = models.quartic_quantum_potential(model, x)
        assert np.max(np.abs(lap / psi(x) - closed)) <= \
            1e-6 * np.max(np.abs(closed))

    def test_view_density_normalized(self):
        # a view carries rho_eq up to a constant; discretize normalizes it
        # on its own nodes, and agrees with the density normalized by quad
        quartic = models.QuarticMeanFieldModel(du=2.0)
        two_gaussian = table_model(3.0)
        for model in (quartic, two_gaussian):
            view = models.meanfield_view(model)
            half, rho, *_ = localization.discretize(view, 64)
            nodes = np.linspace(0.0, view.x_m, 33)[:-1, None] + half[:32] * (
                1.0 + numerics.NODES)
            assert 2.0 * np.sum(half * numerics.WEIGHTS * rho) == \
                pytest.approx(1.0, rel=1e-14)
            z, _ = quad(view.rho_eq, -view.domain_halfwidth,
                        view.domain_halfwidth, epsabs=0.0, epsrel=1e-13)
            np.testing.assert_allclose(rho[:32], view.rho_eq(nodes) / z,
                                       rtol=1e-13)


class TestMeanFieldViewDispatch:
    def test_dispatch_both_model_kinds(self):
        v1 = models.meanfield_view(table_model(1.0))
        v2 = models.meanfield_view(models.QuarticMeanFieldModel(du=2.0))
        assert v1.x_m == v2.x_m == 1.0
        with pytest.raises(TypeError):
            models.meanfield_view(object())
