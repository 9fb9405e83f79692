"""Model-layer checks: closed forms, validity handling, inverse design."""

import math
import re

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
    def test_wide_sigma_constructs_with_overlap_warning(self):
        m = models.TwoGaussianModel(sigma=0.9)
        assert [w.split(":")[0] for w in m.validity_warnings] == [
            "well separation is marginal"]

    def test_overlap_warning_flags_every_inaccurate_closed_form(self):
        # the closed-form dU and dV drop O(S) terms; every two-maximum
        # model whose label is off by more than 1e-2 from the barrier of
        # its own U and deltaV on a fine grid carries the S warning
        x = np.linspace(0.0, 1.5, 20001)
        models_seen, off = 0, []
        for alpha in (1.0, 2.0, 3.0, 5.0):
            for ratio in np.arange(0.15, 0.93 + 1e-9, 0.02):
                m = models.TwoGaussianModel(sigma=float(ratio), alpha=alpha)
                if not m.has_two_maxima():
                    continue
                models_seen += 1
                u, dv = m.meanfield_potential(x), m.quantum_potential(x)
                h = m.barrier_heights()
                truth = ((h.delta_u, u[0] - u.min()),
                         (h.delta_v, dv[0] - dv.min()))
                if any(abs(label - t) > 1e-2 * t for label, t in truth):
                    off.append(m)
        assert (models_seen, len(off)) == (105, 53)
        for m in off:
            assert any(w.startswith("well separation is marginal")
                       for w in m.validity_warnings), (m.sigma, m.alpha)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError, match="alpha"):
            models.TwoGaussianModel(sigma=0.3, alpha=0.5)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            models.TwoGaussianModel(sigma=-0.1)
        with pytest.raises(ValueError):
            models.TwoGaussianModel(sigma=0.3, x0=0.0)

    @pytest.mark.parametrize("sigma, alpha, x0", [
        (0.3593, 1.0, 1.0), (0.9, 1.0, 1.0), (1.2, 1.0, 1.0), (0.6, 3.0, 1.0),
        (0.5, 3.0, 1.0), (0.9, 2.0, 1.7), (1.5, 1.2, 1.7),
        (0.5, 4.0, 1.0)])  # x0^2 = alpha sigma^2: U''(0) = 0, U rises as x^4
    def test_two_maxima_where_the_origin_is_a_minimum_of_u(self, sigma,
                                                            alpha, x0):
        m = models.TwoGaussianModel(sigma=sigma, alpha=alpha, x0=x0)
        h = 1e-3 * x0
        bump = float(np.sum(m.meanfield_potential([-h, h]))
                     - 2.0 * m.meanfield_potential(0.0))
        assert m.has_two_maxima() == (bump < 0.0)


class TestNonFiniteClosedForms:
    """A closed form that is not a finite float is a ValueError naming the
    parameters, not a bare ZeroDivisionError (sigma^2 underflows) or
    OverflowError (a float ** overflows) from inside the constructor."""

    @pytest.mark.parametrize("kwargs, named", [
        (dict(sigma=1e-300), "sigma = 1e-300, x0 = 1, alpha = 1"),
        (dict(sigma=0.3, x0=1e300), "sigma = 0.3, x0 = 1e+300, alpha = 1"),
        (dict(sigma=0.5, alpha=1e300), "sigma = 0.5, x0 = 1, alpha = 1e+300"),
        (dict(sigma=models.sigma_for_du(1e200)), "sigma = 7.07107e-101"),
    ], ids=["sigma", "x0", "alpha", "du"])
    def test_two_gaussian(self, kwargs, named):
        with pytest.raises(ValueError, match=re.escape(
                "closed forms are not all finite floats at " + named)):
            models.TwoGaussianModel(**kwargs)

    @pytest.mark.parametrize("du", [1e154, 1e200])
    def test_quartic(self, du):
        # du^2 overflows, and delta_v would be inf * 0 = nan
        with pytest.raises(ValueError,
                           match=re.escape(f"at du = {du:g}, x0 = 1") + "$"):
            models.QuarticMeanFieldModel(du=du)

    @pytest.mark.parametrize("x0, sigma, alpha", [
        (1e154, 1e116, 1e77),     # alpha sigma^2 and 2 x0^2 overflow
        (1e154, 3e153, 1.0),      # 2 x0^2 overflows
        (5e153, 5e115, 1e77),     # alpha sigma^2 overflows
    ])
    def test_overlap_is_right_where_the_heights_are_finite(self, x0, sigma,
                                                           alpha):
        m = models.TwoGaussianModel(sigma=sigma, x0=x0, alpha=alpha)
        expected = math.exp(-2.0 * (x0 / sigma) ** 2 / alpha)
        assert models.superposition_coefficient(m) == pytest.approx(
            expected, rel=1e-12)

    def test_highest_evaluated_barriers_are_accepted(self):
        for model in (models.TwoGaussianModel(sigma=models.sigma_for_du(720.0)),
                      models.QuarticMeanFieldModel(du=750.0)):
            heights = model.barrier_heights()
            assert math.isfinite(heights.delta_u + heights.delta_v)


class TestClosedForms:
    # printed reference row: alpha=1.5 -> sigma/x0=0.3247, dU=3.70,
    # V''(0)=-1124, V''(x0)=45, w/x0=0.49
    def test_reference_row_alpha_15(self):
        m = table_model(1.5)
        assert m.sigma == pytest.approx(0.3247, abs=5e-5)
        h = m.barrier_heights()
        assert h.delta_u == pytest.approx(3.70, abs=0.005)
        assert m.curvature_at_origin() == pytest.approx(-1124, abs=0.5)
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
        h = m.barrier_heights()
        assert h.delta_v == pytest.approx(
            (2.0 / alpha) * (h.delta_u + alpha * LN2) ** 2, rel=1e-12)

    def test_module_names_are_the_two_gaussian_methods(self):
        # the benchmark calls both by their module names
        assert models.quantum_potential_closed is \
            models.TwoGaussianModel.quantum_potential
        assert models.curvature_at_minima is \
            models.TwoGaussianModel.curvature_at_x0

    def test_superposition_coefficient(self):
        m = models.TwoGaussianModel(sigma=0.4, alpha=2.0)
        expected = math.exp(-2.0 * m.x0**2 / (2.0 * 0.4**2))
        assert models.superposition_coefficient(m) == pytest.approx(
            expected, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        # a float runs the same expression on Python floats (math.exp), an
        # array on numpy (np.exp).  The quartic deltaV has no exponential,
        # and at sigma = 0.0353, |x| >= 1 exp(-2|u|) underflows to 0 on both
        # paths, so equality is exact there too.  Elsewhere math.exp and
        # np.exp may differ by an ulp, so no other point is added.
        cases = [
            (table_model(1.0), np.linspace(-1.5, 1.5, 7)),
            (models.TwoGaussianModel(sigma=0.0353), [-1.5, -1.0, 1.0, 1.5]),
            (models.QuarticMeanFieldModel(du=3.5, x0=1.3),
             np.linspace(-2.0, 2.0, 41)),
        ]
        for m, xs in cases:
            xs = np.asarray(xs)
            vec = m.quantum_potential(xs)
            assert vec.shape == xs.shape
            for x, v in zip(xs, vec):
                for scalar in (m.quantum_potential(float(x)),
                               m.quantum_potential(x)):
                    assert type(scalar) is float
                    assert scalar == v


class TestBarrierWidth:
    def test_width_hits_half_depth_level(self):
        m = table_model(2.0)
        w = models.barrier_width(m)
        level = (models.quantum_potential_closed(m, 0.0)
                 - m.barrier_heights().delta_v / 2.0)
        assert models.quantum_potential_closed(m, w / 2.0) == pytest.approx(
            level, abs=1e-8 * m.barrier_heights().delta_v)

    def test_width_grows_with_alpha(self):
        widths = [models.barrier_width(table_model(a))
                  for a in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_no_width_when_origin_not_a_maximum(self):
        # close to the two-minimum limit the origin flattens out
        limit = models.two_minimum_alpha_limit(30.0)
        m = table_model(limit * 1.02)
        assert m.curvature_at_origin() > 0
        with pytest.raises(ValueError):
            models.barrier_width(m)

    def test_no_width_when_level_lies_below_the_floor_at_x0(self):
        # at dV = 15, alpha = 25 the wells overlap so strongly that
        # deltaV(x0) sits above the half-height level: no crossing in (0, x0)
        m = table_model(25.0, delta_v=15.0)
        level = m.quantum_potential(0.0) - 0.5 * m.barrier_heights().delta_v
        assert m.quantum_potential(m.x0) > level
        with pytest.raises(ValueError, match=(
                r"half-height level -6\.19306 lies below deltaV\(x0\) = "
                r"-0\.679674")):
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
        assert below.curvature_at_origin() < 0
        assert above.curvature_at_origin() > 0

    @pytest.mark.parametrize("delta_v", [16.005, 16.01, 16.5, 30.0])
    def test_first_sign_change_above_alpha_one(self, delta_v):
        # just above dV = 16 the curvature is positive on a narrow alpha
        # window only; the limit is where it first leaves the negative side
        limit = models.two_minimum_alpha_limit(delta_v)
        curv = [table_model(a, delta_v).curvature_at_origin()
                for a in np.linspace(1.0, limit * (1.0 - 1e-6), 4001)]
        assert max(curv) < 0
        assert table_model(limit * (1.0 + 1e-6),
                           delta_v).curvature_at_origin() > 0

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
        assert m.barrier_heights().delta_v == pytest.approx(30.0, rel=1e-12)

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
    def test_no_validity_warnings(self):
        # split's JSON reads every model's validity_warnings
        m = models.QuarticMeanFieldModel(du=2.0)
        assert m.validity_warnings == ()
        assert m == models.QuarticMeanFieldModel(du=2.0)

    def test_curvature_closed_form(self):
        m = models.QuarticMeanFieldModel(du=2.0)
        assert m.curvature_at_origin() == pytest.approx(
            8.0 * 4.0 - 12.0 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("du", [0.5, 1.0, 3.5, 8.0, 12.0])
    def test_barrier_heights_closed_form(self, du):
        # reference: a bounded minimizer of deltaV over s in [0, 3]
        m = models.QuarticMeanFieldModel(du=du)
        found = minimize_scalar(
            m.quantum_potential,
            bounds=(0.0, 3.0), method="bounded", options={"xatol": 1e-12})
        heights = m.barrier_heights()
        assert heights.delta_u == du
        assert heights.delta_v == pytest.approx(2.0 * du - found.fun,
                                                rel=1e-12)

    @pytest.mark.parametrize("du", [0.5, 3.5, 12.0])
    def test_curvature_at_x0_closed_form(self, du):
        # five-point second difference of deltaV(x0 s) at s = 1, at x0 = 2
        m = models.QuarticMeanFieldModel(du=du, x0=2.0)
        h = 1e-3
        v = [m.quantum_potential(2.0 * (1.0 + k * h))
             for k in (-2, -1, 0, 1, 2)]
        fd = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        assert m.curvature_at_x0() == pytest.approx(fd, rel=1e-8)

    def test_quantum_barrier_top(self):
        # deltaV(0) = 2 dU in reduced units
        m = models.QuarticMeanFieldModel(du=5.0)
        assert m.quantum_potential(0.0) == pytest.approx(
            10.0, rel=1e-12)

    def test_meanfield_minima_at_x0(self):
        m = models.QuarticMeanFieldModel(du=3.0)
        assert m.meanfield_potential(1.0) == 0.0
        assert m.meanfield_potential(0.0) == pytest.approx(3.0)

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
        closed = model.quantum_potential(x)
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
            nodes = np.linspace(0.0, view.x0, 33)[:-1, None] + half[:32] * (
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
        assert v1.x0 == v2.x0 == 1.0
        with pytest.raises(TypeError):
            models.meanfield_view(object())

    def test_protocol_is_checked_once_per_class(self):
        # Model lists only what generic code reads: no curvature_at_origin
        class Bare:
            x0 = 1.0
            meanfield_potential = quantum_potential = staticmethod(abs)
            barrier_heights = curvature_at_x0 = domain_halfwidth = label = \
                profile_extras = two_gaussian_columns = has_two_maxima = \
                staticmethod(abs)

        assert models.require_model(bare := Bare()) is bare
        assert Bare in models._MODEL_CLASSES
        del Bare.label          # the class stays remembered as a model
        assert models.require_model(bare) is bare
        with pytest.raises(TypeError, match="unsupported model type: int"):
            models.require_model(3)
