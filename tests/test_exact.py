"""Tests for the sinc-grid solver and the Green's-operator solver."""

import math

import numpy as np
import pytest

from dwsplit import exact, localization, models, numerics

from helpers import fd_lowest, richardson_green, running_integral


def closed_delta_v(sigma, alpha=1.0):
    model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
    dv = lambda x: models.quantum_potential_closed(model, x)
    return model, dv


class TestHamiltonian:
    def test_rejects_non_even_potential(self):
        with pytest.raises(ValueError, match="even"):
            exact.exact_splitting(lambda x: 0.25 * x * x + 0.1 * x, 0.0, 0.5)

    def test_rejects_scalar_only_potential(self):
        with pytest.raises(ValueError, match="same shape"):
            exact.exact_splitting(lambda x: 1.0, 0.0, 0.5)

    def test_rejects_non_finite_potential(self):
        with pytest.raises(ValueError, match="finite"):
            exact.exact_splitting(lambda x: np.full_like(x, np.nan), 0.0, 0.5)


class TestKnownSpectra:
    def test_shifted_harmonic_levels(self):
        # -d2/dx2 + x^2/4 - 1/2 has spectrum 0, 1, 2, ...
        res = exact.exact_splitting(lambda x: 0.25 * x * x - 0.5,
                                    well_location=0.0, well_curvature=0.5)
        assert res.e0 == pytest.approx(0.0, abs=1e-10)
        assert res.e1 == pytest.approx(1.0, rel=1e-10)
        assert res.converged

    def test_double_well_against_grid_solver(self):
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        ref = fd_lowest(dv)
        assert res.splitting == pytest.approx(ref[1] - ref[0], rel=1e-6)

    def test_cli_split_model_value_is_pinned(self):
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        assert res.splitting == pytest.approx(0.1899376322540646, rel=1e-10)

    def test_ground_level_is_zero_for_density_potentials(self):
        # deltaV built from a normalized density annihilates rho^(1/2)
        for sigma, alpha in ((0.3593, 1.0), (0.2857, 2.5)):
            model, dv = closed_delta_v(sigma, alpha)
            res = exact.exact_splitting(dv, model.x0,
                                        models.curvature_at_minima(model))
            assert abs(res.e0) < 1e-9

    def test_doublet_is_well_separated(self):
        # the third level lies far above the doublet, and the lowest odd
        # minus the lowest even level is the doublet splitting
        model, dv = closed_delta_v(0.3247, 1.5)
        ref = fd_lowest(dv, k=3)
        assert (ref[2] - ref[0]) / (ref[1] - ref[0]) > 10.0
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        assert res.splitting == pytest.approx(ref[1] - ref[0], rel=1e-6)


class TestConvergenceBookkeeping:
    def test_history_records_doublings(self):
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        sizes = [n for n, _ in res.convergence_history]
        assert sizes == sorted(sizes)
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert res.n_basis_used == sizes[-1]
        assert res.converged

    def test_unconverged_flag_instead_of_raise(self, monkeypatch):
        monkeypatch.setattr(exact, "_BASIS_SIZES", [4, 8])
        monkeypatch.setattr(exact, "_BASIS_TOL", 1e-15)
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        assert not res.converged
        assert res.n_basis_used == 8

    def test_unresolved_splitting_is_not_converged(self):
        # at dU = 60 the splitting, ~1e-23, is far below the eigensolver noise
        model = models.TwoGaussianModel(sigma=models.sigma_for_du(60.0))
        dv = lambda x: models.quantum_potential_closed(model, x)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        assert not res.converged

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="curvature"):
            exact.exact_splitting(lambda x: -x * x, 0.0, -2.0)
        with pytest.raises(ValueError, match="curvature"):
            exact.exact_splitting(lambda x: 0.25 * x * x, 1.0, float("nan"))

    @pytest.mark.parametrize("du, converged", [(1.0, True), (4.0, True),
                                               (8.0, True), (12.0, False),
                                               (20.0, False), (30.0, False)])
    def test_converged_means_resolved(self, du, converged):
        # the flag is set only where the value agrees with the
        # Green's-operator solver, which resolves every dU here
        model = models.TwoGaussianModel(sigma=models.sigma_for_du(du),
                                        allow_out_of_range=du < 1.31)
        dv = lambda x: models.quantum_potential_closed(model, x)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        assert res.converged is converged
        if converged:
            truth = exact.green_splitting(models.meanfield_view(model))
            assert res.splitting == pytest.approx(truth.splitting, rel=1e-8)


class TestGreenSplitting:
    """Inverse iteration on the Green's operator of the odd sector."""

    @staticmethod
    def view(du):
        return models.meanfield_view(models.TwoGaussianModel(
            sigma=models.sigma_for_du(du), allow_out_of_range=du < 1.31))

    @pytest.mark.parametrize("du, value", [(20.0, 1.350063916e-7),
                                           (30.0, 1.1193135052e-11),
                                           (40.0, 7.799048778e-16)])
    def test_high_barrier_values(self, du, value):
        res = exact.green_splitting(self.view(du))
        assert res.converged
        assert res.splitting == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("sigma, x0", [(0.3, 1.0), (0.5, 2.0)])
    def test_ornstein_uhlenbeck_eigenvalue(self, sigma, x0):
        # for one Gaussian, L phi = -x0^2 (phi'' - x phi'/sigma^2) and
        # phi = x is the odd eigenfunction, with eigenvalue x0^2/sigma^2
        view = models.MeanFieldView(
            rho_eq=lambda x: (np.exp(-0.5 * (x / sigma) ** 2)
                              / (sigma * np.sqrt(2.0 * np.pi))),
            x0=x0, x_m=sigma, domain_halfwidth=10.0 * sigma)
        res = exact.green_splitting(view)
        assert res.converged
        assert res.splitting == pytest.approx((x0 / sigma) ** 2, rel=1e-13)

    @pytest.mark.parametrize("model", [
        models.TwoGaussianModel(sigma=models.sigma_for_du(400.0)),
        models.QuarticMeanFieldModel(du=659.0),
    ], ids=["two_gaussian-du400", "quartic-du659"])
    def test_no_overflow_at_high_barriers(self, model):
        # 1/rho_eq reaches ~e^dU, and rho psi^2 ~e^(2 dU) once overflowed
        # to inf, which took the value to 0
        res = exact.green_splitting(models.meanfield_view(model))
        lower, upper = res.bracket
        assert res.converged
        assert 0.0 < lower <= res.splitting <= upper

    @pytest.mark.parametrize("model", [
        *(models.TwoGaussianModel(sigma=models.sigma_for_du(du),
                                  allow_out_of_range=du < 1.31)
          for du in (1.0, 6.0, 20.0, 40.0)),
        # unclamped, the Rayleigh quotient rounds 3 ulps below the lower end
        models.QuarticMeanFieldModel(du=185.0),
    ], ids=["1.0", "6.0", "20.0", "40.0", "quartic-185.0"])
    def test_bracket_holds_the_value(self, model):
        res = exact.green_splitting(models.meanfield_view(model))
        lower, upper = res.bracket
        assert lower <= res.splitting <= upper
        assert upper - lower <= 1e-12 * res.splitting

    @pytest.mark.parametrize("du", [1.0, 12.0, 40.0])
    def test_doubling_the_panels_keeps_the_value(self, du, monkeypatch):
        res = exact.green_splitting(self.view(du))
        monkeypatch.setattr(localization, "PANEL_COUNTS",
                            [2 * res.n_panels, 4 * res.n_panels])
        finer = exact.green_splitting(self.view(du))
        assert finer.converged and finer.n_panels == 4 * res.n_panels
        assert finer.splitting == pytest.approx(res.splitting, rel=1e-12)

    def test_localization_bounds_it_up_to_du_40(self):
        # the localization value is the Rayleigh quotient of the start
        # vector, so it lies above; at dU = 40 the two meet within an ulp
        slack = 4.0 * np.finfo(float).eps
        for du in np.linspace(1.0, 40.0, 14):
            view = self.view(du)
            value = exact.green_splitting(view).splitting
            bound = localization.splitting_localization(view).splitting
            assert bound >= value * (1.0 - slack), du

    @pytest.mark.parametrize("du", [30.0, 40.0])
    def test_iterates_from_the_localization_function(self, du):
        # at high barriers g is already the eigenfunction to ~1e-16, so one
        # application of K closes the bracket
        assert exact.green_splitting(self.view(du)).iterations == 1

    def test_warm_start_needs_one_iteration_on_default_rows(
            self, default_sweeps):
        # each doubling starts from g plus the bisected correction of the
        # coarser panels; from g alone the final count took 3-14 here
        rows = [row for _, rows, _ in default_sweeps.values() for row in rows]
        assert len(rows) == 90
        for row in rows:
            assert "exact" in row.splittings, row.swept_value
            assert row.diagnostics["iterations"] == 1, row.swept_value

    def test_warm_start_keeps_the_cold_start_values(self, default_sweeps,
                                                    monkeypatch):
        views = [models.meanfield_view(models.TwoGaussianModel(
                     sigma=row.sigma, alpha=row.alpha, x0=row.x0,
                     allow_out_of_range=True))
                 for _, rows, _ in default_sweeps.values() for row in rows]
        views += [models.meanfield_view(models.QuarticMeanFieldModel(du=du))
                  for du in (3.0, 185.0, 659.0)]
        warm = [exact.green_splitting(view) for view in views]
        # a zero correction starts every panel count from g
        monkeypatch.setattr(numerics, "bisect",
                            lambda f: np.zeros((2 * len(f), 16)))
        cold = [exact.green_splitting(view) for view in views]
        assert (sum(r.iterations for r in warm)
                < sum(r.iterations for r in cold))
        for w, c in zip(warm, cold):
            assert w.converged == c.converged
            assert w.n_panels == c.n_panels
            assert w.localization == c.localization
            assert abs(w.splitting - c.splitting) <= 4e-15 * c.splitting

    def test_one_sweep_applies_the_two_running_integrals(
            self, default_sweeps, monkeypatch):
        # K phi from one sweep of the panels equals the two running
        # integrals of its definition to 1e-14 on every node, also at
        # quartic du = 300, where 1/rho spans ~e^300
        views = [models.meanfield_view(models.TwoGaussianModel(
                     sigma=row.sigma, alpha=row.alpha, x0=row.x0,
                     allow_out_of_range=True))
                 for _, rows, _ in default_sweeps.values() for row in rows]
        views.append(models.meanfield_view(
            models.QuarticMeanFieldModel(du=300.0)))
        monkeypatch.setattr(exact, "_GREEN_ITERATIONS", 1)
        for view in views:
            for panels in (32, 64, 128):
                *arrays, g, _ = localization.discretize(view, panels)
                half, rho, inv, _ = arrays
                *_, k_g = exact._inverse_iteration(view, *arrays, g)
                expected = running_integral(running_integral(
                    rho * g, half, reverse=True) * inv, half) / view.x0**2
                expected /= expected.max()
                assert np.all(np.abs(k_g - expected) <= 1e-14 * expected), (
                    view.label, panels)

    def test_against_the_trapezoid_green_oracle(self, default_sweeps):
        # an oracle that shares no panel matrix with the package, on every
        # sixth row of the default sweeps and up to the highest barriers
        chosen = [models.TwoGaussianModel(
                      sigma=row.sigma, alpha=row.alpha, x0=row.x0,
                      allow_out_of_range=True)
                  for _, rows, _ in default_sweeps.values()
                  for row in rows[::6]]
        chosen += [models.TwoGaussianModel(sigma=models.sigma_for_du(du))
                   for du in (40.0, 100.0, 400.0, 700.0)]
        chosen += [models.QuarticMeanFieldModel(du=du)
                   for du in (2.0, 100.0, 659.0)]
        for model in chosen:
            view = models.meanfield_view(model)
            res = exact.green_splitting(view)
            assert res.converged, view.label
            assert res.splitting == pytest.approx(richardson_green(view),
                                                  rel=1e-11), view.label

    def test_quartic_against_grid_solver(self):
        model = models.QuarticMeanFieldModel(du=3.0)
        ref = fd_lowest(lambda x: models.quartic_quantum_potential(model, x))
        res = exact.green_splitting(models.meanfield_view(model))
        assert res.splitting == pytest.approx(ref[1] - ref[0], rel=1e-6)

    def test_unconverged_flag_instead_of_raise(self, monkeypatch):
        # one application of K does not close the bracket at dU = 3
        monkeypatch.setattr(exact, "_GREEN_ITERATIONS", 1)
        res = exact.green_splitting(self.view(3.0))
        assert not res.converged
        assert res.iterations == 1
        assert res.n_panels == localization.PANEL_COUNTS[-1]

    @pytest.mark.parametrize("model", [
        models.QuarticMeanFieldModel(du=800.0),
        models.TwoGaussianModel(sigma=0.025),
    ], ids=["quartic-du800", "two_gaussian-sigma0.025"])
    def test_density_underflow_raises(self, model):
        with pytest.raises(numerics.NumericsError, match="underflows"):
            exact.green_splitting(models.meanfield_view(model))


class TestHighBarrierLimit:
    """exact tends to the Laplace limit of the paper's estimate.

    With rho normalized to unit mass and g -> 1 away from the barrier,
    <g|rho|g> -> 1 up to terms exponentially small in dU, so the splitting
    tends to 2 x0^2 / I with I = int_0^x0 dx / rho.  Both integrals are
    taken by Laplace's method (x0 = 1).

    Two-Gaussian, alpha = 1: rho = (e^-(x-x0)^2/2s^2 + e^-(x+x0)^2/2s^2)/Z
    with Z = 2 sqrt(2 pi) s exactly, and 1/rho = Z e^U with
    U = dU + x^2/2s^2 - ln cosh t, t = x x0/s^2, dU = x0^2/2s^2 - ln 2.
    Then, as x^2/2s^2 = s^2 t^2 / 2 x0^2,
    I = Z e^dU (s^2/x0) int_0^inf sech t (1 + s^2 t^2 / 2 x0^2 + ...) dt
      = Z e^dU (s^2/x0) (pi/2) (1 + <t^2>/(4 (dU + ln 2)) + ...),
    where <t^2> = int t^2 sech t / int sech t = (pi^3/8) / (pi/2) = pi^2/4.
    So 2 x0^2 / I = lam (1 - c/dU + O(1/dU^2)) with
    lam = x0^3 e^-dU / (sqrt(2 pi) s^3 pi/2) and c = pi^2/16.

    Quartic, U = du (1 - s^2)^2 with s = x/x0: near the well s = 1 + y,
    U = du (4y^2 + 4y^3 + y^4), and near the barrier
    U = du - du (2s^2 - s^4).  The Laplace expansion
    int e^(-a(y^2 + b y^3 + d y^4)) dy = sqrt(pi/a) (1 + (15b^2/16 - 3d/4)/a)
    gives Z = 2 x0 sqrt(pi/4du) (1 + 3/16du) (a = 4du, b = 1, d = 1/4) and
    I = Z x0 e^du (1/2) sqrt(pi/2du) (1 + 3/16du) (a = 2du, b = 0,
    d = -1/2).  So 2 x0^2 / I = lam (1 - c/du + O(1/du^2)) with
    lam = (sqrt 32 du / pi) e^-du, Kramers' harmonic formula, and c = 3/8.

    Neither c is fitted to the solver; the next order is bounded by
    0.5/dU^2 (measured -0.21 ... -0.145 and -0.35 ... -0.306 times 1/dU^2).
    """

    def assert_limit(self, model, du, lam, c):
        res = exact.green_splitting(models.meanfield_view(model))
        assert res.converged
        assert abs(res.splitting / (lam * (1.0 - c / du)) - 1.0) <= \
            0.5 / du**2

    @pytest.mark.parametrize("du", [20.0, 30.0, 50.0, 100.0, 200.0, 400.0,
                                    700.0])
    def test_two_gaussian(self, du):
        model = models.TwoGaussianModel(sigma=models.sigma_for_du(du))
        lam = math.exp(-du) / (math.sqrt(2.0 * math.pi) * model.sigma**3
                               * math.pi / 2.0)
        self.assert_limit(model, du, lam, math.pi**2 / 16.0)

    @pytest.mark.parametrize("du", [20.0, 30.0, 50.0, 100.0, 200.0, 400.0,
                                    659.0])
    def test_quartic(self, du):
        lam = math.sqrt(32.0) * du / math.pi * math.exp(-du)
        self.assert_limit(models.QuarticMeanFieldModel(du=du), du, lam, 0.375)
