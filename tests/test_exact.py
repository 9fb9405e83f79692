"""Tests for the oscillator-basis solver and the Green's-operator solver."""

import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from dwsplit import exact, localization, models, numerics

from helpers import fd_lowest


def closed_delta_v(sigma, alpha=1.0):
    model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
    dv = lambda x: models.quantum_potential_closed(model, x)
    return model, dv


class TestHermiteFunctions:
    def test_low_orders_match_explicit_formulas(self):
        xi = np.linspace(-3.0, 3.0, 11)
        table = exact.hermite_function_table(3, xi)
        psi0 = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
        assert np.allclose(table[0], psi0, rtol=1e-13)
        assert np.allclose(table[1], math.sqrt(2.0) * xi * psi0, rtol=1e-13)
        assert np.allclose(table[2], (2.0 * xi * xi - 1.0) / math.sqrt(2.0) * psi0,
                           rtol=1e-12, atol=1e-15)

    def test_orthonormal_on_dense_grid(self):
        xi = np.linspace(-12.0, 12.0, 24_001)
        table = exact.hermite_function_table(8, xi)
        gram = np.trapezoid(table[:, None, :] * table[None, :, :], xi, axis=2)
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_tail_underflows_to_zero(self):
        table = exact.hermite_function_table(4, np.array([40.0]))
        assert np.all(table == 0.0)


class TestHamiltonian:
    def test_matched_harmonic_is_diagonal(self):
        # -d2/dx2 + x^2/4 with length scale 2^(1/2): spectrum k + 1/2,
        # even k in one block and odd k in the other
        basis = exact.HermiteBasis(n_basis=16, length_scale=math.sqrt(2.0))
        h = exact.build_hamiltonian(lambda x: 0.25 * x * x, basis)
        assert h.n == 16
        assert np.allclose(h.even, np.diag(np.arange(0, 16, 2) + 0.5),
                           atol=1e-12)
        assert np.allclose(h.odd, np.diag(np.arange(1, 16, 2) + 0.5),
                           atol=1e-12)

    def test_blocks_match_full_quadrature(self):
        # reference: the unfolded matrix over all 2n+32 Gauss-Hermite nodes
        _, dv = closed_delta_v(0.3593)
        basis = exact.HermiteBasis(n_basis=21, length_scale=0.8)
        xi, w = roots_hermite(2 * 21 + 32)
        table = exact.hermite_function_table(21, xi)
        full = (table * (w * np.exp(xi * xi) * dv(0.8 * xi))) @ table.T
        k = np.arange(21)
        full[k, k] += (k + 0.5) / 0.64
        off = -0.5 * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0)) / 0.64
        full[k[:-2], k[2:]] += off
        full[k[2:], k[:-2]] += off
        h = exact.build_hamiltonian(dv, basis)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full[0::2, 1::2])) < 1e-12 * scale
        assert np.allclose(h.even, full[0::2, 0::2], rtol=0, atol=1e-12 * scale)
        assert np.allclose(h.odd, full[1::2, 1::2], rtol=0, atol=1e-12 * scale)

    def test_rejects_non_even_potential(self):
        basis = exact.HermiteBasis(n_basis=8, length_scale=1.0)
        with pytest.raises(ValueError, match="even"):
            exact.build_hamiltonian(lambda x: 0.25 * x * x + 0.1 * x, basis)

    def test_rejects_scalar_only_potential(self):
        basis = exact.HermiteBasis(n_basis=4, length_scale=1.0)
        with pytest.raises(ValueError, match="same shape"):
            exact.build_hamiltonian(lambda x: 1.0, basis)

    def test_rejects_non_finite_potential(self):
        basis = exact.HermiteBasis(n_basis=4, length_scale=1.0)
        with pytest.raises(ValueError, match="finite"):
            exact.build_hamiltonian(lambda x: np.full_like(x, np.nan), basis)

    def test_basis_validation(self):
        with pytest.raises(ValueError, match="n_basis"):
            exact.HermiteBasis(n_basis=1, length_scale=1.0)
        with pytest.raises(ValueError, match="length_scale"):
            exact.HermiteBasis(n_basis=8, length_scale=0.0)


class TestKnownSpectra:
    def test_shifted_harmonic_levels(self):
        # -d2/dx2 + x^2/4 - 1/2 has spectrum 0, 1, 2, ...
        res = exact.exact_splitting(lambda x: 0.25 * x * x - 0.5,
                                    well_location=0.0, well_curvature=0.5)
        assert res.e0 == pytest.approx(0.0, abs=1e-10)
        assert res.e1 == pytest.approx(1.0, rel=1e-10)
        assert res.converged

    @pytest.mark.parametrize("n_start, n_max", [(3, 1024), (4, 8)])
    def test_odd_and_tiny_bases(self, n_start, n_max):
        # well_curvature 1/4 matches the basis to the oscillator, so every
        # basis of 3 or more functions holds the levels 0 and 1 exactly
        res = exact.exact_splitting(lambda x: 0.25 * x * x - 0.5,
                                    well_location=0.0, well_curvature=0.25,
                                    n_start=n_start, n_max=n_max)
        assert [res.e0, res.e1] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert res.n_basis_used == 2 * n_start
        assert res.converged

    def test_double_well_against_grid_solver(self):
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model))
        ref = fd_lowest(dv)
        assert res.splitting == pytest.approx(ref[1] - ref[0], rel=1e-6)

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

    def test_unconverged_flag_instead_of_raise(self):
        model, dv = closed_delta_v(0.3593)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model),
                                    tol_rel=1e-15, n_start=4, n_max=8)
        assert not res.converged
        assert res.n_basis_used == 8

    def test_negative_splitting_is_not_converged(self):
        # at dU = 100 the 512-function basis puts the odd level below the
        # even one, within the noise floor of the 256-function result
        model = models.TwoGaussianModel(sigma=models.sigma_for_du(100.0))
        dv = lambda x: models.quantum_potential_closed(model, x)
        res = exact.exact_splitting(dv, model.x0,
                                    models.curvature_at_minima(model),
                                    n_max=512)
        assert res.splitting < 0.0
        assert not res.converged

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="curvature"):
            exact.exact_splitting(lambda x: -x * x, 0.0, -2.0)
        with pytest.raises(ValueError, match="n_start"):
            exact.exact_splitting(lambda x: x * x, 0.0, 2.0,
                                  n_start=1)
        with pytest.raises(ValueError, match="n_start"):
            exact.exact_splitting(lambda x: x * x, 0.0, 2.0,
                                  n_start=64, n_max=32)


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

    @pytest.mark.parametrize("du", [1.0, 6.0, 20.0, 40.0])
    def test_bracket_holds_the_value(self, du):
        res = exact.green_splitting(self.view(du))
        lower, upper = res.bracket
        assert lower <= res.splitting <= upper
        assert upper - lower <= 1e-12 * res.splitting

    @pytest.mark.parametrize("du", [1.0, 12.0, 40.0])
    def test_doubling_the_panels_keeps_the_value(self, du, monkeypatch):
        res = exact.green_splitting(self.view(du))
        monkeypatch.setattr(exact, "_GREEN_PANELS",
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
        assert res.n_panels == exact._GREEN_PANELS[-1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [
        models.QuarticMeanFieldModel(du=800.0),
        models.TwoGaussianModel(sigma=0.025),
    ], ids=["quartic-du800", "two_gaussian-sigma0.025"])
    def test_density_underflow_raises(self, model):
        with pytest.raises(numerics.NumericsError, match="underflows"):
            exact.green_splitting(models.meanfield_view(model))
