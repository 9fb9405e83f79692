"""Kernel-level checks: quadrature, root finding, eigensolver, stencils."""

import math

import numpy as np
import pytest

from dwsplit import numerics


class TestIntegrateAdaptive:
    def test_polynomial_exact(self):
        res = numerics.integrate_adaptive(lambda x: 3.0 * x**2, 0.0, 2.0)
        assert res.value == pytest.approx(8.0, rel=1e-12)
        assert res.error_estimate < 1e-8
        assert res.evaluations > 0

    def test_sine_halfperiod(self):
        res = numerics.integrate_adaptive(math.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_linearity(self):
        f = lambda x: math.exp(-x * x)
        g = lambda x: x**4
        a, b = -1.0, 2.0
        lhs = numerics.integrate_adaptive(
            lambda x: 2.5 * f(x) - 0.5 * g(x), a, b).value
        rhs = (2.5 * numerics.integrate_adaptive(f, a, b).value
               - 0.5 * numerics.integrate_adaptive(g, a, b).value)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_interval_additivity(self):
        f = lambda x: 1.0 / (1.0 + x * x)
        whole = numerics.integrate_adaptive(f, 0.0, 3.0).value
        split = (numerics.integrate_adaptive(f, 0.0, 1.2).value
                 + numerics.integrate_adaptive(f, 1.2, 3.0).value)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_failure_carries_best_value(self):
        # few subdivisions on a rapidly oscillating integrand force the
        # library warning path
        f = lambda x: math.sin(1.0 / (x + 1e-4))
        with pytest.raises(numerics.QuadratureError) as err:
            numerics.integrate_adaptive(f, 0.0, 1.0, max_subdivisions=2)
        assert math.isfinite(err.value.best_value)
        assert err.value.error_estimate > 0


class TestFindRootBracketed:
    def test_cubic(self):
        root = numerics.find_root_bracketed(lambda x: x**3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_endpoint_root(self):
        assert numerics.find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(numerics.RootBracketError):
            numerics.find_root_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)


class TestEigSymmetricLowest:
    def test_known_spectrum(self):
        # eigenvalues 1, 2, 4 by construction
        q, _ = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))
        m = q @ np.diag([4.0, 1.0, 2.0]) @ q.T
        values, vectors = numerics.eig_symmetric_lowest(m, 2)
        assert values == pytest.approx([1.0, 2.0], rel=1e-12)
        assert vectors.shape == (3, 2)

    def test_residuals_small(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 20))
        m = a + a.T
        values, vectors = numerics.eig_symmetric_lowest(m, 3)
        for i in range(3):
            r = m @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.max(np.abs(r)) < 1e-10 * max(np.abs(values).max(), 1.0)


class TestDerivativeCentral:
    def test_first_order(self):
        d = numerics.derivative_central(math.exp, 0.3, order=1)
        assert d == pytest.approx(math.exp(0.3), rel=1e-9)

    def test_second_order(self):
        d = numerics.derivative_central(math.cos, 0.5, order=2, h=1e-4)
        assert d == pytest.approx(-math.cos(0.5), rel=1e-6)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            numerics.derivative_central(math.exp, 0.0, order=3)
