"""Kernel-level checks: quadrature, root finding, eigensolver, stencils."""

import math

import numpy as np
import pytest

from dwsplit import numerics


class TestIntegrateAdaptive:
    """integrate_panels: the panel count doubles until two sums agree."""

    def test_polynomial_exact(self):
        # 16 nodes per panel integrate degree <= 31 exactly
        value = numerics.integrate_panels(lambda x: 3.0 * x**2 - x**31, 0.0, 2.0)
        assert value == pytest.approx(8.0 - 2.0**32 / 32.0, rel=1e-14)

    def test_sine_halfperiod(self):
        value = numerics.integrate_panels(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-13)

    def test_linearity(self):
        f = lambda x: np.exp(-x * x)
        g = lambda x: x**4
        a, b = -1.0, 2.0
        lhs = numerics.integrate_panels(lambda x: 2.5 * f(x) - 0.5 * g(x), a, b)
        rhs = (2.5 * numerics.integrate_panels(f, a, b)
               - 0.5 * numerics.integrate_panels(g, a, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_interval_additivity(self):
        f = lambda x: 1.0 / (1.0 + x * x)
        whole = numerics.integrate_panels(f, 0.0, 3.0)
        split = (numerics.integrate_panels(f, 0.0, 1.2)
                 + numerics.integrate_panels(f, 1.2, 3.0))
        assert whole == pytest.approx(split, rel=1e-12)
        assert whole == pytest.approx(math.atan(3.0), rel=1e-12)

    def test_unsettled_integral_raises(self):
        # ~1e3 oscillations inside the first of 4096 panels
        f = lambda x: np.sin(1.0 / (x + 1e-4))
        with pytest.raises(numerics.NumericsError, match=r"\[0.0, 1.0\]"):
            numerics.integrate_panels(f, 0.0, 1.0)

    def test_non_finite_integral_raises(self):
        with pytest.raises(numerics.NumericsError, match="not finite"):
            numerics.integrate_panels(lambda x: np.where(x > 0.5, np.inf, 1.0),
                                      0.0, 1.0)


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
