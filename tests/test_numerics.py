"""Kernel-level checks: quadrature, running integrals, bisection, roots."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from dwsplit import models, numerics

from helpers import running_integral


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


def panels(edges):
    """Nodes (P, 16) and half-widths (P, 1) of the panels between edges."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + numerics.NODES), half


class TestRunningIntegral:
    """running_integral: the cumulative form of FORWARD and REVERSE."""

    def test_piecewise_polynomials_exact(self):
        # a different degree-15 polynomial on each of three unequal panels
        rng = np.random.default_rng(3)
        edges = [-1.0, -0.2, 0.5, 1.3]
        x, half = panels(edges)
        pieces = [np.polynomial.Polynomial(rng.standard_normal(16))
                  for _ in range(3)]
        f = np.array([p(row) for p, row in zip(pieces, x)])
        whole = [p.integ()(b) - p.integ()(a)
                 for p, a, b in zip(pieces, edges[:-1], edges[1:])]
        forward = np.array([sum(whole[:j]) + p.integ()(row) - p.integ()(a)
                            for j, (p, row, a) in enumerate(
                                zip(pieces, x, edges[:-1]))])
        reverse = sum(whole) - forward
        scale = np.abs(forward).max()
        assert np.abs(running_integral(f, half)
                      - forward).max() <= 1e-14 * scale
        assert np.abs(running_integral(f, half, reverse=True)
                      - reverse).max() <= 1e-14 * scale

    def test_reverse_keeps_a_decaying_tail(self):
        # integral_x^8 exp(-y^2) dy reaches ~2e-17 at x = 6, far below the
        # rounding of the total, so only the sum from 8 inwards resolves it
        x, half = panels(np.linspace(0.0, 8.0, 65))
        f = np.exp(-x * x)
        tail = x >= 6.0
        exact = 0.5 * math.sqrt(math.pi) * np.array(
            [math.erfc(t) - math.erfc(8.0) for t in x[tail]])
        reverse = running_integral(f, half, reverse=True)[tail]
        assert np.abs(reverse / exact - 1.0).max() <= 1e-12
        total = running_integral(f, half)[-1, -1] + reverse[-1]
        difference = total - running_integral(f, half)[tail]
        # the total less the forward integral is 0 or a few ulps of 0.886
        assert np.abs(difference / exact - 1.0).min() > 0.5


def piecewise(edges, degree, seed):
    """Half-widths, pieces and node values of a random polynomial of the
    given degree on each panel between edges, scaled to its panel."""
    rng = np.random.default_rng(seed)
    x, half = panels(edges)
    pieces = [np.polynomial.Polynomial(rng.standard_normal(degree + 1),
                                       domain=[a, b])
              for a, b in zip(edges[:-1], edges[1:])]
    return half, pieces, np.array([p(row) for p, row in zip(pieces, x)])


class TestBisect:
    """bisect: panel values carried to the nodes of the halved panels."""

    edges = [-1.0, -0.2, 0.5, 1.3, 1.4]

    def test_piecewise_polynomials_exact(self):
        _, pieces, f = piecewise(self.edges, 15, seed=5)
        edges = np.array(self.edges)
        fine, _ = panels(np.sort(np.concatenate(
            [edges, 0.5 * (edges[:-1] + edges[1:])])))
        expected = np.array([pieces[k // 2](row)
                             for k, row in enumerate(fine)])
        assert np.abs(numerics.bisect(f) - expected).max() <= (
            1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("reverse", [False, True])
    def test_running_integral_is_kept(self, reverse):
        # below degree 15 the running integral is itself of degree <= 15
        # on each panel, so bisecting commutes with it
        half, _, f = piecewise(self.edges, 14, seed=7)
        coarse = running_integral(f, half, reverse=reverse)
        fine = running_integral(
            numerics.bisect(f), np.repeat(half / 2.0, 2, axis=0),
            reverse=reverse)
        assert np.abs(fine - numerics.bisect(coarse)).max() <= (
            1e-13 * np.abs(coarse).max())


class TestFindRootBracketed:
    def test_cubic(self):
        root = numerics.find_root_bracketed(lambda x: x**3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_endpoint_root(self):
        assert numerics.find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(numerics.RootBracketError):
            numerics.find_root_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        lambda x: x - 0.5 if x < 1.0 else math.inf,
        lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
    ], ids=["nan-everywhere", "inf-at-an-end", "nan-at-a-step"])
    def test_non_finite_values_raise(self, f):
        # a NaN never narrows the bracket, so without the check the search
        # would not end
        with pytest.raises(numerics.NumericsError, match="not finite"):
            numerics.find_root_bracketed(f, 0.0, 1.0)

    @pytest.mark.parametrize("f, root", [
        (lambda x: x**15 - 0.3**15, 0.3),
        (lambda x: -1.0 if x < 1.0 / 3.0 else 1e-20, 1.0 / 3.0),
    ], ids=["x^15", "step"])
    def test_bracket_halves_every_four_steps(self, f, root):
        # false position alone crawls on both: it keeps one end and moves
        # the other by a sliver per step, thousands of steps to 1e-12
        calls = []
        found = numerics.find_root_bracketed(
            lambda x: calls.append(x) or f(x), 0.0, 1.0, tol=1e-12)
        assert abs(found - root) <= 1e-12
        assert len(calls) <= 2 + 4 * math.ceil(math.log2(1.0 / 1e-12))

    def test_few_evaluations_on_the_barrier_width_roots(self):
        # the half-height root of barrier_width on the default dU grid: with
        # a bisection forced every third step it took 15.0 evaluations per
        # root; brentq takes 11.9
        counts = []
        for du in np.linspace(1.0, 12.0, 40):
            model = models.TwoGaussianModel(sigma=models.sigma_for_du(du),
                                            allow_out_of_range=True)
            level = (models.quantum_potential_closed(model, 0.0)
                     - 0.5 * models.barrier_heights(model).delta_v)
            calls = []
            found = numerics.find_root_bracketed(
                lambda x: calls.append(x) or (
                    models.quantum_potential_closed(model, x) - level),
                0.0, 1.0, tol=1e-13)
            reference = brentq(lambda x: models.quantum_potential_closed(
                model, x) - level, 0.0, 1.0, xtol=1e-15)
            assert abs(found - reference) <= 1e-13
            counts.append(len(calls))
        assert np.mean(counts) <= 13.0
