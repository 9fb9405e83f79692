"""Localization-function estimate of the tunneling splitting.

The estimate uses a continuous piecewise localization function g built from
the equilibrium density rho_eq of a symmetric double well:

    g(x) = -1                                   for x <= -x_m,
    g(x) = (1/I) * integral_0^x dy / rho_eq(y)  for |x| < x_m,
    g(x) = +1                                   for x >= +x_m,

with I = integral_0^{x_m} dy / rho_eq(y) so that g is continuous and odd.
x_m is the density maximum.  The splitting estimate in reduced units is

    deltaE1_g / E_u = 2 x0^2 / (I * <g| rho_eq |g>),

a Rayleigh-Ritz style upper bound on the true deltaE1: g * rho_eq^(1/2) is
the trial excited state orthogonal to the exact ground state rho_eq^(1/2).
The bound tightens exponentially as the wells separate.

All integrals use the 16-point Gauss-Legendre rule of `numerics` on P
equal panels.  The panel sums of 1/rho_eq on [0, x_m] form a prefix array ending in I, and
`_cumulative` adds the same rule on the rest of x's panel to give C(x) =
integral_0^x dy / rho_eq for any array x: g on the panel nodes, where
<g|rho_eq|g> is summed, and in `localization_g`.  P doubles from 8 until I
and the norm settle to 1e-12 relative; NumericsError is raised past 4096
panels or when either is not finite and positive (rho_eq underflow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .models import MeanFieldView
from .numerics import PANELS, REL_TOL, gauss_panels


@dataclass(frozen=True)
class LocalizationResult:
    """Splitting estimate together with its ingredients.

    splitting : deltaE1_g in E_u units (upper bound on the exact value).
    i_value : the inverse-density integral I over [0, x_m], in x0^2 units.
    g_norm : <g| rho_eq |g>, slightly below one for separated wells.
    x_m : matching point used for g.
    """

    splitting: float
    i_value: float
    g_norm: float
    x_m: float


def _cumulative(view: MeanFieldView, edges, prefix, x):
    """C(x) = integral_0^x dy / rho_eq for 0 <= x <= x_m; prefix[j] = C(edges[j])."""
    j = np.searchsorted(edges, x, side="right") - 1
    return prefix[j] + gauss_panels(lambda y: 1.0 / view.rho_eq(y), edges[j], x)


def _settle(view: MeanFieldView):
    """Panel edges, prefix sums of 1/rho_eq and <g|rho_eq|g> once settled."""
    last = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n in PANELS:
            edges = np.linspace(0.0, view.x_m, n + 1)
            tail = np.linspace(view.x_m, view.domain_halfwidth, n + 1)
            prefix = np.concatenate([[0.0], np.cumsum(
                gauss_panels(lambda y: 1.0 / view.rho_eq(y), edges[:-1], edges[1:]))])

            def g2rho(y):
                g = np.minimum(_cumulative(view, edges, prefix, y) / prefix[-1], 1.0)
                return g * g * view.rho_eq(y)

            # integrand is even: double the half-line result
            g_norm = 2.0 * (gauss_panels(g2rho, edges[:-1], edges[1:]).sum()
                            + gauss_panels(view.rho_eq, tail[:-1], tail[1:]).sum())
            current = np.array([prefix[-1], g_norm])
            for name, value in zip(("integral I", "norm <g|rho_eq|g>"), current):
                if not (np.isfinite(value) and value > 0.0):
                    raise numerics.NumericsError(
                        f"{name} is not finite and positive: {value} ({view.label})")
            if last is not None and np.all(abs(current - last) <= REL_TOL * current):
                return edges, prefix, float(g_norm)
            last = current
    raise numerics.NumericsError(
        f"localization integrals not settled to {REL_TOL:g} relative with "
        f"{PANELS[-1]} panels ({view.label})")


def localization_g(view: MeanFieldView, x):
    """g at x (scalar or array): odd, nondecreasing, +-1 for |x| >= x_m."""
    edges, prefix, _ = _settle(view)
    x = np.asarray(x, dtype=float)
    c = _cumulative(view, edges, prefix, np.minimum(np.abs(x), view.x_m))
    g = np.sign(x) * np.minimum(c / prefix[-1], 1.0)
    return float(g) if g.ndim == 0 else g


def splitting_localization(view: MeanFieldView) -> LocalizationResult:
    """Localization-function upper bound on the tunneling splitting."""
    _, prefix, g_norm = _settle(view)
    i_value = float(prefix[-1])
    return LocalizationResult(splitting=2.0 * view.x0**2 / (i_value * g_norm),
                              i_value=i_value, g_norm=g_norm, x_m=view.x_m)
