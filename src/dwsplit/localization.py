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
The bound tightens exponentially as the wells separate.  It is the
Rayleigh quotient of g for the operator that `exact.green_splitting`
inverts, and g is where that iteration starts.

Both read one discretization: P/2 equal panels on [0, x_m] and P/2 on
[x_m, domain_halfwidth], with rho_eq and 1/rho_eq on the 16 Gauss-Legendre
nodes of each panel (`panel_density`, the one rho_eq underflow check),
and I and g on those nodes (`localization_function`).  Here P doubles
from 16 until I and <g|rho_eq|g> settle to 1e-12 relative; NumericsError
is raised if they have not at 8192 panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .models import MeanFieldView
from .numerics import NODES, PANELS, REL_TOL, WEIGHTS


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


def panel_density(view: MeanFieldView, panels: int):
    """(half, rho, inv) on P panels: P/2 on [0, x_m], P/2 on [x_m, L].

    half holds the panel half-widths, shape (P, 1); rho and inv hold
    rho_eq and 1/rho_eq on the NODES of each panel, shape (P, 16).
    Raises NumericsError if 1/rho_eq is not finite there (rho_eq underflows).
    """
    edges = np.concatenate([
        np.linspace(0.0, view.x_m, panels // 2 + 1),
        np.linspace(view.x_m, view.domain_halfwidth, panels // 2 + 1)[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = view.rho_eq(edges[:-1, None] + half * (1.0 + NODES))
        inv = 1.0 / rho
    if not np.all(np.isfinite(inv)):
        raise numerics.NumericsError(
            f"1/rho_eq is not finite on the panel nodes: rho_eq underflows "
            f"({view.label})")
    return half, rho, inv


def localization_function(half, inv):
    """(I, g) on the nodes of `panel_density`'s panels.

    I = integral_0^{x_m} dy / rho_eq sums the first P/2 panels whole;
    g = min(C/I, 1) with C the running integral of 1/rho_eq, and g = 1 on
    every node of [x_m, L].
    """
    m = half.shape[0] // 2
    i_value = float(half[:m, 0] @ (inv[:m] @ WEIGHTS))
    g = np.ones_like(inv)
    g[:m] = np.minimum(numerics.running_integral(inv[:m], half[:m]) / i_value,
                       1.0)
    return i_value, g


def splitting_localization(view: MeanFieldView) -> LocalizationResult:
    """Localization-function upper bound on the tunneling splitting."""
    last = None
    for n in PANELS:
        half, rho, inv = panel_density(view, 2 * n)
        i_value, g = localization_function(half, inv)
        # the integrand is even: double the half-line sum
        current = np.array([i_value, 2.0 * np.sum(half * WEIGHTS * g * g * rho)])
        if last is not None and np.all(abs(current - last) <= REL_TOL * current):
            g_norm = float(current[1])
            return LocalizationResult(
                splitting=2.0 * view.x0**2 / (i_value * g_norm),
                i_value=i_value, g_norm=g_norm, x_m=view.x_m)
        last = current
    raise numerics.NumericsError(
        f"localization integrals not settled to {REL_TOL:g} relative with "
        f"{2 * PANELS[-1]} panels ({view.label})")
