"""Localization-function estimate of the tunneling splitting.

The estimate uses a continuous piecewise localization function g built from
the equilibrium density rho_eq of a symmetric double well:

    g(x) = -1                                   for x <= -x0,
    g(x) = (1/I) * integral_0^x dy / rho_eq(y)  for |x| < x0,
    g(x) = +1                                   for x >= +x0,

with I = integral_0^{x0} dy / rho_eq(y) so that g is continuous and odd.
x0 is the density maximum.  The splitting estimate in reduced units is

    deltaE1_g / E_u = 2 x0^2 / (I * <g| rho_eq |g>),

a Rayleigh-Ritz style upper bound on the true deltaE1: g * rho_eq^(1/2) is
the trial excited state orthogonal to the exact ground state rho_eq^(1/2).
The bound tightens exponentially as the wells separate.  It is the
Rayleigh quotient of g for the operator that `exact.green_splitting`
inverts, and g is where that iteration starts.

Both read one discretization of rho_eq per panel count P (`discretize`),
the one place that integrates 1/rho_eq, and run the same P = 32, 64, ...,
4096 (`discretizations`).  The estimate is read at the first P where I
and <g|rho_eq|g> agree with their P/2 values to 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .models import MeanFieldView
from .numerics import PANELS, REL_TOL, WEIGHTS

PANEL_COUNTS = [p for p in PANELS if p >= 32]  # 32, 64, ..., 4096


@dataclass(frozen=True)
class LocalizationResult:
    """Splitting estimate together with its ingredients.

    splitting : deltaE1_g in E_u units (upper bound on the exact value).
    i_value : the inverse-density integral I over [0, x0], in x0^2 units.
    g_norm : <g| rho_eq |g>, slightly below one for separated wells.
    """

    splitting: float
    i_value: float
    g_norm: float


def discretize(view: MeanFieldView, panels: int):
    """(half, rho, inv, g, estimate) on P panels.

    P/2 equal panels cover [0, x0] and P/2 [x0, domain_halfwidth].  half
    holds their half-widths, shape (P, 1); rho, inv and g hold rho_eq,
    1/rho_eq and g on the 16 NODES of each panel, shape (P, 16), rho_eq
    being view.rho_eq over its panel sum on [-L, L].  part, the integral
    of 1/rho_eq on [0, x0], runs from each panel's left edge to each node
    and, last, over the whole panel, shape (P/2, 17).  I sums those
    panels whole; g = min(C/I, 1) with C = part plus the whole panels
    before, and g = 1 on every node of [x0, L].  estimate is the
    LocalizationResult from I and <g|rho_eq|g>.  Raises NumericsError if
    1/rho_eq is not finite on the nodes (rho_eq underflows): the one
    underflow check of the density.
    """
    m, outer = panels // 2, view.domain_halfwidth - view.x0
    unit = numerics.unit_panels(m)
    half = np.repeat([view.x0 / panels, outer / panels], m)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = view.rho_eq(np.concatenate([view.x0 * unit,
                                          view.x0 + outer * unit]))
        rho = rho / (2.0 * float(half[:, 0] @ (rho @ WEIGHTS)))
        inv = 1.0 / rho
    if not np.logical_and.reduce(np.isfinite(inv), None):
        raise numerics.NumericsError(
            f"1/rho_eq is not finite on the panel nodes: rho_eq underflows "
            f"({view.label})")
    part = half[:m] * (inv[:m] @ numerics.FORWARD)
    ends = np.add.accumulate(part[:, -1])  # from 0 to each panel's right edge
    i_value = float(ends[-1])
    g = np.ones_like(inv)
    g[:m] = part[:, :-1]
    g[1:m] += ends[:-1, None]
    np.minimum(g[:m] / i_value, 1.0, out=g[:m])
    # the integrand is even: double the half-line sum
    g_norm = 2.0 * float(np.add.reduce(half * WEIGHTS * g * g * rho, None))
    return half, rho, inv, g, LocalizationResult(
        splitting=2.0 * view.x0**2 / (i_value * g_norm), i_value=i_value,
        g_norm=g_norm)


def discretizations(view: MeanFieldView):
    """Yield (*discretize(view, P), settled) for P in PANEL_COUNTS, where
    settled means that I and <g|rho_eq|g> agree with P/2's to REL_TOL."""
    last = None
    for panels in PANEL_COUNTS:
        *arrays, estimate = discretize(view, panels)
        now = estimate.i_value, estimate.g_norm
        yield (*arrays, estimate, last is not None and all(
            abs(x - y) <= REL_TOL * x for x, y in zip(now, last)))
        last = now


def splitting_localization(view: MeanFieldView) -> LocalizationResult:
    """Localization-function upper bound on the tunneling splitting."""
    for *_, estimate, settled in discretizations(view):
        if settled:
            return estimate
    raise numerics.NumericsError(
        f"localization integrals not settled to {REL_TOL:g} relative with "
        f"{PANEL_COUNTS[-1]} panels ({view.label})")
