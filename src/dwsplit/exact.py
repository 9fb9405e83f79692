"""Exact tunneling splitting of a symmetric double well, two ways.

``green_splitting(view)`` works from the equilibrium density of a
``MeanFieldView`` and serves every row of ``experiments.evaluate``.  With
psi = rho^(1/2) phi the operator -x0^2 d2/dx2 + deltaV becomes the
diffusion-picture operator L phi = -x0^2 rho^-1 (rho phi')', whose lowest
eigenvalue in the odd sector is the splitting.  Its inverse K is the
flux-over-population double integral (Haenggi, Talkner & Borkovec, Rev.
Mod. Phys. 62, 251, 1990).  K acts on the density discretization of the
localization estimate: each step of `localization.discretizations` gives
rho, 1/rho, the panel integrals of 1/rho and g on the panel nodes.  One
sweep applies both integrals with the panel matrices `numerics.FORWARD`
and `numerics.REVERSE`, the inner one summed from L inwards, and adds
only terms that are >= 0, so K phi keeps its relative accuracy in the
tail.  The localization estimate is the Rayleigh quotient of g, so
inverse iteration from g only improves on it; the one pass returns both.
Later panel counts start from g plus the coarser count's correction
(nested iteration, Brandt, Math. Comp. 31, 333, 1977).

``exact_splitting(delta_v, well_location, well_curvature)`` takes a bare
deltaV(s), for callers that have no density.  It diagonalizes
-d2/ds2 + deltaV on a uniform grid symmetric about the barrier at the
origin, in the sinc discrete-variable representation (Colbert & Miller,
J. Chem. Phys. 96, 1982, 1992): deltaV is diagonal there and the kinetic
matrix has a closed form, so the splitting is the difference of the two
lowest eigenvalues of one dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import localization, numerics
from .models import MeanFieldView


@dataclass(frozen=True)
class ExactSpectrumResult:
    """Two lowest eigenvalues of the shifted operator.

    e0 and e1 are the ground and the first excited level in E_u units
    (for a quantum potential generated from a normalized density, e0 is
    zero up to discretization).  n_basis_used is the number of grid
    points of the result; convergence_history records (grid points,
    splitting) per doubling step.
    """

    e0: float
    e1: float
    n_basis_used: int
    converged: bool
    convergence_history: tuple

    @property
    def splitting(self) -> float:
        """deltaE1 = e1 - e0, the tunneling splitting in E_u units."""
        return self.e1 - self.e0


_BASIS_SIZES = [64 << k for k in range(5)]  # 64, 128, ..., 1024
_BASIS_TOL = 1e-8


def exact_splitting(
    delta_v: Callable,
    well_location: float,
    well_curvature: float,
) -> ExactSpectrumResult:
    """Tunneling splitting of -d2/dx2 + deltaV, converged in the grid size.

    delta_v is the shifted potential in E_u units, vectorized over
    positions and even about the origin.  The grid holds the n points
    h (k - (n-1)/2), k = 0..n-1, out to |well_location| plus ten
    oscillator lengths well_curvature^(-1/4) of the wells, where
    well_curvature is deltaV'' at a minimum.  The kinetic matrix is
    pi^2/(3 h^2) on the diagonal and 2 (-1)^(i-j) / (h^2 (i-j)^2) off it.
    n runs through _BASIS_SIZES until two successive splittings agree to
    _BASIS_TOL relative and the splitting is positive; otherwise the
    result carries converged=False, as it does once the splitting is too
    small to resolve above the eigensolver noise, which grows with
    pi^2/(3 h^2) (dU of about 11 and above in the two-Gaussian model).
    NumericsError is raised if eigh fails or an eigenpair residual
    exceeds 1e-10 times the largest row 2-norm, a lower bound of ||A||_2.
    """
    if not well_curvature > 0:
        raise ValueError(
            f"well curvature must be positive, got {well_curvature:.6g}")

    half_width = abs(well_location) + 10.0 * well_curvature ** -0.25
    history = []
    converged = False
    for n in _BASIS_SIZES:
        h = 2.0 * half_width / (n - 1)
        k = np.arange(n)
        x = h * (k - 0.5 * (n - 1))
        v = np.asarray(delta_v(x), dtype=float)
        if v.shape != x.shape:
            raise ValueError("delta_v must map an array of positions to an "
                             "array of the same shape")
        if not np.all(np.isfinite(v)):
            raise ValueError("delta_v returned non-finite values on the grid")
        # the grid is its own mirror image: x[::-1] == -x exactly
        asymmetry = float(np.max(np.abs(v - v[::-1])))
        if asymmetry > 1e-9 * float(np.max(np.abs(v))):
            raise ValueError(
                f"delta_v must be even about the origin: "
                f"|deltaV(x) - deltaV(-x)| reaches {asymmetry:.3e}")
        kinetic = 2.0 * (-1.0) ** k / (h * np.maximum(k, 1)) ** 2
        kinetic[0] = math.pi ** 2 / (3.0 * h * h)
        matrix = kinetic[np.abs(k[:, None] - k)] + np.diag(v)
        try:
            values, vectors = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise numerics.NumericsError(f"eigensolver failed: {exc}") from exc
        (e0, e1), vectors = values[:2], vectors[:, :2]
        norm = float(np.sqrt(np.max(np.sum(matrix * matrix, axis=1))))
        residual = float(np.max(np.abs(matrix @ vectors - vectors * values[:2])))
        if not residual <= 1e-10 * norm:
            raise numerics.NumericsError(
                f"eigenpair residual {residual:.3e} exceeds 1e-10 * ||A|| = "
                f"{1e-10 * norm:.3e}")
        split = float(e1 - e0)
        history.append((n, split))
        if (split > 0.0 and len(history) > 1
                and abs(split - history[-2][1]) <= _BASIS_TOL * split):
            converged = True
            break

    return ExactSpectrumResult(
        e0=float(e0), e1=float(e1), n_basis_used=n,
        converged=converged, convergence_history=tuple(history))


_GREEN_ITERATIONS = 50


@dataclass(frozen=True)
class GreenSplittingResult:
    """Lowest odd-sector eigenvalue of the diffusion-picture operator.

    splitting : last iterate's Rayleigh quotient, in the bracket, E_u units.
    bracket : (lower, upper) Collatz-Wielandt bounds from the same iterate.
    n_panels : panel count P of the result, P/2 on [0, x_m] and P/2 on
        [x_m, domain_halfwidth].
    iterations : applications of K at that panel count, started from the
        coarser count's correction (from g at the first count).
    converged : the bracket closed to REL_TOL at P and at P/2, and the
        two Rayleigh quotients, I and <g|rho|g> agree to REL_TOL.
    localization : the estimate at P; None unless its I and <g|rho|g> settled.
    """

    splitting: float
    bracket: tuple[float, float]
    n_panels: int
    iterations: int
    converged: bool
    localization: localization.LocalizationResult | None


def _inverse_iteration(view: MeanFieldView, half, rho, inv, part, phi):
    """(value, bracket, iterations, settled, next phi) of K from phi."""
    rho_half, inv_half = half * rho, half * inv / view.x0**2
    rho_w = half * numerics.WEIGHTS * rho
    # K phi in one sweep: the inner integral is t, the rest of the node's
    # panel, plus a, the whole panels beyond summed from L inwards; the
    # outer one is u, the running integral of t/rho, plus a times c = part,
    # that of 1/rho, plus b, the whole panels before.  No term is negative.
    c = part / view.x0**2
    a, b = np.zeros(len(half)), np.zeros(len(half))
    floor = np.sqrt(np.finfo(float).eps)
    for iteration in range(1, _GREEN_ITERATIONS + 1):
        t = (rho_half * phi) @ numerics.REVERSE
        np.cumsum(t[:0:-1, -1], out=a[-2::-1])
        u = (inv_half * t[:, :-1]) @ numerics.FORWARD + a[:, None] * c
        np.cumsum(u[:-1, -1], out=b[1:])
        psi = u[:, :-1] + b[:, None]
        # next to phi(0) = 0 the ratio is one of two tiny numbers; such
        # nodes are left out so that they cannot hold the bracket open
        # (g peaks at 1, and so does every iterate and, nearly, a warm start)
        keep = phi > floor
        ratio = psi[keep] / phi[keep]
        bracket = (float(1.0 / ratio.max()), float(1.0 / ratio.min()))
        top = psi.max()
        # the quotient lies at or below the upper end, so a wider bracket
        # cannot settle and its quotient would never be returned
        if (bracket[1] - bracket[0] <= numerics.REL_TOL * bracket[1]
                or iteration == _GREEN_ITERATIONS):
            # rho psi^2 overflows once 1/rho passes ~e^355 (dU of about
            # 370); scaling by a power of two changes no rounding
            weighted = rho_w * psi * 2.0 ** -math.frexp(top)[1]
            value = float(np.vdot(weighted, phi) / np.vdot(weighted, psi))
            # the quotient can round a few ulps past the rounded bracket ends
            value = min(max(value, bracket[0]), bracket[1])
            settled = bracket[1] - bracket[0] <= numerics.REL_TOL * value
            if settled:
                break
        phi = psi / top
    return value, bracket, iteration, settled, psi / top


def green_splitting(view: MeanFieldView) -> GreenSplittingResult:
    """Splitting as the lowest odd-sector eigenvalue of -x0^2 rho^-1 (rho phi')'.

    phi(0) = 0 and the flux rho phi' vanishes at view.domain_halfwidth.
    Inverse iteration applies the Green's operator
    (K phi)(x) = x0^-2 integral_0^x ds/rho(s) integral_s^L rho phi dy
    on P panels of 16 Gauss-Legendre nodes, the first P from the localization
    function g, each later P from max(g + numerics.bisect(phi - g), 0) with
    phi the last iterate at P/2.  K has a positive kernel, so for positive
    phi the Collatz-Wielandt bracket
    1/max(K phi/phi) <= lambda <= 1/min(K phi/phi) holds.  Iteration stops
    when that bracket, over nodes with phi above sqrt(eps) max phi, is
    narrower than numerics.REL_TOL relative, or after 50 iterations.  P
    doubles from 32 along `localization.discretizations` until the result
    is converged (see GreenSplittingResult); otherwise the one at 4096
    panels comes back with converged=False.

    Raises
    ------
    NumericsError
        If rho_eq underflows on the nodes, so that 1/rho_eq is not finite.
    """
    last, correction = None, None
    for *arrays, g, estimate, settled in localization.discretizations(view):
        start = g if correction is None else np.maximum(
            g + numerics.bisect(correction), 0.0)
        value, bracket, iterations, closed, phi = _inverse_iteration(
            view, *arrays, start)
        correction = phi - g
        converged = (closed and settled and last is not None and last[1]
                     and abs(value - last[0]) <= numerics.REL_TOL * value)
        if converged:
            break
        last = value, closed
    return GreenSplittingResult(
        splitting=value, bracket=bracket, n_panels=len(arrays[0]),
        iterations=iterations, converged=converged,
        localization=estimate if settled else None)
