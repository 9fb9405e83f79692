"""Semiclassical (WKB) baseline for the tunneling splitting.

The splitting of a symmetric double well deltaV with minima at +-x_min is
estimated from the barrier action at the well ground level,

    E      = deltaV(x_min) + omega / 2,        omega = sqrt(2 deltaV''(x_min)),
    Theta  = integral_{-x_t}^{x_t} sqrt(deltaV(x) - E) dx,
    deltaE = omega / sqrt(pi e) * exp(-Theta),

in reduced units (hbar = 1, 2m = 1, energies in E_u).  The prefactor
follows from matching the WKB barrier tail onto the harmonic ground state
of one well and feeding the matched state through the surface (Wronskian)
formula for the splitting of a symmetric pair; it replaces the cruder
textbook prefactor omega / pi.

The substitution x = x_t (1 - u^2) turns the half-barrier integral into

    integral_0^{x_t} sqrt(deltaV - E) dx
        = integral_0^1 sqrt(deltaV(x_t (1 - u^2)) - E) 2 x_t u du,

whose integrand vanishes linearly at the turning point (u = 0) instead of
as a square root, so the Gauss-Legendre panels of `numerics` converge on
it geometrically.  deltaV must accept numpy arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics


class WkbInapplicableError(ValueError):
    """No tunneling regime: not a minimum at x_min, or no barrier above it."""


@dataclass(frozen=True)
class WkbResult:
    """Semiclassical splitting estimate and its ingredients.

    splitting : deltaE estimate in E_u units.
    action : full barrier integral Theta (dimensionless, positive).
    energy : ground-level energy used for the turning points, E_u units.
    turning_points : (x_left, x_right) = (-x_t, x_t), bracketing the
        forbidden region symmetric about the origin.
    well_frequency : harmonic frequency sqrt(2 deltaV''(x_min)).

    ``wkb_splitting`` guarantees x_left < 0 < x_right and action > 0; the
    result does not check them again.
    """

    splitting: float
    action: float
    energy: float
    turning_points: tuple[float, float]
    well_frequency: float


def barrier_action(delta_v: Callable, energy: float, turning_point: float) -> float:
    """Theta = 2 * integral_0^{x_t} sqrt(deltaV - E) dx, with x = x_t (1 - u^2).

    The caller guarantees deltaV(x_t) = E; deltaV - E < 0 anywhere on the
    quadrature nodes inside (0, x_t) raises ValueError.
    """
    x_t = turning_point

    def integrand(u):
        excess = delta_v(x_t * (1.0 - u * u)) - energy
        if np.logical_or.reduce(excess < 0.0, None):
            raise ValueError(
                f"potential must fall through the turning point: deltaV - E "
                f"reaches {np.min(excess):.3e} inside (0, {x_t:.6g})")
        return np.sqrt(excess) * (2.0 * x_t * u)

    return 2.0 * numerics.integrate_panels(integrand, 0.0, 1.0)


def wkb_splitting(
    delta_v: Callable,
    curvature_min: float,
    x_min: float,
) -> WkbResult:
    """Ground-level semiclassical splitting of a symmetric double well.

    Parameters
    ----------
    delta_v : callable
        Shifted potential in E_u units; must be even with minima at +-x_min
        and its barrier top at the origin.
    curvature_min : float
        deltaV''(x_min) in E_u / x0^2 units, positive.
    x_min : float
        Positive location of the right minimum.

    Raises
    ------
    WkbInapplicableError
        If x_min is not a minimum (curvature_min <= 0), or if the ground
        level deltaV(x_min) + omega/2 reaches the barrier top.
    NumericsError
        If exp(-Theta) underflows, so the splitting is not a normal float.
    """
    if not curvature_min > 0:
        raise WkbInapplicableError(f"curvature_min = {curvature_min:.6g}: "
                                   f"x_min is not a minimum of deltaV")
    if not x_min > 0:
        raise ValueError(f"x_min must be positive, got {x_min}")

    omega = math.sqrt(2.0 * curvature_min)
    energy = float(delta_v(x_min)) + 0.5 * omega
    top = float(delta_v(0.0))
    if energy >= top:
        raise WkbInapplicableError(
            f"ground level {energy:.6g} reaches the barrier top {top:.6g}; "
            f"no forbidden region"
        )

    x_t = numerics.find_root_bracketed(
        lambda x: float(delta_v(x)) - energy, 0.0, x_min, tol=1e-14 * x_min)
    action = barrier_action(delta_v, energy, x_t)
    splitting = omega / math.sqrt(math.pi * math.e) * math.exp(-action)
    if splitting < sys.float_info.min:
        raise numerics.NumericsError(
            f"exp(-Theta) underflows at action {action:.6g}: splitting "
            f"{splitting:.3e} is below the smallest normal float")
    return WkbResult(splitting=splitting, action=action, energy=energy,
                     turning_points=(-x_t, x_t), well_frequency=omega)
