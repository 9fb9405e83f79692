"""Shared double-precision numerical kernels.

One quadrature rule serves every integral in the package: a 16-point
Gauss-Legendre rule on P panels (`integrate_panels` doubles P from 8
until two successive sums agree to 1e-12 relative).  The integrands are
analytic, so the panel sums converge geometrically in P.
The rule's cumulative form is a pair of panel matrices, FORWARD and
REVERSE: the integral of the degree-15 interpolant within a panel up to
or beyond each node (Greengard, SIAM J. Numer. Anal. 28, 1991).  Added to
whole panels, they give the running integrals of the density
discretization that `localization` and `exact` share; `bisect` carries
node values to the halved panels through the same interpolant.
Besides the rule there is a bracketed root finder (Anderson-Bjorck
false position).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import legendre

NODES, WEIGHTS = legendre.leggauss(16)
PANELS = [8 << k for k in range(10)]  # 8, 16, ..., 4096
REL_TOL = 1e-12


class NumericsError(RuntimeError):
    """Base class for failures of the numerical kernels."""


class RootBracketError(NumericsError):
    """Root finding failed: the bracket does not change sign."""


# _LEGENDRE maps f(NODES) to the Legendre coefficients of its degree-15
# interpolant.  _F[i, j] weighs f(t_j) in the integral from -1 to t_i of it;
# REVERSE is its mirror image, from t_i to 1.  The last column of FORWARD
# and REVERSE is the whole panel.  _BISECT evaluates it on the NODES of
# [-1, 0] and [0, 1].
_LEGENDRE = ((np.arange(16) + 0.5)[:, None] * legendre.legvander(NODES, 15).T
             * WEIGHTS)
_F = (legendre.legvander(NODES, 16) @ legendre.legint(np.eye(16), lbnd=-1.0)
      @ _LEGENDRE)
_BISECT = legendre.legvander(np.concatenate([NODES - 1.0, NODES + 1.0]) / 2.0,
                             15) @ _LEGENDRE
FORWARD = np.column_stack([_F.T, WEIGHTS])
REVERSE = np.column_stack([_F[::-1, ::-1].T, WEIGHTS])


def bisect(f):
    """Values on the NODES of P panels, shape (P, 16), carried to the 2P
    halves of those panels, left half first, by the degree-15 interpolant."""
    return (f @ _BISECT.T).reshape(-1, 16)


def integrate_panels(f: Callable, a: float, b: float) -> float:
    """Integral of a vectorized f over [a, b] on P equal Gauss-Legendre panels.

    P doubles along PANELS until two successive sums agree to REL_TOL
    relative.

    Raises
    ------
    NumericsError
        If a sum is not finite, or the sums have not settled at the last
        panel count.
    """
    last = None
    for n in PANELS:
        edges = np.linspace(a, b, n + 1)
        half = 0.5 * np.diff(edges)
        nodes = (edges[:-1] + half)[:, None] + half[:, None] * NODES
        value = float((half * (f(nodes) @ WEIGHTS)).sum())
        if not np.isfinite(value):
            raise NumericsError(f"integral over [{a}, {b}] is not finite: {value}")
        if last is not None and abs(value - last) <= REL_TOL * abs(value):
            return value
        last = value
    raise NumericsError(
        f"integral over [{a}, {b}] not settled to {REL_TOL:g} relative with "
        f"{PANELS[-1]} panels")


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Locate the root of f inside a sign-changing bracket [lo, hi].

    Anderson-Bjorck false position (BIT 13, 253, 1973): the secant through
    the bracket ends, with the kept end's value scaled by
    m = 1 - f(new)/f(replaced), or by 1/2 if m <= 0, whenever the same end
    is kept twice in a row.  A step bisects instead when the last three
    steps did not halve the bracket, so the bracket at least halves every
    four steps.  Each new point stays tol/2 inside the bracket, so an end
    that has reached the root pulls the other end across it.  Stops once
    the bracket is narrower than tol plus a few ulps and returns the end
    where |f| is smaller.  The bracket must satisfy f(lo) * f(hi) <= 0.

    Raises
    ------
    RootBracketError
        If the bracket does not change sign.
    NumericsError
        If f is not finite at an end of the bracket or at a step.
    """
    if not (lo < hi):
        raise ValueError(f"invalid bracket: need lo < hi, got lo={lo}, hi={hi}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise RootBracketError(
            f"no sign change on bracket [{lo}, {hi}]: "
            f"f(lo)={f_lo:.6e}, f(hi)={f_hi:.6e}"
        )
    # the secant reads s_lo and s_hi: f at the ends, the kept one scaled
    x, kept, widths, s_lo, s_hi = lo, 0, (np.inf,) * 3, f_lo, f_hi
    while True:
        # each new value becomes f_lo or f_hi; a NaN would never narrow
        # the bracket
        if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
            raise NumericsError(f"f is not finite on the bracket [{lo}, {hi}]: "
                                f"f(lo)={f_lo}, f(hi)={f_hi}")
        step = 0.5 * tol + 2.0 * np.finfo(float).eps * abs(x)
        if hi - lo <= 2.0 * step:
            return float(lo if abs(f_lo) < abs(f_hi) else hi)
        if hi - lo > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        else:
            x = min(max(hi - s_hi * (hi - lo) / (s_hi - s_lo), lo + step),
                    hi - step)
        widths = (*widths[1:], hi - lo)
        fx = f(x)
        if fx == 0.0:
            return float(x)
        if np.sign(fx) == np.sign(f_hi):
            if kept == 1:
                s_lo *= max(1.0 - fx / f_hi, 0.0) or 0.5
            hi, f_hi, s_hi, kept = x, fx, fx, 1
        else:
            if kept == -1:
                s_hi *= max(1.0 - fx / f_lo, 0.0) or 0.5
            lo, f_lo, s_lo, kept = x, fx, fx, -1
