"""Shared oracles for the test suite.

All four oracles are deliberately independent of the package internals:
the two eigensolver oracles (lowest levels, and the ground state) discretize
the Hamiltonian on a uniform grid with a three-point Laplacian, the
localization oracle evaluates the integral bound with plain dense trapezoid
sums, and the Green's-operator oracle runs power iteration on trapezoid
sums over a uniform grid.  Tests compare package results against these
alternate routes.  `running_integral` is the reference for the package's
panel matrices: their cumulative form written out, one direction at a time.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from dwsplit.numerics import FORWARD, REVERSE


def running_integral(f, half, reverse=False):
    """Integral of f from the first panel's left edge to each node.

    f holds the values on the NODES of P adjoining panels, shape (P, 16),
    and half their half-widths, shape (P, 1).  With reverse=True the
    integral runs from each node to the last panel's right edge, and the
    whole panels are summed from that edge inwards, so a tail that decays
    towards it keeps its relative accuracy.  Exact for a polynomial of
    degree <= 15 on each panel.
    """
    part = half * (f @ (REVERSE if reverse else FORWARD))
    whole = part[::-1, -1] if reverse else part[:, -1]
    before = np.concatenate([[0.0], np.cumsum(whole[:-1])])
    return part[:, :-1] + (before[::-1] if reverse else before)[:, None]


def fd_lowest(delta_v, halfwidth: float = 4.0, n: int = 100_000,
              k: int = 3) -> np.ndarray:
    """Lowest k eigenvalues of -d2/dx2 + deltaV on a Dirichlet grid."""
    x = np.linspace(-halfwidth, halfwidth, n + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + delta_v(x)
    off = np.full(n - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


def fd_ground_state(delta_v, halfwidth: float = 4.0, n: int = 20_000):
    """Grid, lowest eigenvalues, and L2-normalized ground state."""
    x = np.linspace(-halfwidth, halfwidth, n + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + delta_v(x)
    off = np.full(n - 1, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, 1))
    psi0 = vecs[:, 0] / np.sqrt(h)
    if psi0[n // 2] < 0:
        psi0 = -psi0
    return x, vals, psi0


def trapezoid_localization(view, n: int = 1_000_001):
    """Dense-grid evaluation of the integral splitting bound.

    Mirrors the defining integrals with trapezoid sums on [0, L]:
    rho is view.rho_eq normalized to unit integral over [-L, L],
    I = int_0^{x_m} 1/rho, g = min(C(x)/I, 1) with C the running
    inverse-density integral, norm = <g|rho|g> over the full axis.
    """
    x = np.linspace(0.0, view.domain_halfwidth, n)
    rho = view.rho_eq(x)
    rho = rho / (2.0 * float(np.trapezoid(rho, x)))
    inv = 1.0 / rho
    h = x[1] - x[0]
    cum = np.concatenate([[0.0], np.cumsum((inv[1:] + inv[:-1]) * 0.5 * h)])
    i_value = float(np.interp(view.x_m, x, cum))
    g = np.minimum(cum / i_value, 1.0)
    norm = 2.0 * float(np.trapezoid(g * g * rho, x))
    splitting = 2.0 * view.x0**2 / (i_value * norm)
    return splitting, i_value, norm


def trapezoid_green(view, n: int) -> float:
    """Lowest odd eigenvalue of -x0^2 rho^-1 (rho phi')' on n trapezoid steps.

    A uniform grid of n + 1 nodes on [0, L], L = view.domain_halfwidth,
    carries rho = view.rho_eq over its maximum (the operator does not
    depend on the scale of rho).  The Green's operator
    (K phi)(x) = x0^-2 int_0^x ds/rho(s) int_s^L rho phi dy is two
    trapezoid cumulative sums, the inner one summed from L inwards.  Power
    iteration starts from min(x/x_m, 1) and stops when the Rayleigh
    quotient <rho K phi, phi> / <rho K phi, K phi> repeats to 1e-15.  The
    error is O(h^2), which one Richardson step over n and 2n removes.
    """
    x = np.linspace(0.0, view.domain_halfwidth, n + 1)
    h = x[1] - x[0]
    rho = view.rho_eq(x)
    rho = rho / rho.max()
    w = np.full(n + 1, h)
    w[[0, -1]] = 0.5 * h

    def cumulative(f):
        return np.concatenate([[0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])

    phi, last = np.minimum(x / view.x_m, 1.0), None
    for _ in range(500):
        psi = cumulative(cumulative((rho * phi)[::-1])[::-1] / rho) / view.x0**2
        top = psi.max()
        psi /= top
        value = float(np.sum(w * rho * psi * phi)
                      / (np.sum(w * rho * psi * psi) * top))
        if last is not None and abs(value - last) <= 1e-15 * value:
            return value
        phi, last = psi, value
    raise AssertionError(f"power iteration did not settle ({view.label})")


def richardson_green(view) -> float:
    """trapezoid_green over n = 20,000 and 40,000 with one Richardson step."""
    return (4.0 * trapezoid_green(view, 40_000)
            - trapezoid_green(view, 20_000)) / 3.0
