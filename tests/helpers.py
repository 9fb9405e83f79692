"""Shared oracles for the test suite.

All three oracles are deliberately independent of the package internals:
the two eigensolver oracles (lowest levels, and the ground state) discretize
the Hamiltonian on a uniform grid with a three-point Laplacian, the
localization oracle evaluates the integral bound with plain dense trapezoid
sums.  Tests compare package results against these alternate routes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal


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
