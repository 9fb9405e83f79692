"""Shared oracles for the test suite.

All four oracles are deliberately independent of the package internals:
the two eigensolver oracles (lowest levels, and the ground state) discretize
the Hamiltonian on a uniform grid with a three-point Laplacian, the
localization oracle evaluates the integral bound with plain dense trapezoid
sums, and the Green's-operator oracle runs power iteration on trapezoid
sums over a uniform grid.  Tests compare package results against these
alternate routes.  `running_integral` is the reference for the package's
panel matrices: their cumulative form written out, one direction at a time.
`read_profile_output` parses what `dwsplit profile` prints, for the golden
profile file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from dwsplit.models import BarrierHeights
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


def read_profile_output(text: str):
    """(meta without "version", header, rows of floats) of profile's CSV or
    JSON output."""
    if text.startswith("{"):
        doc = json.loads(text)
        header = list(doc["rows"][0])
        meta = doc["meta"]
        rows = [[float(r[c]) for c in header] for r in doc["rows"]]
    else:
        lines = text.splitlines()
        meta = dict(line[2:].split(" = ", 1) for line in lines
                    if line.startswith("# "))
        body = [line for line in lines if not line.startswith("# ")]
        header = body[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    meta = {k: v for k, v in meta.items() if k != "version"}
    return meta, header, rows


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
    I = int_0^{x0} 1/rho, g = min(C(x)/I, 1) with C the running
    inverse-density integral, norm = <g|rho|g> over the full axis.
    """
    x = np.linspace(0.0, view.domain_halfwidth, n)
    rho = view.rho_eq(x)
    rho = rho / (2.0 * float(np.trapezoid(rho, x)))
    inv = 1.0 / rho
    h = x[1] - x[0]
    cum = np.concatenate([[0.0], np.cumsum((inv[1:] + inv[:-1]) * 0.5 * h)])
    i_value = float(np.interp(view.x0, x, cum))
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
    iteration starts from min(x/x0, 1) and stops when the Rayleigh
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

    phi, last = np.minimum(x / view.x0, 1.0), None
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


@dataclass(frozen=True)
class RazavyModel:
    """Razavy's bistable well (Am. J. Phys. 48, 285, 1980) as a third family.

    It implements only the members of the ``dwsplit.models.Model`` protocol,
    so the package reads it as it reads its own families.  With xi = e^t,
    t < 0, the density is rho_eq ~ cosh^2 x exp(-(xi/2) cosh 2x), so

        U = (xi/2) cosh 2x - 2 ln cosh x,

    shifted below to 0 at its minima x = +-x0, cosh^2 x0 = 1/xi, where
    U = 1 - xi/2 + t; the barrier is dU = U(0) - U(x0) = xi - 1 - t.  In x,
    U' = xi sinh 2x - 2 tanh x and U'' = 2 xi cosh 2x - 2 sech^2 x; with
    sinh 2x tanh x = cosh 2x - 1 and tanh^2 x + sech^2 x = 1,

        V = U'^2/4 - U''/2 = (xi^2/4) sinh^2 2x - 2 xi cosh 2x + 1 + xi,

    and deltaV / E_u = x0^2 V(x), as the package defines it.  The odd state
    sinh x exp(-(xi/4) cosh 2x) gives -psi'' + V psi = 2 xi psi, so the
    splitting is exactly 2 xi x0^2 (``exact_splitting``).  V'' = 2 xi^2
    cosh 4x - 8 xi cosh 2x is 2 xi^2 - 8 xi < 0 both at 0 and at x0
    (cosh 2x0 = 2/xi - 1): the density maximum is no minimum of deltaV, so
    WKB does not apply.  deltaV has its minima at cosh 2x = 4/xi, where
    V = -3 + xi - xi^2/4, below V(0) = 1 - xi by (2 - xi/2)^2.
    Every cosh is written as exponentials of t +- 2|x|, which stay finite.
    """

    t: float

    def __post_init__(self):
        if not -math.inf < self.t < 0.0:
            raise ValueError(f"t must be finite and negative, got {self.t}")

    @property
    def x0(self) -> float:
        return math.acosh(math.exp(-0.5 * self.t))

    def exact_splitting(self) -> float:
        return 2.0 * math.exp(self.t) * self.x0**2

    def meanfield_potential(self, x):
        a = np.abs(np.asarray(x, dtype=float))
        cosh_term = 0.25 * (np.exp(self.t + 2.0 * a) + np.exp(self.t - 2.0 * a))
        log_cosh = np.logaddexp(a, -a) - math.log(2.0)
        return (cosh_term - 2.0 * log_cosh
                - (1.0 - 0.5 * math.exp(self.t) + self.t))

    def quantum_potential(self, x):
        scalar = isinstance(x, float)
        a = abs(x) if scalar else np.abs(np.asarray(x, dtype=float))
        exp = math.exp if scalar else np.exp
        up, down = exp(self.t + 2.0 * a), exp(self.t - 2.0 * a)
        return self.x0**2 * (((up - down) / 4.0)**2 - (up + down)
                             + 1.0 + math.exp(self.t))

    def barrier_heights(self) -> BarrierHeights:
        xi = math.exp(self.t)
        return BarrierHeights(delta_u=xi - 1.0 - self.t,
                              delta_v=self.x0**2 * (2.0 - 0.5 * xi)**2)

    def curvature_at_x0(self) -> float:
        xi = math.exp(self.t)
        return self.x0**4 * (2.0 * xi * xi - 8.0 * xi)

    def curvature_at_origin(self) -> float:
        return self.curvature_at_x0()

    def domain_halfwidth(self) -> float:
        # (1/4) e^(t + 2L) = 100 there, so U(L) is about 94
        return 0.5 * (math.log(400.0) - self.t)

    def label(self) -> str:
        return f"razavy(t={self.t:g})"

    def has_two_maxima(self) -> bool:
        return True  # U''(0) = 2 xi - 2 < 0, as xi = e^t < 1

    def profile_extras(self, grid):
        return f"razavy t={self.t:g}", ()

    def two_gaussian_columns(self):
        return None
