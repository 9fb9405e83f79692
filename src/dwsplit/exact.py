"""Exact tunneling splitting of a symmetric double well, two ways.

``green_splitting(view)`` works from the equilibrium density of a
``MeanFieldView`` and serves every row of ``experiments.evaluate``.  With
psi = rho^(1/2) phi the operator -x0^2 d2/dx2 + deltaV becomes the
diffusion-picture operator L phi = -x0^2 rho^-1 (rho phi')', whose lowest
eigenvalue in the odd sector is the splitting.  Its inverse K is the
flux-over-population double integral (Haenggi, Talkner & Borkovec, Rev.
Mod. Phys. 62, 251, 1990).  K acts on the density discretization of the
localization estimate: `localization.panel_density` and
`localization.localization_function` give rho, 1/rho and the start vector
g on the panel nodes, and both integrals are `numerics.running_integral`,
the inner one summed from L inwards so that it keeps its relative
accuracy in the tail.  The localization estimate is the Rayleigh quotient
of g, so inverse iteration only improves on it.

``exact_splitting(delta_v, well_location, well_curvature)`` takes a bare
deltaV(s), for callers that have no density.  It represents the operator
-d2/ds2 + deltaV in an orthonormal harmonic-oscillator (Hermite function)
basis centered on the barrier at the origin.  Its converged flag only says
that two basis sizes agreed, which at high barriers (dU above ~12) does
not bound the error.  Kinetic matrix elements are analytic; potential matrix
elements use Gauss-Hermite quadrature of order 2 n_basis + 32, comfortably
beyond polynomial exactness for the basis products.  The basis length
scale follows the well curvature, l = deltaV''(x_min)^(-1/4) in reduced
units, and the basis size is doubled from 64 to 1024 until the splitting
e1 - e0 is stable to 1e-8 relative.

deltaV is even and psi_k(-xi) = (-1)^k psi_k(xi), so the matrix splits
into an even block (psi_0, psi_2, ...) and an odd block (psi_1, psi_3, ...)
of about n_basis/2 each.  The quadrature order is even, so no node sits at
the origin and the rule folds onto its positive nodes: a block is
T diag(w (deltaV(x) + deltaV(-x))) T^T over the folded table T of its
parity, plus the kinetic part, which is tridiagonal within a parity.  The
folded tables do not depend on the model and are cached per basis size.
In one dimension the ground state is nodeless, hence even, and the first
excited state is odd, so the splitting is the lowest eigenvalue of the odd
block minus the lowest of the even block.

The Gauss-Hermite nodes are the eigenvalues of the symmetric tridiagonal
Jacobi matrix of the Hermite recurrence, off-diagonal sqrt(k/2) (Golub &
Welsch, Math. Comp. 23, 221, 1969), each polished by one Newton step on
the orthonormal Hermite function psi_order.  The total weights
w_i * exp(xi_i^2) are the inverse Christoffel sums 1 / sum_k psi_k(xi_i)^2,
which stay finite where the raw weights underflow.  Nodes in the extreme
tail where even that sum underflows get weight zero; every basis function
is zero there to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import localization, numerics
from .models import MeanFieldView


@dataclass(frozen=True)
class HermiteBasis:
    """Orthonormal oscillator basis phi_k(x) = psi_k(x/l) / sqrt(l)."""

    n_basis: int
    length_scale: float

    def __post_init__(self):
        if self.n_basis < 2:
            raise ValueError(f"n_basis must be >= 2, got {self.n_basis}")
        if self.length_scale <= 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")


@dataclass(frozen=True)
class ExactSpectrumResult:
    """Lowest even and odd eigenvalues of the shifted operator.

    e0 and e1 are the lowest even and the lowest odd level in E_u units
    (for a quantum potential generated from a normalized density, e0 is
    zero up to discretization).  convergence_history records
    (n_basis, splitting) per doubling step.
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


def hermite_function_table(n: int, xi: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_{n-1} evaluated at xi.

    Returns an (n, len(xi)) array.  The three-term recurrence

        psi_{k+1} = sqrt(2/(k+1)) xi psi_k - sqrt(k/(k+1)) psi_{k-1}

    is numerically stable; starting from psi_0 = pi^(-1/4) exp(-xi^2/2) the
    values underflow harmlessly to zero deep in the classically forbidden
    tail.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty((n, xi.size), dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if n > 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for k in range(1, n - 1):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * xi * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def _hermite_rule(order: int):
    """Gauss-Hermite nodes and underflow-safe total weights w * exp(xi^2)."""
    xi = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, order)), -1))
    # Newton on psi_order through the ratio r = psi_k / psi_(k-1), which
    # stays finite where the functions themselves underflow; the eigenvalues
    # alone are off by up to ~1e-12 at the extreme nodes of order 2080
    ratio = math.sqrt(2.0) * xi
    for k in range(1, order):
        ratio = (math.sqrt(2.0 / (k + 1)) * xi
                 - math.sqrt(k / (k + 1.0)) / ratio)
    xi = xi - ratio / (math.sqrt(2.0 * order) - xi * ratio)
    psi_prev = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    acc = psi_prev * psi_prev
    psi_cur = math.sqrt(2.0) * xi * psi_prev
    acc += psi_cur * psi_cur
    for k in range(1, order - 1):
        psi_next = (math.sqrt(2.0 / (k + 1)) * xi * psi_cur
                    - math.sqrt(k / (k + 1.0)) * psi_prev)
        psi_prev, psi_cur = psi_cur, psi_next
        acc += psi_cur * psi_cur
    with np.errstate(divide="ignore"):
        weights = np.where(acc > 0.0, 1.0 / acc, 0.0)
    return xi, weights


@lru_cache(maxsize=8)
def _parity_tables(n: int):
    """Positive nodes and weights of the order 2n+32 rule, and the even and
    odd rows of the Hermite table there: (xi, weights, (even, odd))."""
    xi, weights = _hermite_rule(2 * n + 32)
    half = xi.size // 2      # nodes are symmetric and the order is even
    xi, weights = xi[half:], weights[half:]
    table = hermite_function_table(n, xi)
    tables = (np.ascontiguousarray(table[0::2]),
              np.ascontiguousarray(table[1::2]))
    for arr in (xi, weights) + tables:
        arr.setflags(write=False)
    return xi, weights, tables


@dataclass(frozen=True)
class ParityHamiltonian:
    """Matrix of -d2/dx2 + deltaV split by parity.

    even holds the rows and columns of psi_0, psi_2, ...; odd those of
    psi_1, psi_3, ...; the couplings between them vanish for even deltaV.
    """

    even: np.ndarray
    odd: np.ndarray

    @property
    def n(self) -> int:
        """Size of the whole basis."""
        return self.even.shape[0] + self.odd.shape[0]


def build_hamiltonian(delta_v: Callable, basis: HermiteBasis) -> ParityHamiltonian:
    """Parity blocks of -d2/dx2 + deltaV in the given oscillator basis.

    deltaV must accept numpy arrays and be even about the origin.
    It is evaluated once, on the folded nodes and their mirror images.
    """
    ell = basis.length_scale
    xi, weights, tables = _parity_tables(basis.n_basis)
    x_nodes = ell * np.concatenate((xi, -xi))
    v_nodes = np.asarray(delta_v(x_nodes), dtype=float)
    if v_nodes.shape != x_nodes.shape:
        raise ValueError("delta_v must map an array of positions to an array "
                         "of the same shape")
    if not np.all(np.isfinite(v_nodes)):
        raise ValueError("delta_v returned non-finite values on the "
                         "quadrature nodes")
    v_right, v_left = v_nodes[:xi.size], v_nodes[xi.size:]
    asymmetry = float(np.max(np.abs(v_right - v_left)))
    if asymmetry > 1e-9 * float(np.max(np.abs(v_nodes))):
        raise ValueError(
            f"delta_v must be even about the origin: "
            f"|deltaV(x) - deltaV(-x)| reaches {asymmetry:.3e}"
        )
    folded = weights * (v_right + v_left)
    return ParityHamiltonian(*(_parity_block(table, folded, parity, ell)
                               for parity, table in enumerate(tables)))


def _parity_block(table: np.ndarray, folded: np.ndarray, parity: int,
                  ell: float) -> np.ndarray:
    """Block of basis indices k = parity, parity + 2, ...; symmetrized."""
    h = (table * folded) @ table.T

    # kinetic: <j|-d2/dx2|k> = [ (k + 1/2) d_{jk}
    #   - sqrt((k+1)(k+2))/2 d_{j,k+2} - sqrt(k(k-1))/2 d_{j,k-2} ] / l^2
    k = parity + 2.0 * np.arange(table.shape[0])
    m = np.arange(k.size)
    h[m, m] += (k + 0.5) / ell**2
    off = -0.5 * np.sqrt((k[:-1] + 1.0) * (k[:-1] + 2.0)) / ell**2
    h[m[:-1], m[1:]] += off
    h[m[1:], m[:-1]] += off

    scale = float(np.max(np.abs(h))) or 1.0
    residual = float(np.max(np.abs(h - h.T)))
    if residual > 1e-9 * scale:
        raise numerics.EigenSolverError(
            f"Hamiltonian asymmetry {residual:.3e} exceeds 1e-9 * scale; "
            f"quadrature order {2 * table.shape[1]} is insufficient"
        )
    h += h.T
    h *= 0.5
    return h


_BASIS_SIZES = [64 << k for k in range(5)]  # 64, 128, ..., 1024
_BASIS_TOL = 1e-8


def exact_splitting(
    delta_v: Callable,
    well_location: float,
    well_curvature: float,
) -> ExactSpectrumResult:
    """Tunneling splitting of -d2/dx2 + deltaV, converged in the basis size.

    delta_v is the shifted potential in E_u units, vectorized over
    positions.  well_curvature, deltaV'' at a minimum, sets the basis
    length scale l = well_curvature^(-1/4); well_location is not used.
    The basis runs through _BASIS_SIZES until two successive splittings
    agree to _BASIS_TOL relative or to the eigensolver noise floor.
    Otherwise the result carries converged=False; a splitting that is not
    positive never counts as converged.
    """
    if well_curvature <= 0:
        raise ValueError(
            f"well curvature must be positive, got {well_curvature:.6g}"
        )

    ell = float(well_curvature) ** -0.25
    history = []
    prev_split = None
    converged = False

    for n in _BASIS_SIZES:
        basis = HermiteBasis(n_basis=n, length_scale=ell)
        matrix = build_hamiltonian(delta_v, basis)
        e0, e1 = (numerics.eig_symmetric_lowest(b, 1)[0][0]
                  for b in (matrix.even, matrix.odd))
        split = float(e1 - e0)
        history.append((n, split))
        # eigenvalues carry noise ~ eps * ||H||; demanding agreement
        # below that floor would never terminate for tiny splittings
        gersh = max(float(np.abs(block).sum(axis=1).max())
                    for block in (matrix.even, matrix.odd))
        noise_floor = 64.0 * np.finfo(float).eps * gersh
        # odd lies above even, so a splitting <= 0 is never resolved
        if split > 0.0 and prev_split is not None and (
                abs(split - prev_split)
                <= max(_BASIS_TOL * abs(split), noise_floor)):
            converged = True
            break
        prev_split = split

    return ExactSpectrumResult(
        e0=float(e0), e1=float(e1), n_basis_used=basis.n_basis,
        converged=converged, convergence_history=tuple(history))


_GREEN_PANELS = [p for p in numerics.PANELS if p >= 32]
_GREEN_ITERATIONS = 50


@dataclass(frozen=True)
class GreenSplittingResult:
    """Lowest odd-sector eigenvalue of the diffusion-picture operator.

    splitting : Rayleigh quotient of the last iterate, E_u units.
    bracket : (lower, upper) Collatz-Wielandt bounds from the same iterate.
    n_panels : panel count P of the result, P/2 on [0, x_m] and P/2 on
        [x_m, domain_halfwidth].
    iterations : applications of K at that panel count.
    converged : the bracket closed to REL_TOL at P and at P/2, and the
        two Rayleigh quotients agree to REL_TOL.
    """

    splitting: float
    bracket: tuple[float, float]
    n_panels: int
    iterations: int
    converged: bool


def _inverse_iteration(view: MeanFieldView, panels: int):
    """(value, bracket, iterations, settled) of K iterated on P panels."""
    half, rho, inv = localization.panel_density(view, panels)
    _, phi = localization.localization_function(half, inv)
    rho_w = half * numerics.WEIGHTS * rho
    floor = np.sqrt(np.finfo(float).eps)
    for iteration in range(1, _GREEN_ITERATIONS + 1):
        psi = numerics.running_integral(numerics.running_integral(
            rho * phi, half, reverse=True) * inv, half) / view.x0**2
        # next to phi(0) = 0 the ratio is one of two tiny numbers; such
        # nodes are left out so that they cannot hold the bracket open
        keep = phi > floor * phi.max()
        ratio = psi[keep] / phi[keep]
        bracket = (float(1.0 / ratio.max()), float(1.0 / ratio.min()))
        weighted = rho_w * psi
        value = float(np.vdot(weighted, phi) / np.vdot(weighted, psi))
        settled = bracket[1] - bracket[0] <= numerics.REL_TOL * value
        if settled:
            break
        phi = psi / psi.max()
    return value, bracket, iteration, settled


def green_splitting(view: MeanFieldView) -> GreenSplittingResult:
    """Splitting as the lowest odd-sector eigenvalue of -x0^2 rho^-1 (rho phi')'.

    phi(0) = 0 and the flux rho phi' vanishes at view.domain_halfwidth.
    Inverse iteration applies the Green's operator
    (K phi)(x) = x0^-2 integral_0^x ds/rho(s) integral_s^L rho phi dy
    from the localization function g on P panels of 16 Gauss-Legendre
    nodes.  K has a positive kernel, so for positive phi the
    Collatz-Wielandt bracket 1/max(K phi/phi) <= lambda <= 1/min(K phi/phi)
    holds.  Iteration stops when that bracket, over nodes with phi above
    sqrt(eps) max phi, is narrower than numerics.REL_TOL relative, or
    after 50 iterations.  P doubles from 32 until the P/2 and P results
    both settled and agree to REL_TOL; the P result is returned.
    Otherwise the last one, at 4096 panels, comes back with
    converged=False.

    Raises
    ------
    NumericsError
        If rho_eq underflows on the nodes, so that 1/rho_eq is not finite.
    """
    last = None
    for panels in _GREEN_PANELS:
        value, bracket, iterations, settled = _inverse_iteration(view, panels)
        converged = (settled and last is not None and last[1]
                     and abs(value - last[0]) <= numerics.REL_TOL * value)
        if converged:
            break
        last = value, settled
    return GreenSplittingResult(splitting=value, bracket=bracket,
                                n_panels=panels, iterations=iterations,
                                converged=converged)
