"""Shared double-precision numerical kernels.

Thin, contract-enforcing wrappers around QUADPACK adaptive quadrature
(Gauss-Kronrod with interval bisection), Brent bracketed root finding and
LAPACK symmetric eigensolvers, plus a small central-difference helper.
Other modules route their adaptive quadrature, root finding and
diagonalization through this one so that tolerances and failure modes are
uniform; fixed rules live where they are used (the Gauss-Hermite rule in
`exact`, the Gauss-Legendre panels in `localization`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, linalg, optimize
from scipy.linalg import blas


class NumericsError(RuntimeError):
    """Base class for failures of the numerical kernels."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best estimate reached so far and its error estimate, so a
    caller can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best_value: float, error_estimate: float):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


class RootBracketError(NumericsError):
    """Root finding failed: invalid bracket or no convergence."""


class EigenSolverError(NumericsError):
    """Symmetric eigensolver failed or produced residuals above tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    value: the integral estimate.
    error_estimate: nested-rule estimate of the absolute error, >= 0.
    evaluations: number of integrand evaluations spent.
    """

    value: float
    error_estimate: float
    evaluations: int


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 200,
) -> QuadratureResult:
    """Integrate f over [a, b] with adaptive Gauss-Kronrod quadrature.

    Parameters
    ----------
    f : callable
        Integrand, finite on [a, b].
    a, b : float
        Integration limits, a < b.
    abs_tol, rel_tol : float
        Requested absolute and relative tolerances; the target is
        max(abs_tol, rel_tol * |integral|).
    max_subdivisions : int
        Subinterval budget handed to the adaptive subdivision.

    Returns
    -------
    QuadratureResult

    Raises
    ------
    QuadratureError
        If the tolerance is not met within the subdivision budget.  The
        exception carries the best estimate and its error estimate.
    """
    if not (a < b):
        raise ValueError(f"invalid interval: need a < b, got a={a}, b={b}")
    if abs_tol <= 0 or rel_tol <= 0:
        raise ValueError("tolerances must be positive")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(
            f, a, b,
            epsabs=abs_tol, epsrel=rel_tol,
            limit=max_subdivisions, full_output=True,
        )
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3 or not np.isfinite(value):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: "
            f"best estimate {value:.16e}, error estimate {abserr:.3e}",
            best_value=value, error_estimate=abserr,
        )
    return QuadratureResult(value=value, error_estimate=abserr,
                            evaluations=int(info["neval"]))


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Locate the root of f inside a sign-changing bracket [lo, hi].

    Uses Brent's method.  The bracket must satisfy f(lo) * f(hi) <= 0.

    Raises
    ------
    RootBracketError
        If the bracket does not change sign or iteration fails to converge.
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
    root, info = optimize.brentq(f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps,
                                 maxiter=max_iter, full_output=True)
    if not info.converged:
        raise RootBracketError(
            f"Brent iteration did not converge on [{lo}, {hi}] "
            f"after {max_iter} iterations"
        )
    return float(root)


def eig_symmetric_lowest(a: np.ndarray, k: int):
    """Lowest k eigenpairs of a dense real symmetric matrix.

    Only the k wanted pairs are computed (LAPACK subset eigensolver, chosen
    by index).  Symmetry is the caller's invariant: the solver reads one
    triangle of ``a``.

    Returns
    -------
    (values, vectors)
        values: ascending array of the k smallest eigenvalues.
        vectors: (n, k) array whose columns are the orthonormal eigenvectors.

    Raises
    ------
    EigenSolverError
        If LAPACK fails to converge or the residuals ||A v - lambda v|| exceed
        1e-10 times the largest row 2-norm of A, a lower bound of ||A||_2.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")
    try:
        values, vectors = linalg.eigh(a, subset_by_index=(0, k - 1),
                                      check_finite=False)
    except linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolver failed: {exc}") from exc
    norm = float(np.sqrt(np.max(np.sum(a * a, axis=1)))) or 1.0
    residual = float(np.max(np.abs(blas.dgemm(1.0, a, vectors)
                                   - vectors * values)))
    if not residual <= 1e-10 * norm:
        raise EigenSolverError(
            f"eigenpair residual {residual:.3e} exceeds 1e-10 * ||A|| = {1e-10 * norm:.3e}"
        )
    return values, vectors


def derivative_central(
    f: Callable[[float], float],
    x: float,
    order: int = 1,
    h: float = 1e-5,
) -> float:
    """Central finite-difference derivative of f at x.

    order 1 uses the two-point stencil, order 2 the three-point stencil;
    both are O(h^2) accurate.  The step h is the caller's responsibility
    (truncation versus roundoff trade-off).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h <= 0:
        raise ValueError("h must be positive")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
