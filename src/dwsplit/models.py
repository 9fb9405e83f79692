"""Symmetric double-well model families and their quantum potentials.

Everything works in reduced units: lengths in units of the well half
separation x0 (kept as an explicit field so dimensional bookkeeping stays
visible) and energies in units of E_u = hbar^2 / (2 m x0^2).  A model is
an equilibrium density rho_eq with two maxima at +-x0; its mean-field
potential is U = -ln rho_eq up to an additive constant.  The
Fokker-Planck-Smoluchowski <-> Schroedinger isomorphism defines the quantum
potential from the density alone,

    deltaV / E_u = x0^2 (rho_eq^(1/2))'' / rho_eq^(1/2)
                 = x0^2 (U'^2 / 4 - U'' / 2),

the shifted potential whose Schroedinger operator has rho_eq^(1/2) as its
exact nodeless ground state at eigenvalue zero.  Each family states U and
deltaV in closed form once; they return numpy values (arrays for array x,
numpy.float64 for scalar x).  ``meanfield_view`` turns any model into a
``MeanFieldView``: the density exp(-U), up to a factor, and its scales,
which is all the localization estimate and the Green pass read.

Two families are provided:

* ``TwoGaussianModel``: rho_eq proportional to the alpha-th power of a sum
  of two displaced Gaussians.  alpha = 1 is the plain two-Gaussian mixture;
  raising alpha at fixed barrier height deltaV flattens the barrier top and
  widens it, which is the knob used to build wide-barrier test cases.
* ``QuarticMeanFieldModel``: U is the standard quartic double well.  Its
  quantum potential develops a spurious third minimum at the origin once
  the barrier exceeds a threshold, which is the pathology motivating the
  two-Gaussian family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import numerics

# Validated shape range for the two-Gaussian family.  Larger sigma/x0 means
# strongly overlapping wells; the closed-form barrier expressions drop terms
# of order S = exp(-2 x0^2 / (alpha sigma^2)) and degrade there.
SIGMA_RATIO_MAX = 0.5
SUPERPOSITION_WARN = 1e-3


def _sech2(u: np.ndarray) -> np.ndarray:
    # 1/cosh^2 without overflow for large |u|
    e = np.exp(-np.abs(u))
    return (2.0 * e / (1.0 + e * e)) ** 2


@dataclass(frozen=True)
class TwoGaussianModel:
    """Equilibrium density built from two displaced Gaussians.

    rho_eq(x) = [exp(-(x-x0)^2 / (2 alpha sigma^2)) +
                 exp(-(x+x0)^2 / (2 alpha sigma^2))]^alpha
    up to a constant factor.

    Fields
    ------
    sigma : float
        Width parameter of each well, same length unit as x0.
    x0 : float
        Half distance between the density maxima (also the reduced length
        unit; keep 1.0 unless deliberately rescaling).
    alpha : float
        Flattening exponent, >= 1.
    allow_out_of_range : bool
        Permit sigma/x0 > 0.5.  Out-of-range models are constructed with a
        validity warning attached instead of raising.  Sweeps and the CLI
        rely on this check alone.

    Validity warnings (never fatal) are collected in ``validity_warnings``:
    appreciable well overlap (S >= 1e-3) and loss of the two-minimum shape
    of the quantum potential (curvature_at_origin >= 0).
    """

    sigma: float
    x0: float = 1.0
    alpha: float = 1.0
    allow_out_of_range: bool = False
    validity_warnings: tuple = field(default=(), init=False, compare=False)

    def __post_init__(self):
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 1 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        notes = []
        ratio = self.sigma / self.x0
        if ratio > SIGMA_RATIO_MAX:
            if not self.allow_out_of_range:
                raise ValueError(
                    f"sigma/x0 = {ratio:.4g} outside the validated range "
                    f"(0, {SIGMA_RATIO_MAX}]; pass allow_out_of_range=True "
                    f"to construct anyway"
                )
            notes.append(
                f"sigma/x0 = {ratio:.4g} exceeds {SIGMA_RATIO_MAX}; "
                f"closed-form barrier expressions lose accuracy"
            )
        s = superposition_coefficient(self)
        if s >= SUPERPOSITION_WARN:
            notes.append(
                f"well separation is marginal: S = {s:.3e} >= {SUPERPOSITION_WARN:g}"
            )
        if curvature_at_origin(self) >= 0.0:
            notes.append(
                "quantum potential has a third minimum at the origin "
                "(curvature_at_origin >= 0)"
            )
        object.__setattr__(self, "validity_warnings", tuple(notes))


@dataclass(frozen=True)
class QuarticMeanFieldModel:
    """Quartic mean-field double well U(x) = dU * (1 - (x/x0)^2)^2.

    dU is the mean-field barrier height in units of E_u.
    """

    du: float
    x0: float = 1.0

    def __post_init__(self):
        if not 0 < self.du < math.inf:
            raise ValueError(f"du must be positive and finite, got {self.du}")
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")


ModelLike = Union[TwoGaussianModel, QuarticMeanFieldModel]


@dataclass(frozen=True)
class MeanFieldView:
    """One model's equilibrium density and the scales read with it.

    Built by `meanfield_view` only.  rho_eq is exp(-U), proportional to the
    density (`localization.discretize` normalizes it).  x0 is the reduced
    length unit; x_m is the matching point used by localization (the
    density maximum, equal to x0 for both families here); domain_halfwidth
    bounds the region carrying all but negligible density mass.
    """

    rho_eq: Callable
    x0: float
    x_m: float
    domain_halfwidth: float
    label: str = ""


@dataclass(frozen=True)
class PotentialProfile:
    """A potential curve sampled on the caller's grid: values and a kind tag."""

    values: np.ndarray
    kind: str  # "quantum" | "meanfield"
    label: str = ""


@dataclass(frozen=True)
class BarrierHeights:
    """Closed-form barrier heights: mean-field dU and quantum dV (E_u units)."""

    delta_u: float
    delta_v: float


# ---------------------------------------------------------------------------
# two-Gaussian closed forms
# ---------------------------------------------------------------------------

def meanfield_potential(model: TwoGaussianModel, x):
    """U(x) = (x^2 + x0^2)/(2 sigma^2) - alpha ln(e^u + e^-u), u = x x0/(alpha sigma^2).

    Zero of energy sits at the density maxima up to O(S): U(+-x0) = O(S).
    """
    x = np.asarray(x, dtype=float)
    s2 = model.sigma**2
    u = x * model.x0 / (model.alpha * s2)
    # alpha * ln(e^u + e^-u) via logaddexp to survive large |u|
    return ((x * x + model.x0**2) / (2.0 * s2)
            - model.alpha * np.logaddexp(u, -u))


def quantum_potential_closed(model: TwoGaussianModel, x):
    """Closed-form quantum potential deltaV(x)/E_u of the two-Gaussian model.

    deltaV/E_u = (x0^4 / 4 sigma^4) (x/x0 - tanh u)^2
               + (x0^4 / 2 alpha sigma^4) sech^2 u  -  x0^2 / 2 sigma^2,
    with u = x x0 / (alpha sigma^2).
    """
    x = np.asarray(x, dtype=float)
    s2 = model.sigma**2
    r2 = model.x0**2 / s2          # (x0/sigma)^2
    u = x * model.x0 / (model.alpha * s2)
    return (0.25 * r2 * r2 * (x / model.x0 - np.tanh(u)) ** 2
            + 0.5 * r2 * r2 / model.alpha * _sech2(u) - 0.5 * r2)


def barrier_heights(model: TwoGaussianModel) -> BarrierHeights:
    """Closed-form barrier heights, O(S) terms dropped.

    delta_u = x0^2/(2 sigma^2) - alpha ln 2          (mean field)
    delta_v = x0^4/(2 alpha sigma^4)                 (quantum, E_u units)

    They obey delta_v = (2/alpha) * (delta_u + alpha ln 2)^2 identically.
    """
    r2 = model.x0**2 / model.sigma**2
    return BarrierHeights(
        delta_u=0.5 * r2 - model.alpha * math.log(2.0),
        delta_v=0.5 * r2 * r2 / model.alpha,
    )


def superposition_coefficient(model: TwoGaussianModel) -> float:
    """Well-overlap measure S = exp(-2 x0^2 / (alpha sigma^2))."""
    return math.exp(-2.0 * model.x0**2 / (model.alpha * model.sigma**2))


def curvature_at_origin(model: TwoGaussianModel) -> float:
    """x0^2 * deltaV''(0) / E_u from the closed form.

    = (x0^4 / 2 sigma^4) (1 - b)^2 - x0^8 / (alpha^3 sigma^8),
    with b = x0^2 / (alpha sigma^2).  Negative while the quantum potential
    keeps its two-minimum shape.
    """
    r2 = model.x0**2 / model.sigma**2
    b = r2 / model.alpha
    return 0.5 * r2 * r2 * (1.0 - b) ** 2 - r2**4 / model.alpha**3


def curvature_at_minima(model: TwoGaussianModel) -> float:
    """x0^2 * deltaV''(+-x0) / E_u = x0^4 / (2 sigma^4), O(S) terms dropped."""
    r2 = model.x0**2 / model.sigma**2
    return 0.5 * r2 * r2


def barrier_width(model: TwoGaussianModel) -> float:
    """Full width of the quantum barrier at half height.

    The reference level is deltaV(0) - deltaV/2, halfway between the barrier
    top and the closed-form well floor; the two crossings sit symmetrically
    in (-x0, x0) and their distance is returned.

    Raises ValueError when the quantum potential is not a two-minimum
    barrier (curvature_at_origin >= 0).
    """
    if curvature_at_origin(model) >= 0.0:
        raise ValueError(
            "barrier width undefined: quantum potential has a third minimum "
            "at the origin for these parameters"
        )
    top = quantum_potential_closed(model, 0.0)
    level = top - 0.5 * barrier_heights(model).delta_v

    def excess(x):
        return quantum_potential_closed(model, x) - level

    # excess(0) = +dV/2, excess(x0) = -dV/2 + O(S): a guaranteed bracket
    right = numerics.find_root_bracketed(excess, 0.0, model.x0,
                                         tol=1e-13 * model.x0)
    return 2.0 * right


def sigma_for_du(du: float, x0: float = 1.0) -> float:
    """sigma reproducing mean-field barrier dU in the alpha = 1 model."""
    if not -math.log(2.0) < du < math.inf:
        raise ValueError(f"du must be finite and exceed -ln 2, got {du}")
    return x0 * math.sqrt(0.5 / (du + math.log(2.0)))


def sigma_for_delta_v(delta_v: float, alpha: float, x0: float = 1.0) -> float:
    """sigma holding the quantum barrier at dV for the given alpha."""
    if not 0 < delta_v < math.inf:
        raise ValueError(f"delta_v must be positive and finite, got {delta_v}")
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    return x0 * (1.0 / (2.0 * alpha * delta_v)) ** 0.25


def two_minimum_alpha_limit(delta_v: float) -> float:
    """Largest alpha keeping two minima at fixed quantum barrier delta_v.

    With sigma = sigma_for_delta_v(delta_v, alpha) and b = sqrt(2 dV/alpha),
    x0^2 deltaV''(0) = alpha dV (1 - b)^2 - 4 dV^2/alpha, which vanishes
    where alpha |1 - b| = 2 sqrt(dV): a quadratic in sqrt(alpha).  Above
    dV = 16 the curvature first turns positive at its smaller root with
    b > 1; otherwise only the root with b < 1 exists.  Raises ValueError
    when the limit is not above alpha = 1.
    """
    if not 0 < delta_v < math.inf:
        raise ValueError(f"delta_v must be positive and finite, got {delta_v}")
    c = math.sqrt(2.0 * delta_v)
    q = 8.0 * math.sqrt(delta_v)
    if delta_v > 16.0:
        # (c - sqrt(c^2 - q)) / 2, written without the cancellation
        root = q / (2.0 * (c + math.sqrt(c * c - q)))
    else:
        root = 0.5 * (c + math.sqrt(c * c + q))
    if root <= 1.0:
        raise ValueError(f"no two-minimum model exists at delta_v = "
                         f"{delta_v:g} even for alpha = 1")
    return root * root


def solve_parameters(delta_v: float, width: float, x0: float = 1.0,
                     allow_out_of_range: bool = False) -> TwoGaussianModel:
    """Two-Gaussian model with prescribed quantum barrier height and width.

    delta_v fixes sigma for each alpha through sigma_for_delta_v; alpha is
    then solved so that barrier_width matches ``width``.  The width grows
    monotonically with alpha, so the solution is unique within the
    two-minimum range.

    Raises ValueError when the requested width falls outside the attainable
    band, quoting the band in the message.
    """
    for name, value in (("delta_v", delta_v), ("width", width)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")

    def model_at(alpha: float) -> TwoGaussianModel:
        return TwoGaussianModel(sigma=sigma_for_delta_v(delta_v, alpha, x0),
                                x0=x0, alpha=alpha, allow_out_of_range=True)

    alpha_hi = two_minimum_alpha_limit(delta_v) * (1.0 - 1e-9)
    w_lo = barrier_width(model_at(1.0))
    w_hi = barrier_width(model_at(alpha_hi))
    if not (w_lo <= width <= w_hi):
        raise ValueError(
            f"width {width:.6g} not attainable at delta_v = {delta_v:g}: "
            f"the two-minimum family spans [{w_lo:.6g}, {w_hi:.6g}] "
            f"(alpha in [1, {alpha_hi:.4g}])"
        )

    alpha = numerics.find_root_bracketed(
        lambda a: barrier_width(model_at(a)) - width, 1.0, alpha_hi,
        tol=1e-12)
    return TwoGaussianModel(sigma=sigma_for_delta_v(delta_v, alpha, x0),
                            x0=x0, alpha=alpha,
                            allow_out_of_range=allow_out_of_range)


# ---------------------------------------------------------------------------
# quartic closed forms
# ---------------------------------------------------------------------------

def quartic_potential(model: QuarticMeanFieldModel, x):
    """Mean-field quartic double well U(x) = du (1 - (x/x0)^2)^2."""
    s = np.asarray(x, dtype=float) / model.x0
    return model.du * (1.0 - s * s) ** 2


def quartic_quantum_potential(model: QuarticMeanFieldModel, x):
    """Closed-form quantum potential of the quartic mean field (E_u units).

    deltaV/E_u = 4 du^2 s^2 (1 - s^2)^2 + 2 du (1 - 3 s^2),  s = x/x0.
    At the origin deltaV = 2 du; the curvature there flips sign at du = 1.5,
    beyond which a third minimum appears.
    """
    s = np.asarray(x, dtype=float) / model.x0
    s2 = s * s
    return (4.0 * model.du**2 * s2 * (1.0 - s2) ** 2
            + 2.0 * model.du * (1.0 - 3.0 * s2))


def quartic_curvature_at_origin(model: QuarticMeanFieldModel) -> float:
    """x0^2 * deltaV''(0) / E_u = 8 du^2 - 12 du for the quartic family."""
    return 8.0 * model.du**2 - 12.0 * model.du


def quartic_curvature_at_x0(model: QuarticMeanFieldModel) -> float:
    """x0^2 * deltaV''(x0) / E_u = 32 du^2 - 12 du; x0 minimizes U, not deltaV."""
    return 32.0 * model.du**2 - 12.0 * model.du


def quartic_barrier_heights(model: QuarticMeanFieldModel) -> BarrierHeights:
    """Barrier heights of the quartic family in closed form.

    delta_v = 2 du - min deltaV.  With t = s^2, deltaV = 4 du^2 t (1 - t)^2
    + 2 du (1 - 3t) is a cubic in t; its outer minimum sits at the larger
    critical point t = (4 + sqrt(4 + 18/du)) / 6, below deltaV(0) = 2 du.
    """
    du = model.du
    t = (4.0 + math.sqrt(4.0 + 18.0 / du)) / 6.0
    v_min = 4.0 * du * du * t * (1.0 - t) ** 2 + 2.0 * du * (1.0 - 3.0 * t)
    return BarrierHeights(delta_u=du, delta_v=2.0 * du - v_min)


# ---------------------------------------------------------------------------
# mean-field views
# ---------------------------------------------------------------------------

def meanfield_view(model: ModelLike) -> MeanFieldView:
    """The model's density exp(-U), its scales and a label."""
    if isinstance(model, TwoGaussianModel):
        potential = meanfield_potential
        halfwidth = model.x0 + 10.0 * model.sigma
        label = f"two_gaussian(sigma={model.sigma:g}, alpha={model.alpha:g})"
    elif isinstance(model, QuarticMeanFieldModel):
        potential = quartic_potential
        # e^{-U} drops below e^{-80} past this point
        halfwidth = model.x0 * math.sqrt(1.0 + math.sqrt(80.0 / model.du))
        label = f"quartic(du={model.du:g})"
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    return MeanFieldView(rho_eq=lambda x: np.exp(-potential(model, x)),
                         x0=model.x0, x_m=model.x0,
                         domain_halfwidth=halfwidth, label=label)
