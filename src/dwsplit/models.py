"""Symmetric double-well model families and their quantum potentials.

Everything works in reduced units: lengths in units of the well half
separation x0 (kept as an explicit field so dimensional bookkeeping stays
visible) and energies in units of E_u = hbar^2 / (2 m x0^2).  A model is
an equilibrium density rho_eq with two maxima at +-x0; its mean-field
potential is U = -ln rho_eq up to an additive constant, and the associated
quantum potential is

    deltaV / E_u = x0^2 * (U'^2 / 4 - U'' / 2),

the shifted potential whose Schroedinger operator has rho_eq^(1/2) as its
exact nodeless ground state at eigenvalue zero.

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
from functools import cached_property
from typing import Callable, Union

import numpy as np

from . import numerics

# Validated shape range for the two-Gaussian family.  Larger sigma/x0 means
# strongly overlapping wells; the closed-form barrier expressions drop terms
# of order S = exp(-2 x0^2 / (alpha sigma^2)) and degrade there.
SIGMA_RATIO_MAX = 0.5
SUPERPOSITION_WARN = 1e-3


def _scalar_or_array(x, value):
    """Return a bare float for scalar input, the array otherwise."""
    if np.ndim(x) == 0:
        return float(value)
    return value


def _sech2(u: np.ndarray) -> np.ndarray:
    # 1/cosh^2 without overflow for large |u|
    e = np.exp(-np.abs(u))
    return (2.0 * e / (1.0 + e * e)) ** 2


@dataclass(frozen=True)
class TwoGaussianModel:
    """Equilibrium density built from two displaced Gaussians.

    rho_eq(x) = N / sqrt(8 pi sigma^2) *
                [exp(-(x-x0)^2 / (2 alpha sigma^2)) +
                 exp(-(x+x0)^2 / (2 alpha sigma^2))]^alpha

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
        validity warning attached instead of raising.

    Validity warnings (never fatal) are collected in ``validity_warnings``:
    appreciable well overlap (S >= 1e-3) and loss of the two-minimum shape
    of the quantum potential (curvature_at_origin >= 0).
    """

    sigma: float
    x0: float = 1.0
    alpha: float = 1.0
    allow_out_of_range: bool = False
    validity_warnings: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
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

    @cached_property
    def norm_constant(self) -> float:
        """N making the density integrate to one (close to unity in range)."""
        halfwidth = self.x0 + 10.0 * self.sigma
        pref = 1.0 / math.sqrt(8.0 * math.pi * self.sigma**2)
        return 1.0 / numerics.integrate_panels(
            lambda x: pref * np.exp(-_two_gaussian_u(self, x)),
            -halfwidth, halfwidth)


@dataclass(frozen=True)
class QuarticMeanFieldModel:
    """Quartic mean-field double well U(x) = dU * (1 - (x/x0)^2)^2.

    dU is the mean-field barrier height in units of E_u.
    """

    du: float
    x0: float = 1.0

    def __post_init__(self):
        if self.du <= 0:
            raise ValueError(f"du must be positive, got {self.du}")
        if self.x0 <= 0:
            raise ValueError(f"x0 must be positive, got {self.x0}")


ModelLike = Union[TwoGaussianModel, QuarticMeanFieldModel]


@dataclass(frozen=True)
class MeanFieldView:
    """Callable bundle describing one model's mean field.

    rho_eq must be normalized to unit integral; d_potential and
    d2_potential are the first two derivatives of the mean-field potential
    U = -ln rho_eq + const.  x0 is the reduced length unit entering
    deltaV/E_u = x0^2 (U'^2/4 - U''/2); x_m is the matching point used by
    localization (the density maximum, equal to x0 for both families
    here); domain_halfwidth bounds the region carrying all but
    negligible density mass.
    """

    rho_eq: Callable
    d_potential: Callable
    d2_potential: Callable
    x0: float
    x_m: float
    domain_halfwidth: float
    label: str = ""


@dataclass(frozen=True)
class PotentialProfile:
    """A sampled potential curve: grid, values and a kind tag."""

    grid: np.ndarray
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

def _two_gaussian_u(model: TwoGaussianModel, x) -> np.ndarray:
    """Mean-field potential before normalization, stable for any x."""
    x = np.asarray(x, dtype=float)
    s2 = model.sigma**2
    u = x * model.x0 / (model.alpha * s2)
    # alpha * ln(e^u + e^-u) via logaddexp to survive large |u|
    return (x * x + model.x0**2) / (2.0 * s2) - model.alpha * np.logaddexp(u, -u)


def meanfield_potential(model: TwoGaussianModel, x):
    """U(x) = (x^2 + x0^2)/(2 sigma^2) - alpha ln(e^u + e^-u), u = x x0/(alpha sigma^2).

    Zero of energy sits at the density maxima up to O(S): U(+-x0) = O(S).
    """
    return _scalar_or_array(x, _two_gaussian_u(model, x))


def rho_eq(model: TwoGaussianModel, x):
    """Normalized equilibrium density of the two-Gaussian model."""
    pref = model.norm_constant / math.sqrt(8.0 * math.pi * model.sigma**2)
    return _scalar_or_array(x, pref * np.exp(-_two_gaussian_u(model, x)))


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
    val = (
        0.25 * r2 * r2 * (x / model.x0 - np.tanh(u)) ** 2
        + 0.5 * r2 * r2 / model.alpha * _sech2(u)
        - 0.5 * r2
    )
    return _scalar_or_array(x, val)


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


def two_minimum_alpha_limit(delta_v: float, x0: float = 1.0) -> float:
    """Largest alpha keeping two minima at fixed quantum barrier delta_v.

    sigma is slaved to (alpha, delta_v) through delta_v = x0^4/(2 alpha
    sigma^4); the limit is where curvature_at_origin crosses zero.  Returns
    the capped search bound (64) if no crossing exists below it.
    """
    if delta_v <= 0:
        raise ValueError("delta_v must be positive")

    def curv(alpha: float) -> float:
        sigma = x0 * (0.5 / (alpha * delta_v)) ** 0.25
        return curvature_at_origin(
            TwoGaussianModel(sigma=sigma, x0=x0, alpha=alpha,
                             allow_out_of_range=True))

    if curv(1.0) >= 0.0:
        raise ValueError(
            f"no two-minimum model exists at delta_v = {delta_v:g} "
            f"even for alpha = 1"
        )
    lo, hi, cap = 1.0, 1.5, 64.0
    while curv(hi) < 0.0:
        lo, hi = hi, hi * 1.5
        if hi > cap:
            return cap
    return numerics.find_root_bracketed(curv, lo, hi, tol=1e-12)


def solve_parameters(delta_v: float, width: float, x0: float = 1.0,
                     allow_out_of_range: bool = False) -> TwoGaussianModel:
    """Two-Gaussian model with prescribed quantum barrier height and width.

    delta_v fixes sigma for each alpha via delta_v = x0^4/(2 alpha sigma^4);
    alpha is then solved so that barrier_width matches ``width``.  The width
    grows monotonically with alpha, so the solution is unique within the
    two-minimum range.

    Raises ValueError when the requested width falls outside the attainable
    band, quoting the band in the message.
    """
    if delta_v <= 0 or width <= 0:
        raise ValueError("delta_v and width must be positive")

    def model_at(alpha: float) -> TwoGaussianModel:
        sigma = x0 * (0.5 / (alpha * delta_v)) ** 0.25
        return TwoGaussianModel(sigma=sigma, x0=x0, alpha=alpha,
                                allow_out_of_range=True)

    alpha_hi = two_minimum_alpha_limit(delta_v, x0) * (1.0 - 1e-9)
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
    sigma = x0 * (0.5 / (alpha * delta_v)) ** 0.25
    return TwoGaussianModel(sigma=sigma, x0=x0, alpha=alpha,
                            allow_out_of_range=allow_out_of_range)


# ---------------------------------------------------------------------------
# quartic closed forms
# ---------------------------------------------------------------------------

def quartic_potential(model: QuarticMeanFieldModel, x):
    """Mean-field quartic double well U(x) = du (1 - (x/x0)^2)^2."""
    s = np.asarray(x, dtype=float) / model.x0
    return _scalar_or_array(x, model.du * (1.0 - s * s) ** 2)


def quartic_quantum_potential(model: QuarticMeanFieldModel, x):
    """Closed-form quantum potential of the quartic mean field (E_u units).

    deltaV/E_u = 4 du^2 s^2 (1 - s^2)^2 + 2 du (1 - 3 s^2),  s = x/x0.
    At the origin deltaV = 2 du; the curvature there flips sign at du = 1.5,
    beyond which a third minimum appears.
    """
    s = np.asarray(x, dtype=float) / model.x0
    s2 = s * s
    val = 4.0 * model.du**2 * s2 * (1.0 - s2) ** 2 + 2.0 * model.du * (1.0 - 3.0 * s2)
    return _scalar_or_array(x, val)


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

def two_gaussian_meanfield(model: TwoGaussianModel) -> MeanFieldView:
    """Mean-field view of a two-Gaussian model (closed-form derivatives)."""
    s2 = model.sigma**2
    x0 = model.x0
    alpha = model.alpha

    def du(x):
        x = np.asarray(x, dtype=float)
        u = x * x0 / (alpha * s2)
        return _scalar_or_array(x, x / s2 - (x0 / s2) * np.tanh(u))

    def d2u(x):
        x = np.asarray(x, dtype=float)
        u = x * x0 / (alpha * s2)
        return _scalar_or_array(x, 1.0 / s2 - x0**2 / (alpha * s2 * s2) * _sech2(u))

    return MeanFieldView(
        rho_eq=lambda x: rho_eq(model, x),
        d_potential=du,
        d2_potential=d2u,
        x0=x0,
        x_m=x0,
        domain_halfwidth=x0 + 10.0 * model.sigma,
        label=f"two_gaussian(sigma={model.sigma:g}, alpha={alpha:g})",
    )


def quartic_meanfield(model: QuarticMeanFieldModel) -> MeanFieldView:
    """Mean-field view of the quartic model; density normalized numerically."""
    x0 = model.x0
    du_ = model.du
    # e^{-U} drops below e^{-80} past this point
    halfwidth = x0 * math.sqrt(1.0 + math.sqrt(80.0 / du_))

    def weight(x):
        return np.exp(-quartic_potential(model, x))

    z = numerics.integrate_panels(weight, -halfwidth, halfwidth)

    def rho(x):
        return _scalar_or_array(x, weight(x) / z)

    def d_u(x):
        s = np.asarray(x, dtype=float) / x0
        return _scalar_or_array(x, -4.0 * du_ * s * (1.0 - s * s) / x0)

    def d2_u(x):
        s = np.asarray(x, dtype=float) / x0
        return _scalar_or_array(x, -4.0 * du_ * (1.0 - 3.0 * s * s) / x0**2)

    return MeanFieldView(
        rho_eq=rho,
        d_potential=d_u,
        d2_potential=d2_u,
        x0=x0,
        x_m=x0,
        domain_halfwidth=halfwidth,
        label=f"quartic(du={du_:g})",
    )


def meanfield_view(model: ModelLike) -> MeanFieldView:
    """Dispatch to the family-specific mean-field view builder."""
    if isinstance(model, TwoGaussianModel):
        return two_gaussian_meanfield(model)
    if isinstance(model, QuarticMeanFieldModel):
        return quartic_meanfield(model)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def quantum_potential_from_meanfield(view: MeanFieldView, x):
    """deltaV(x)/E_u = x0^2 (U'^2/4 - U''/2) from a mean-field view.

    Generic route: uses only the view's derivative callables, so it applies
    to any model family and serves as the cross-check for the closed forms.
    """
    x_arr = np.asarray(x, dtype=float)
    dU = np.asarray(view.d_potential(x_arr), dtype=float)
    d2U = np.asarray(view.d2_potential(x_arr), dtype=float)
    return _scalar_or_array(x, view.x0**2 * (0.25 * dU * dU - 0.5 * d2U))
