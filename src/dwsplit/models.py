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
exact nodeless ground state at eigenvalue zero.  A family is one class
with the members of the ``Model`` protocol.  U returns numpy values;
deltaV returns a float, computed on Python floats, for float x
(numpy.float64 included) and an array otherwise.  ``meanfield_view`` turns
a model into a ``MeanFieldView``: the density exp(-U), up to a factor, and
the scales that the localization estimate and the Green pass read.

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
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from . import numerics

# The two-Gaussian closed forms drop terms of order the well overlap
# S = exp(-2 x0^2 / (alpha sigma^2)); a model warns once S reaches this.
SUPERPOSITION_WARN = 1e-3


@dataclass(frozen=True)
class BarrierHeights:
    """Closed-form barrier heights: mean-field dU and quantum dV (E_u units)."""

    delta_u: float
    delta_v: float


@runtime_checkable
class Model(Protocol):
    """What the package reads of a model; a new family is one class.

    Closed forms of U (kT), deltaV (E_u) and x0^2 deltaV''(x0) / E_u; the
    domain half-width and the view label; whether the density has two
    maxima; profile_extras(grid) -> (profile label, (kind, values) curves
    beside U and deltaV); and two_gaussian_columns() -> (sigma, alpha,
    width, overlap, failure) or None.
    """

    x0: float

    def meanfield_potential(self, x): ...
    def quantum_potential(self, x): ...
    def barrier_heights(self) -> BarrierHeights: ...
    def curvature_at_x0(self) -> float: ...
    def domain_halfwidth(self) -> float: ...
    def label(self) -> str: ...
    def has_two_maxima(self) -> bool: ...
    def profile_extras(self, grid) -> tuple: ...
    def two_gaussian_columns(self) -> tuple | None: ...


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

    No sigma/x0 band is imposed: the splitting methods read only the
    density.  What degrades as the wells overlap is the closed-form
    barrier heights and curvatures, and that is flagged.  Validity
    warnings (never fatal) are collected in ``validity_warnings``:
    appreciable well overlap (S >= 1e-3) and loss of the two-minimum
    shape of the quantum potential (curvature_at_origin >= 0).
    Parameters at which a closed form (barrier heights, curvatures,
    overlap S) is not a finite float raise ValueError.
    """

    sigma: float
    x0: float = 1.0
    alpha: float = 1.0
    validity_warnings: tuple = field(default=(), init=False, compare=False)

    def __post_init__(self):
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 1 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        notes = []
        *_, curv0 = _finite_closed_forms(self, ("sigma", "x0", "alpha"))
        s = superposition_coefficient(self)
        if s >= SUPERPOSITION_WARN:
            notes.append(
                f"well separation is marginal: S = {s:.3e} >= {SUPERPOSITION_WARN:g}")
        if curv0 >= 0.0:
            notes.append(
                "quantum potential has a third minimum at the origin "
                "(curvature_at_origin >= 0)")
        object.__setattr__(self, "validity_warnings", tuple(notes))

    def meanfield_potential(self, x):
        """U(x) = (x^2 + x0^2)/(2 sigma^2) - alpha ln(e^u + e^-u), u = x x0/(alpha sigma^2).

        Zero of energy sits at the density maxima up to O(S): U(+-x0) = O(S).
        ln(e^u + e^-u) = |u| + log1p(e^(-2|u|)) stays finite at large |u|.
        """
        x = np.asarray(x, dtype=float)
        s2 = self.sigma**2
        a = np.abs(x * self.x0 / (self.alpha * s2))
        return ((x * x + self.x0**2) / (2.0 * s2)
                - self.alpha * (a + np.log1p(np.exp(-2.0 * a))))

    def quantum_potential(self, x):
        """Closed-form quantum potential deltaV(x)/E_u.

        deltaV/E_u = (x0^4 / 4 sigma^4) (x/x0 - tanh u)^2
                   + (x0^4 / 2 alpha sigma^4) sech^2 u  -  x0^2 / 2 sigma^2,
        with u = x x0 / (alpha sigma^2).  deltaV is even, and with
        t = exp(-2|u|), tanh|u| = (1 - t)/(1 + t) and sech^2 u = 4t/(1 + t)^2:
        one exponential, which underflows to 0 where |u| is large.
        """
        scalar = isinstance(x, float)
        a = abs(float(x)) if scalar else np.abs(np.asarray(x, dtype=float))
        s2 = self.sigma**2
        r2 = self.x0**2 / s2          # (x0/sigma)^2
        t = (math.exp if scalar else np.exp)(-2.0 * self.x0 * a
                                             / (self.alpha * s2))
        d = a / self.x0 - (1.0 - t) / (1.0 + t)
        return (0.25 * r2 * r2 * (d * d)
                + 2.0 * r2 * r2 / self.alpha * t / ((1.0 + t) * (1.0 + t))
                - 0.5 * r2)

    def barrier_heights(self) -> BarrierHeights:
        """Closed-form barrier heights, O(S) terms dropped.

        delta_u = x0^2/(2 sigma^2) - alpha ln 2          (mean field)
        delta_v = x0^4/(2 alpha sigma^4)                 (quantum, E_u units)

        They obey delta_v = (2/alpha) * (delta_u + alpha ln 2)^2 identically.
        """
        r2 = self.x0**2 / self.sigma**2
        return BarrierHeights(delta_u=0.5 * r2 - self.alpha * math.log(2.0),
                              delta_v=0.5 * r2 * r2 / self.alpha)

    def curvature_at_x0(self) -> float:
        """x0^2 * deltaV''(+-x0) / E_u = x0^4 / (2 sigma^4), O(S) terms dropped."""
        r2 = self.x0**2 / self.sigma**2
        return 0.5 * r2 * r2

    def curvature_at_origin(self) -> float:
        """x0^2 * deltaV''(0) / E_u from the closed form.

        = (x0^4 / 2 sigma^4) (1 - b)^2 - x0^8 / (alpha^3 sigma^8),
        with b = x0^2 / (alpha sigma^2).  Negative while the quantum potential
        keeps its two-minimum shape.
        """
        r2 = self.x0**2 / self.sigma**2
        b = r2 / self.alpha
        return 0.5 * r2 * r2 * (1.0 - b) ** 2 - r2**4 / self.alpha**3

    def domain_halfwidth(self) -> float:
        return self.x0 + 10.0 * self.sigma

    def label(self) -> str:
        return f"two_gaussian(sigma={self.sigma:g}, alpha={self.alpha:g})"

    def has_two_maxima(self) -> bool:
        """U''(0) = 1/sigma^2 - x0^2/(alpha sigma^4) < 0: x0^2 > alpha sigma^2."""
        r = self.x0 / self.sigma
        return r * r > self.alpha

    def profile_extras(self, grid):
        """The parabolas of both wells: the harmonic approximation of U and
        the matching expansion of deltaV, tangent to the true curves at
        +-x0 up to terms of order S."""
        s2 = self.sigma**2
        floor = -self.x0**2 / (2.0 * s2)
        out = []
        for side, tag in ((1.0, "right"), (-1.0, "left")):
            d2 = (grid - side * self.x0)**2
            out += [(f"meanfield_parabola_{tag}", d2 / (2.0 * s2)),
                    (f"quantum_parabola_{tag}",
                     floor + 0.5 * self.curvature_at_x0() * d2)]
        return f"alpha={self.alpha:g} sigma/x0={self.sigma / self.x0:g}", out

    def two_gaussian_columns(self):
        """(sigma, alpha, width, overlap, failure): the failure names why
        barrier_width raised, and width is None then."""
        try:
            width, failure = barrier_width(self), None
        except (ValueError, numerics.NumericsError) as err:
            width, failure = None, f"{type(err).__name__}: {err}"
        return (self.sigma, self.alpha, width, superposition_coefficient(self),
                failure)


@dataclass(frozen=True)
class QuarticMeanFieldModel:
    """Quartic mean-field double well U(x) = dU * (1 - (x/x0)^2)^2.

    dU is the mean-field barrier height in units of E_u.  Parameters at
    which a closed form (barrier heights, curvatures) is not a finite float
    raise ValueError.  The family has no validity warnings.
    """

    du: float
    x0: float = 1.0
    validity_warnings: tuple = field(default=(), init=False, compare=False)

    def __post_init__(self):
        if not 0 < self.du < math.inf:
            raise ValueError(f"du must be positive and finite, got {self.du}")
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        _finite_closed_forms(self, ("du", "x0"))

    def meanfield_potential(self, x):
        """U(x) = du (1 - (x/x0)^2)^2."""
        s = np.asarray(x, dtype=float) / self.x0
        return self.du * (1.0 - s * s) ** 2

    def quantum_potential(self, x):
        """Closed-form quantum potential (E_u units).

        deltaV/E_u = 4 du^2 s^2 (1 - s^2)^2 + 2 du (1 - 3 s^2),  s = x/x0.
        At the origin deltaV = 2 du; the curvature there flips sign at du = 1.5,
        beyond which a third minimum appears.
        """
        s = (float(x) if isinstance(x, float)
             else np.asarray(x, dtype=float)) / self.x0
        s2 = s * s
        w = 1.0 - s2
        return 4.0 * self.du**2 * s2 * (w * w) + 2.0 * self.du * (1.0 - 3.0 * s2)

    def barrier_heights(self) -> BarrierHeights:
        """Barrier heights in closed form.

        delta_v = 2 du - min deltaV.  With t = s^2, deltaV = 4 du^2 t (1 - t)^2
        + 2 du (1 - 3t) is a cubic in t; its outer minimum sits at the larger
        critical point t = (4 + sqrt(4 + 18/du)) / 6, below deltaV(0) = 2 du.
        """
        du = self.du
        t = (4.0 + math.sqrt(4.0 + 18.0 / du)) / 6.0
        v_min = 4.0 * du * du * t * (1.0 - t) ** 2 + 2.0 * du * (1.0 - 3.0 * t)
        return BarrierHeights(delta_u=du, delta_v=2.0 * du - v_min)

    def curvature_at_x0(self) -> float:
        """x0^2 * deltaV''(x0) / E_u = 32 du^2 - 12 du; x0 minimizes U, not deltaV."""
        return 32.0 * self.du**2 - 12.0 * self.du

    def curvature_at_origin(self) -> float:
        """x0^2 * deltaV''(0) / E_u = 8 du^2 - 12 du."""
        return 8.0 * self.du**2 - 12.0 * self.du

    def domain_halfwidth(self) -> float:
        # e^{-U} drops below e^{-80} past this point
        return self.x0 * math.sqrt(1.0 + math.sqrt(80.0 / self.du))

    def label(self) -> str:
        return f"quartic(du={self.du:g})"

    def has_two_maxima(self) -> bool:
        return True  # U''(0) = -4 du / x0^2 < 0 for every du > 0

    def profile_extras(self, grid):
        return f"quartic dU={self.du:g}", ()

    def two_gaussian_columns(self):
        return None


def _finite_closed_forms(model, params: tuple[str, ...]) -> list:
    """delta_u, delta_v and the curvatures at x0 and at the origin;
    ValueError naming params unless all are finite floats (a float ``**``
    raises where it overflows, a product gives inf)."""
    try:
        heights = model.barrier_heights()
        values = [heights.delta_u, heights.delta_v, model.curvature_at_x0(),
                  model.curvature_at_origin()]
    except ArithmeticError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise ValueError("the closed forms are not all finite floats at "
                         + ", ".join(f"{name} = {getattr(model, name):g}"
                                     for name in params))
    return values


# The two-Gaussian closed forms under their module names.
quantum_potential_closed = TwoGaussianModel.quantum_potential
curvature_at_minima = TwoGaussianModel.curvature_at_x0


@dataclass(frozen=True)
class MeanFieldView:
    """One model's equilibrium density and the scales read with it.

    Built by `meanfield_view` only.  rho_eq is exp(-U), proportional to the
    density (`localization.discretize` normalizes it).  x0 is the length
    unit and the density maximum, where localization splits its panels;
    domain_halfwidth bounds all but negligible density mass.
    """

    rho_eq: Callable
    x0: float
    domain_halfwidth: float
    label: str = ""


@dataclass(frozen=True)
class PotentialProfile:
    """A potential curve sampled on the caller's grid: values and a kind tag."""

    values: np.ndarray
    kind: str  # "quantum" | "meanfield"
    label: str = ""


_MODEL_CLASSES: set[type] = set()


def require_model(model) -> Model:
    """model itself; TypeError when it lacks a member of ``Model``.

    isinstance against the protocol collects its members on every call,
    so it runs once per class: the classes that passed are remembered.
    """
    cls = type(model)
    if cls not in _MODEL_CLASSES:
        if not isinstance(model, Model):
            raise TypeError(f"unsupported model type: {cls.__name__}")
        _MODEL_CLASSES.add(cls)
    return model


def meanfield_view(model: Model) -> MeanFieldView:
    """The model's density exp(-U), its scales and a label."""
    model = require_model(model)
    return MeanFieldView(lambda x: np.exp(-model.meanfield_potential(x)),
                         model.x0, model.domain_halfwidth(), model.label())


def superposition_coefficient(model: TwoGaussianModel) -> float:
    """Well-overlap measure S = exp(-2 x0^2 / (alpha sigma^2)), from the
    x0^2 / sigma^2 of barrier_heights: right wherever they are finite,
    where alpha sigma^2 or 2 x0^2 alone may overflow."""
    return math.exp(-2.0 * (model.x0**2 / model.sigma**2) / model.alpha)


def barrier_width(model: TwoGaussianModel) -> float:
    """Full width of the quantum barrier at half height.

    The reference level is deltaV(0) - deltaV/2, halfway between the barrier
    top and the closed-form well floor; the two crossings sit symmetrically
    in (-x0, x0) and their distance is returned.

    Raises ValueError when the quantum potential is not a two-minimum
    barrier (curvature_at_origin >= 0), or when the wells overlap so
    strongly that the half-height level lies below deltaV(x0).
    """
    if model.curvature_at_origin() >= 0.0:
        raise ValueError(
            "barrier width undefined: quantum potential has a third minimum "
            "at the origin for these parameters")
    level = model.quantum_potential(0.0) - 0.5 * model.barrier_heights().delta_v

    def excess(x):
        return model.quantum_potential(x) - level

    # excess(0) = +dV/2, excess(x0) = -dV/2 + O(S): a bracket unless S is large
    try:
        right = numerics.find_root_bracketed(excess, 0.0, model.x0,
                                             tol=1e-13 * model.x0)
    except numerics.RootBracketError as err:
        raise ValueError(
            f"barrier width undefined: the half-height level {level:.6g} lies "
            f"below deltaV(x0) = {model.quantum_potential(model.x0):.6g}: "
            f"the wells overlap too strongly for a crossing in (0, x0)"
            ) from err
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


def solve_parameters(delta_v: float, width: float,
                     x0: float = 1.0) -> TwoGaussianModel:
    """Two-Gaussian model with prescribed quantum barrier height and width.

    delta_v fixes sigma for each alpha through sigma_for_delta_v; alpha is
    then solved so that barrier_width matches ``width``.  The width grows
    monotonically with alpha, so the solution is unique within the band
    where it is defined: below the two-minimum limit and below the alpha
    where deltaV(x0) reaches the half-height level (the lower of the two
    at dV <= 16).  Raises ValueError, quoting the band, outside it.
    """
    # two_minimum_alpha_limit checks delta_v, before width is checked
    alpha_hi = two_minimum_alpha_limit(delta_v) * (1.0 - 1e-9)
    if not 0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width}")

    def model_at(alpha: float) -> TwoGaussianModel:
        return TwoGaussianModel(sigma=sigma_for_delta_v(delta_v, alpha, x0),
                                x0=x0, alpha=alpha)

    def floor_above_level(alpha: float) -> float:
        m = model_at(alpha)
        return m.quantum_potential(x0) - (m.quantum_potential(0.0)
                                          - 0.5 * m.barrier_heights().delta_v)

    if floor_above_level(alpha_hi) >= 0.0:
        alpha_hi = numerics.find_root_bracketed(
            floor_above_level, 1.0, alpha_hi, tol=1e-12) * (1.0 - 1e-9)
    w_lo = barrier_width(model_at(1.0))
    w_hi = barrier_width(model_at(alpha_hi))
    if not (w_lo <= width <= w_hi):
        raise ValueError(
            f"width {width:.6g} not attainable at delta_v = {delta_v:g}: "
            f"the barrier width is defined on [{w_lo:.6g}, {w_hi:.6g}] "
            f"(alpha in [1, {alpha_hi:.4g}])"
        )

    alpha = numerics.find_root_bracketed(
        lambda a: barrier_width(model_at(a)) - width, 1.0, alpha_hi,
        tol=1e-12)
    return model_at(alpha)
