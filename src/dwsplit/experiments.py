"""Numerical studies bundled as parameter sweeps and profile families.

Three sweep families cover the standard studies:

``simple_gaussian_dU``
    Symmetric two-Gaussian density at alpha = 1, swept over the mean-field
    barrier height dU.  sigma follows from dU = x0^2/(2 sigma^2) - ln 2
    (``models.sigma_for_du``).
``extended_fixed_dV``
    Extended model swept over alpha at fixed quantum barrier height dV,
    sigma^4 = x0^4 / (2 alpha dV) (``models.sigma_for_delta_v``).  Used
    for the width studies and the five-row parameter table.
``quartic_dU``
    Quartic mean-field potential swept over dU.

``evaluate`` turns one model into a row: barrier heights, width, overlap,
the requested splitting estimates (exact, localization bound, WKB) and
their diagnostics, with each method's failure isolated in the row.  exact
and localization come from one ``exact.green_splitting`` pass over the
model's ``MeanFieldView``.  An exact value above the localization upper
bound is still a failure, as a check of that invariant.  ``run_sweep``
builds the model of each swept value and calls it, and so does ``dwsplit
split`` for its single model, so one pathological row cannot abort a long
sweep and both commands report the same numbers.

The sigma/x0 band is checked only by the ``TwoGaussianModel`` constructor;
sigma falls as the swept value grows, so a sweep that leaves the band
fails on its first row, before any method runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import exact, models, numerics, wkb

SWEEP_FAMILIES = ("simple_gaussian_dU", "extended_fixed_dV", "quartic_dU")
METHODS = ("exact", "localization", "wkb")

TABLE1_DELTA_V = 30.0
TABLE1_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0)


def canonical_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """The requested methods in METHODS order; ValueError names unknown ones."""
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ValueError(f"unknown methods {bad}, expected subset of {METHODS}")
    return tuple(m for m in METHODS if m in methods)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    family : one of SWEEP_FAMILIES.
    start, stop, n_points : swept-parameter grid (linear spacing).
        The swept parameter is dU for the *_dU families and alpha for
        extended_fixed_dV.
    fixed : held-constant parameters; extended_fixed_dV requires
        fixed["delta_v"], all families accept fixed["x0"], and any other
        key is a ValueError.
    methods : subset of METHODS, stored in canonical order.
    allow_out_of_range : forward to the model constructors, which
        otherwise reject sigma/x0 beyond the validated band.
    """

    family: str
    start: float
    stop: float
    n_points: int
    fixed: Mapping[str, float] = field(default_factory=dict)
    methods: tuple[str, ...] = METHODS
    allow_out_of_range: bool = False

    def __post_init__(self) -> None:
        if self.family not in SWEEP_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {SWEEP_FAMILIES}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        swept = "alpha" if self.family == "extended_fixed_dV" else "du"
        if not -math.inf < self.start < self.stop < math.inf:
            raise ValueError(f"need finite {swept} start < stop, "
                             f"got [{self.start}, {self.stop}]")
        object.__setattr__(self, "methods", canonical_methods(self.methods))
        object.__setattr__(self, "fixed", dict(self.fixed))
        if self.family == "extended_fixed_dV" and "delta_v" not in self.fixed:
            raise ValueError("extended_fixed_dV requires fixed['delta_v']")
        reads = ("x0", "delta_v") if self.family == "extended_fixed_dV" else ("x0",)
        unread = sorted(set(self.fixed) - set(reads))
        if unread:
            raise ValueError(f"{self.family} does not read fixed{unread}")
    def swept_values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


@dataclass(frozen=True)
class SweepRow:
    """One model's parameters, derived scales, splittings and diagnostics.

    swept_value is the sweep coordinate, None outside a sweep.
    splittings maps method name to the estimate in E_u units.
    rel_errors maps method name to (estimate - exact)/exact, present
    only when the exact value was computed.
    failures maps method name to a short tag when that method raised,
    did not converge, gave no finite positive value or (exact) exceeded
    the localization upper bound; "width" maps to the error type and
    message when the barrier width could not be measured (width is None).
    diagnostics holds n_panels and iterations (exact, also unconverged),
    i_integral and g_norm (localization, at the same n_panels), and
    turning_points (in the unit of width), action and well_frequency (wkb).
    """

    swept_value: float | None
    x0: float
    sigma: float | None
    alpha: float | None
    delta_u: float
    delta_v: float
    width: float | None
    overlap: float | None
    splittings: dict[str, float]
    rel_errors: dict[str, float]
    failures: dict[str, str]
    diagnostics: dict[str, object]


def evaluate(model: models.ModelLike,
             methods: Sequence[str] = METHODS) -> SweepRow:
    """Every requested splitting of one model, as a row with swept_value None.

    In E_u units the operator is -x0^2 d2/dx2 + deltaV(x).  exact and
    localization read one exact.green_splitting pass over the model's
    MeanFieldView; wkb gets the operator in s = x/x0 as -d2/ds2 +
    deltaV(x0 s), with the well at s = 1.  A method that raises, does not
    converge or gives no finite positive value becomes a failure; the
    other methods still run.  So does an exact value more than
    numerics.REL_TOL relative above the localization bound, when both
    were computed.  A width that cannot be measured is None and named in
    failures["width"]; the splittings do not depend on it.
    """
    methods = canonical_methods(methods)
    x0 = model.x0
    width_failure = None
    if isinstance(model, models.TwoGaussianModel):
        sigma, alpha = model.sigma, model.alpha
        heights = models.barrier_heights(model)
        try:
            width = models.barrier_width(model)
        except (ValueError, numerics.NumericsError) as err:
            width, width_failure = None, f"{type(err).__name__}: {err}"
        overlap = models.superposition_coefficient(model)
        dv_s = lambda s: models.quantum_potential_closed(model, x0 * s)
        curvature = models.curvature_at_minima(model)
    else:
        sigma = alpha = width = overlap = None
        dv_s = lambda s: models.quartic_quantum_potential(model, x0 * s)
        heights = models.quartic_barrier_heights(model)
        curvature = models.quartic_curvature_at_x0(model)

    splittings: dict[str, float] = {}
    failures: dict[str, str] = {}
    diagnostics: dict[str, object] = {}
    green = None
    for method in methods:
        try:
            if method != "wkb" and green is None:
                if "exact" in failures:   # the one pass raised for exact
                    failures[method] = failures["exact"]
                    continue
                green = exact.green_splitting(models.meanfield_view(model))
            if method == "exact":
                res = green if green.converged else None
                diagnostics.update(n_panels=green.n_panels,
                                   iterations=green.iterations)
            elif method == "localization":
                res = green.localization
                if res is not None:
                    diagnostics.update(i_integral=res.i_value,
                                       g_norm=res.g_norm)
            else:
                res = wkb.wkb_splitting(dv_s, curvature, 1.0)
                diagnostics.update(
                    turning_points=tuple(x0 * t for t in res.turning_points),
                    action=res.action, well_frequency=res.well_frequency)
        except (ValueError, ArithmeticError, numerics.NumericsError) as err:
            failures[method] = f"{type(err).__name__}: {err}"
            continue
        if res is None:
            failures[method] = "not converged"
        elif not math.isfinite(res.splitting):
            failures[method] = f"non-finite splitting {res.splitting!r}"
        elif not res.splitting > 0.0:
            failures[method] = f"non-positive splitting {res.splitting!r}"
        else:
            splittings[method] = res.splitting

    # an exact value above the variational upper bound is not resolved
    value, bound = splittings.get("exact"), splittings.get("localization")
    if (value is not None and bound is not None
            and value > bound * (1.0 + numerics.REL_TOL)):
        del splittings["exact"]
        failures = {"exact": f"exceeds the localization bound by "
                             f"{value / bound - 1.0:.3g} relative", **failures}
    if width_failure is not None:
        failures["width"] = width_failure

    ref = splittings.get("exact")
    rel_errors = {m: (splittings[m] - ref) / ref for m in ("localization", "wkb")
                  if ref is not None and m in splittings}
    return SweepRow(
        swept_value=None, x0=x0, sigma=sigma, alpha=alpha,
        delta_u=heights.delta_u, delta_v=heights.delta_v, width=width,
        overlap=overlap, splittings=splittings, rel_errors=rel_errors,
        failures=failures, diagnostics=diagnostics)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep row by row, ordered by the swept parameter.

    Failures of individual methods are recorded in the row's failures
    map instead of aborting the sweep; the row keeps whatever other
    methods produced.
    """
    x0 = float(spec.fixed.get("x0", 1.0))
    rows: list[SweepRow] = []
    for value in spec.swept_values():
        value = float(value)
        if spec.family == "quartic_dU":
            model = models.QuarticMeanFieldModel(du=value, x0=x0)
        elif spec.family == "simple_gaussian_dU":
            model = models.TwoGaussianModel(
                sigma=models.sigma_for_du(value, x0), x0=x0,
                allow_out_of_range=spec.allow_out_of_range)
        else:
            model = models.TwoGaussianModel(
                sigma=models.sigma_for_delta_v(
                    float(spec.fixed["delta_v"]), value, x0),
                x0=x0, alpha=value, allow_out_of_range=spec.allow_out_of_range)
        rows.append(replace(evaluate(model, spec.methods), swept_value=value))
    return rows


def default_du_sweep() -> SweepSpec:
    """Default alpha = 1 sweep: dU in [1, 12], 40 points, all methods.

    The lower end of the range needs sigma/x0 slightly above the
    validated band (dU < 1.307), which the default deliberately allows;
    the models carry the corresponding validity warning.
    """
    return SweepSpec(family="simple_gaussian_dU", start=1.0, stop=12.0,
                     n_points=40, allow_out_of_range=True)


def default_width_sweep(delta_v: float) -> SweepSpec:
    """Fixed-dV sweep over alpha for the splitting-vs-width study, 25 points.

    The alpha range stops short of the two-minimum limit at dV = 30 and
    of the strong-overlap region (S ~ 1e-3) at dV = 15.
    """
    if math.isclose(delta_v, 30.0):
        stop = 3.2
    elif math.isclose(delta_v, 15.0):
        stop = 2.4
    else:
        stop = 0.9 * models.two_minimum_alpha_limit(delta_v)
    return SweepSpec(family="extended_fixed_dV", start=1.0, stop=stop,
                     n_points=25, fixed={"delta_v": delta_v},
                     methods=("exact", "localization"))


@dataclass(frozen=True)
class Table1Row:
    alpha: float
    sigma_over_x0: float
    delta_u: float
    curvature_origin: float
    curvature_minima: float
    width_over_x0: float


def table1_rows(delta_v: float = TABLE1_DELTA_V) -> list[Table1Row]:
    """Parameter table of the fixed-dV family, one row per TABLE1_ALPHAS."""
    rows = []
    for alpha in TABLE1_ALPHAS:
        model = models.TwoGaussianModel(
            sigma=models.sigma_for_delta_v(delta_v, alpha), alpha=alpha)
        rows.append(Table1Row(
            alpha=alpha,
            sigma_over_x0=model.sigma / model.x0,
            delta_u=models.barrier_heights(model).delta_u,
            curvature_origin=models.curvature_at_origin(model),
            curvature_minima=models.curvature_at_minima(model),
            width_over_x0=models.barrier_width(model) / model.x0,
        ))
    return rows


def table1(delta_v: float = TABLE1_DELTA_V) -> str:
    """The five-row parameter table, formatted at its customary precision."""
    header = "{:>5} {:>9} {:>6} {:>7} {:>7} {:>6}".format(
        "alpha", "sigma/x0", "dU", 'V"(0)', 'V"(x0)', "w/x0")
    lines = [header]
    for row in table1_rows(delta_v):
        lines.append(
            f"{row.alpha:5.1f} {row.sigma_over_x0:9.4f} {row.delta_u:6.2f} "
            f"{row.curvature_origin:7.0f} {row.curvature_minima:7.0f} "
            f"{row.width_over_x0:6.2f}")
    return "\n".join(lines)


def emit_profiles(model, grid: Iterable[float]) -> tuple[models.PotentialProfile, ...]:
    """Mean-field and quantum potential profiles for one model.

    For the two-Gaussian model the set also carries the parabolic
    companion curves of both wells: the harmonic approximation of U and
    the matching expansion of deltaV, tangent to the true curves at
    +-x0 up to terms of order S.
    """
    grid = np.asarray(list(grid), dtype=float)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    Profile = models.PotentialProfile
    if isinstance(model, models.QuarticMeanFieldModel):
        label = f"quartic dU={model.du:g}"
        return (
            Profile(models.quartic_potential(model, grid), "meanfield", label),
            Profile(models.quartic_quantum_potential(model, grid), "quantum",
                    label),
        )
    if not isinstance(model, models.TwoGaussianModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    x0, sigma = model.x0, model.sigma
    label = f"alpha={model.alpha:g} sigma/x0={sigma / x0:g}"
    curv_min = models.curvature_at_minima(model)
    floor = -x0**2 / (2.0 * sigma**2)
    out = [
        Profile(models.meanfield_potential(model, grid), "meanfield", label),
        Profile(models.quantum_potential_closed(model, grid), "quantum", label),
    ]
    for side, tag in ((1.0, "right"), (-1.0, "left")):
        out.append(Profile((grid - side * x0)**2 / (2.0 * sigma**2),
                           f"meanfield_parabola_{tag}", label))
        out.append(Profile(floor + 0.5 * curv_min * (grid - side * x0)**2,
                           f"quantum_parabola_{tag}", label))
    return tuple(out)


def quartic_family_profiles(
        du_values: Sequence[float],
        grid: Iterable[float]) -> tuple[models.PotentialProfile, ...]:
    """Quantum potentials of the quartic family, scaled by dU per curve."""
    grid = np.asarray(list(grid), dtype=float)
    out = []
    for du in du_values:
        model = models.QuarticMeanFieldModel(du=du)
        out.append(models.PotentialProfile(
            models.quartic_quantum_potential(model, grid) / du,
            "quantum_over_dU", f"dU={du:g}"))
    return tuple(out)


def shape_family_profiles(
        sigma_values: Sequence[float],
        grid: Iterable[float],
        alpha: float = 1.0,
        allow_out_of_range: bool = False) -> tuple[models.PotentialProfile, ...]:
    """Quantum potentials at varying sigma, each scaled by its own dV."""
    grid = np.asarray(list(grid), dtype=float)
    out = []
    for sigma in sigma_values:
        model = models.TwoGaussianModel(
            sigma=sigma, alpha=alpha, allow_out_of_range=allow_out_of_range)
        delta_v = models.barrier_heights(model).delta_v
        out.append(models.PotentialProfile(
            models.quantum_potential_closed(model, grid) / delta_v,
            "quantum_over_dV", f"sigma/x0={sigma:g}"))
    return tuple(out)


def fixed_dv_family_profiles(
        delta_v: float,
        alphas: Sequence[float],
        grid: Iterable[float],
        allow_out_of_range: bool = False) -> tuple[models.PotentialProfile, ...]:
    """Quantum potentials of the fixed-dV family, one curve per alpha."""
    grid = np.asarray(list(grid), dtype=float)
    out = []
    for alpha in alphas:
        model = models.TwoGaussianModel(
            sigma=models.sigma_for_delta_v(delta_v, alpha), alpha=alpha,
            allow_out_of_range=allow_out_of_range)
        out.append(models.PotentialProfile(
            models.quantum_potential_closed(model, grid),
            "quantum", f"alpha={alpha:g}"))
    return tuple(out)
