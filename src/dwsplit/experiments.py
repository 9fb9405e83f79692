"""Numerical studies bundled as parameter sweeps and potential profiles.

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

The finiteness of the closed forms is checked only by the model
constructors.  ``SweepSpec`` builds the models at both ends of its range,
so a range where they are not finite is refused before any row is
evaluated.  Any sigma/x0 is accepted; the models warn of strong well
overlap, where the closed-form barrier heights degrade.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import exact, models, numerics, wkb

# family -> (swept parameter, fixed keys read (x0 optional), build).  In
# each family sigma falls and the closed forms grow with the swept value,
# so SweepSpec builds the models at both ends of its range and no other.
SWEEP_FAMILIES = {
    "simple_gaussian_dU": ("du", ("x0",), lambda v, x0, fixed: (
        models.TwoGaussianModel(sigma=models.sigma_for_du(v, x0), x0=x0))),
    "extended_fixed_dV": ("alpha", ("x0", "delta_v"), lambda v, x0, fixed: (
        models.TwoGaussianModel(
            sigma=models.sigma_for_delta_v(float(fixed["delta_v"]), v, x0),
            x0=x0, alpha=v))),
    "quartic_dU": ("du", ("x0",), lambda v, x0, fixed: (
        models.QuarticMeanFieldModel(du=v, x0=x0))),
}
METHODS = ("exact", "localization", "wkb")

TABLE1_DELTA_V = 30.0
TABLE1_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0)


def canonical_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """The requested methods in METHODS order; ValueError names unknown ones."""
    if isinstance(methods, str):  # its letters would read as method names
        raise ValueError(f"need a sequence of method names, not {methods!r}")
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
    """

    family: str
    start: float
    stop: float
    n_points: int
    fixed: Mapping[str, float] = field(default_factory=dict)
    methods: tuple[str, ...] = METHODS

    def __post_init__(self) -> None:
        if self.family not in SWEEP_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one "
                             f"of {tuple(SWEEP_FAMILIES)}")
        try:
            enough = operator.index(self.n_points) >= 2
        except TypeError:  # not an integer, which np.linspace would refuse
            enough = False
        if not enough:
            raise ValueError(f"n_points must be an integer >= 2, got "
                             f"{self.n_points!r}")
        swept, reads, _ = SWEEP_FAMILIES[self.family]
        if not -math.inf < self.start < self.stop < math.inf:
            raise ValueError(f"need finite {swept} start < stop, "
                             f"got [{self.start}, {self.stop}]")
        object.__setattr__(self, "methods", canonical_methods(self.methods))
        object.__setattr__(self, "fixed", dict(self.fixed))
        for key in reads:
            if key != "x0" and key not in self.fixed:
                raise ValueError(f"{self.family} requires fixed[{key!r}]")
        unread = sorted(set(self.fixed) - set(reads))
        if unread:
            raise ValueError(f"{self.family} does not read fixed{unread}")
        for end in (self.start, self.stop):
            self.model_at(float(end))

    def swept_values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)

    def model_at(self, value: float) -> models.Model:
        build = SWEEP_FAMILIES[self.family][2]
        return build(value, float(self.fixed.get("x0", 1.0)), self.fixed)


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
    message when the barrier width could not be measured (width is None),
    and "model" says that the density has one maximum, not two.
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


def evaluate(model: models.Model,
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
    failures["width"]; the splittings do not depend on it.  A density
    with one maximum keeps its values and is named in failures["model"].
    """
    methods = canonical_methods(methods)
    x0 = model.x0
    heights = model.barrier_heights()
    sigma, alpha, width, overlap, width_failure = (
        model.two_gaussian_columns() or (None,) * 5)

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
                res = wkb.wkb_splitting(
                    lambda s: model.quantum_potential(x0 * s),
                    model.curvature_at_x0(), 1.0)
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
    if not model.has_two_maxima():
        failures["model"] = (
            "the density has one maximum: exact is the lowest odd-sector "
            "eigenvalue of a single well and localization an upper bound "
            "on it; neither is a tunneling splitting")

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
    return [replace(evaluate(spec.model_at(value), spec.methods),
                    swept_value=value)
            for value in map(float, spec.swept_values())]


def default_du_sweep() -> SweepSpec:
    """Default alpha = 1 sweep: dU in [1, 12], 40 points, all methods.

    At dU = 1 the wells overlap at S ~ 1.1e-3, and that model carries
    the overlap warning.
    """
    return SweepSpec(family="simple_gaussian_dU", start=1.0, stop=12.0,
                     n_points=40)


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
            delta_u=model.barrier_heights().delta_u,
            curvature_origin=model.curvature_at_origin(),
            curvature_minima=model.curvature_at_x0(),
            width_over_x0=models.barrier_width(model) / model.x0))
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


def _profile_grid(grid: Iterable[float]) -> np.ndarray:
    """grid as a float array; ValueError unless it is strictly increasing."""
    grid = np.asarray(list(grid), dtype=float)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


def emit_profiles(model: models.Model,
                  grid: Iterable[float]) -> tuple[models.PotentialProfile, ...]:
    """U, deltaV and the family's companion curves (the two-Gaussian well
    parabolas) on grid, under the model's profile label."""
    model = models.require_model(model)
    grid = _profile_grid(grid)
    label, extras = model.profile_extras(grid)
    curves = (("meanfield", model.meanfield_potential(grid)),
              ("quantum", model.quantum_potential(grid)), *extras)
    return tuple(models.PotentialProfile(values, kind, label)
                 for kind, values in curves)


def quantum_profiles(family, grid, kind, scale, label):
    """deltaV / scale(model) on grid for each model of family: one
    PotentialProfile each, under kind and label(model)."""
    grid = _profile_grid(grid)
    return tuple(models.PotentialProfile(m.quantum_potential(grid) / scale(m),
                                         kind, label(m)) for m in family)
