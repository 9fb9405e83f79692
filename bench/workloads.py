"""Seeded inputs, the closed-loop drivers and the output checks of the benchmark.

Workloads (one process, closed loop: each sweep point or CLI process starts
after the previous one has ended):

du_sweep
    ``experiments.default_du_sweep()``: dU 1..12, 40 points, exact,
    localization and WKB.  The paper's main figure; ``exact`` dominates and
    a quarter of the points end at basis size 1024.
width_sweeps
    ``default_width_sweep(30)`` then ``default_width_sweep(15)``: 50 points,
    exact and localization.  Localization dominates and exact stays at
    small bases, so per-call overhead shows rather than O(n^3) work.
cli_split
    Cold ``dwsplit split --alpha 1 --sigma 0.3593`` processes; import cost
    is almost the whole run.

Seed 0 runs exactly the golden grids and is checked against the goldens in
``tests/golden``.  Any other seed moves each swept value to a uniformly
drawn point of its own grid cell (same count, same range) and is checked by
invariants only.  No workload goes past dU = 12, where ``exact`` has no
reference to be checked against.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional

from dwsplit import exact, experiments, localization, models, wkb

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"

# relative tolerances against the goldens (stored with 12 digits)
GOLDEN_REL = {"exact": 1e-6, "localization": 1e-9, "wkb": 1e-9}

SWEEP_WORKLOADS = {
    "du_sweep": ((experiments.default_du_sweep, (), "du_sweep.json"),),
    "width_sweeps": (
        (experiments.default_width_sweep, (30.0,), "width_sweep_dv30.json"),
        (experiments.default_width_sweep, (15.0,), "width_sweep_dv15.json"),
    ),
}

CLI_ALPHA = 1.0
CLI_SIGMA = 0.3593
CLI_SIGMA_JITTER = 0.005   # relative half-width of the seeded sigma cell
CLI_METHODS = ("exact", "localization", "wkb")


@dataclass(frozen=True)
class PointSpec(experiments.SweepSpec):
    """A SweepSpec over explicit values.

    ``on_point(i)`` is called when run_sweep takes value i, and with
    ``len(values)`` when it asks for the value after the last, so the
    calls bracket the work of each point.
    """

    values: tuple = ()
    on_point: Optional[Callable[[int], None]] = None

    def swept_values(self):
        for i, value in enumerate(self.values):
            self.on_point(i)
            yield value
        self.on_point(len(self.values))


@dataclass
class Grid:
    spec: experiments.SweepSpec
    values: tuple
    golden: Optional[list]   # golden rows, seed 0 only


def sweep_grids(workload: str, seed: int) -> list[Grid]:
    rng = random.Random(seed)
    grids = []
    for factory, args, golden_name in SWEEP_WORKLOADS[workload]:
        spec = factory(*args)
        base = [float(v) for v in spec.swept_values()]
        if seed == 0:
            golden = json.loads((GOLDEN_DIR / golden_name).read_text())
            grids.append(Grid(spec, tuple(base), golden["rows"]))
            continue
        half = (spec.stop - spec.start) / (spec.n_points - 1) / 2.0
        values = tuple(rng.uniform(max(spec.start, v - half),
                                   min(spec.stop, v + half)) for v in base)
        grids.append(Grid(spec, values, None))
    return grids


def run_pass(grids: list[Grid], on_point=None):
    """One closed-loop pass over every grid through experiments.run_sweep.

    Returns the rows of each grid and the latency of every point in ns.
    ``on_point(grid_index, point_index)`` runs as each point starts.
    """
    rows, latencies = [], []
    for g, grid in enumerate(grids):
        marks = []

        def mark(i, g=g, marks=marks):
            marks.append(time.perf_counter_ns())
            if on_point is not None and i < len(grid.values):
                on_point(g, i)

        spec = PointSpec(**{f.name: getattr(grid.spec, f.name)
                            for f in fields(experiments.SweepSpec)},
                         values=grid.values, on_point=mark)
        out = experiments.run_sweep(spec)
        if len(marks) != len(grid.values) + 1 or len(out) != len(grid.values):
            raise RuntimeError(
                "run_sweep did not take the swept values one by one; "
                "per-point latency cannot be measured")
        latencies.extend(b - a for a, b in zip(marks, marks[1:]))
        rows.append(out)
    return rows, latencies


def warm_up(workload: str, seed: int) -> None:
    """One sweep point, the costliest of the first grid: its last value."""
    grid = sweep_grids(workload, seed)[0]
    run_pass([Grid(grid.spec, grid.values[-1:], None)])


def check_rows(grid: Grid, rows) -> list[tuple[int, str, str]]:
    """(point, method, reason) for every method evaluation that fails.

    Every requested method must have produced a finite positive splitting
    (run_sweep records an unconverged exact basis as a failure),
    localization must bound exact from above, and on seed 0 each value
    must match its golden at GOLDEN_REL.
    """
    bad = []
    methods = grid.spec.methods
    for i, (value, row) in enumerate(zip(grid.values, rows)):
        if row.swept_value != value:
            bad.extend((i, m, f"row for {row.swept_value}, expected {value}")
                       for m in methods)
            continue
        ref = None
        if grid.golden is not None:
            ref = grid.golden[i]
            if not math.isclose(ref["swept_value"], value, rel_tol=1e-11):
                bad.extend((i, m, "golden grid mismatch") for m in methods)
                continue
        for m in methods:
            got = row.splittings.get(m)
            if got is None or not (math.isfinite(got) and got > 0.0):
                bad.append((i, m, f"no splitting: {row.failures.get(m)}"))
            elif ref is not None and not math.isclose(
                    got, ref["splittings"][m], rel_tol=GOLDEN_REL[m]):
                bad.append((i, m, f"{got!r} != golden "
                                  f"{ref['splittings'][m]!r}"))
        loc, ex = row.splittings.get("localization"), row.splittings.get("exact")
        if loc is not None and ex is not None and loc < ex:
            bad.append((i, "localization", f"bound {loc!r} < exact {ex!r}"))
    return sorted(set(bad))


def cli_model(seed: int) -> tuple[float, float]:
    """(alpha, sigma) of the cli_split model; other seeds jitter sigma."""
    if seed == 0:
        return CLI_ALPHA, CLI_SIGMA
    u = random.Random(seed).uniform(-CLI_SIGMA_JITTER, CLI_SIGMA_JITTER)
    return CLI_ALPHA, CLI_SIGMA * (1.0 + u)


def cli_args(seed: int) -> list[str]:
    alpha, sigma = cli_model(seed)
    return ["split", "--alpha", f"{alpha:g}", "--sigma", repr(sigma)]


def library_split(alpha: float, sigma: float) -> dict:
    """The three splittings of one model through the library API."""
    model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
    dv = lambda x: models.quantum_potential_closed(model, x)
    curv = models.curvature_at_minima(model)
    ex = exact.exact_splitting(dv, model.x0, curv)
    return {
        "exact": ex.splitting if ex.converged else None,
        "localization": localization.splitting_localization(
            models.meanfield_view(model)).splitting,
        "wkb": wkb.wkb_splitting(dv, curv, model.x0).splitting,
    }


def check_cli(returncode: int, stdout: bytes, first: bytes,
              reference: dict) -> list[tuple[str, str]]:
    """(method, reason) for every failed method of one CLI invocation.

    The process must exit 0 with stdout byte-identical to the first
    invocation's; its splittings must agree with the library's at
    GOLDEN_REL, with localization bounding exact from above.
    """
    if returncode != 0:
        return [(m, f"exit code {returncode}") for m in CLI_METHODS]
    if stdout != first:
        return [(m, "stdout differs from the first invocation")
                for m in CLI_METHODS]
    try:
        record = json.loads(stdout)
    except ValueError as err:
        return [(m, f"unparsable stdout: {err}") for m in CLI_METHODS]
    got = record.get("splittings", {})
    bad = []
    for m in CLI_METHODS:
        value, ref = got.get(m), reference[m]
        if m in record.get("failures", {}) or value is None or ref is None:
            bad.append((m, f"no splitting: {record.get('failures', {})}"))
        elif not math.isclose(value, ref, rel_tol=GOLDEN_REL[m]):
            bad.append((m, f"{value!r} != library {ref!r}"))
    if (got.get("localization") is not None and got.get("exact") is not None
            and got["localization"] < got["exact"]):
        bad.append(("localization", "bound below exact"))
    return sorted(set(bad))
