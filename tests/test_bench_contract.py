"""The benchmark's entry points into the package, checked in seconds.

``bench/workloads.py`` and ``bench/tracing.py`` reach into ``src`` by name
(functions, result fields, ``SweepSpec`` fields and the lazy
``swept_values``).  These checks import both read-only and run the
smallest piece of every workload, so a source change that breaks the
benchmark fails here and not only in ``python3 -m pytest
bench/test_bench.py``.
"""

import dataclasses
import math
import pathlib
import sys

import pytest

from dwsplit import exact, experiments, localization, models

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI_MODEL = (1.0, 0.3593)


def test_library_split_gives_three_splittings():
    got = workloads.library_split(*CLI_MODEL)
    assert set(got) == set(workloads.CLI_METHODS)
    assert all(math.isfinite(v) and v > 0.0 for v in got.values())


@pytest.mark.parametrize("workload", sorted(workloads.SWEEP_WORKLOADS))
def test_seed_zero_pass_matches_golden(workload):
    grids = [dataclasses.replace(g, values=g.values[:2], golden=g.golden[:2])
             for g in workloads.sweep_grids(workload, 0)]
    rows, latencies = workloads.run_pass(grids)
    assert len(latencies) == 2 * len(grids)
    for grid, out in zip(grids, rows):
        assert workloads.check_rows(grid, out) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_exact_matches_library_split(seed):
    # cli_split checks the CLI, whose exact comes from evaluate's
    # Green's-operator solver, against library_split's sinc-grid solver
    alpha, sigma = workloads.cli_model(seed)
    row = experiments.evaluate(models.TwoGaussianModel(sigma=sigma,
                                                       alpha=alpha))
    reference = workloads.library_split(alpha, sigma)
    for method in workloads.CLI_METHODS:
        assert math.isclose(row.splittings[method], reference[method],
                            rel_tol=workloads.GOLDEN_REL[method])


def test_tracing_round_trip():
    originals = (exact.exact_splitting,
                 models.TwoGaussianModel.__dict__["__post_init__"])
    plain = workloads.library_split(*CLI_MODEL)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = workloads.library_split(*CLI_MODEL)
    finally:
        undo()
    assert traced == plain
    # the sinc reference, and the Green's pass behind splitting_localization
    assert tracer.stats["exact.calls"] == 2
    assert (exact.exact_splitting,
            models.TwoGaussianModel.__dict__["__post_init__"]) == originals


def test_tracing_round_trip_of_evaluate():
    # exact and localization read one density discretization per panel
    # count, built by a public function that the tracer wraps as well
    originals = (experiments.evaluate, localization.discretize)
    model = models.TwoGaussianModel(sigma=CLI_MODEL[1], alpha=CLI_MODEL[0])
    plain = experiments.evaluate(model)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = experiments.evaluate(model)
    finally:
        undo()
    assert traced == plain
    assert tracer.stats["exact.green_splitting.calls"] == 1
    visited = [p for p in localization.PANEL_COUNTS
               if p <= traced.diagnostics["n_panels"]]
    assert tracer.stats["localization.discretize.calls"] == len(visited) == 2
    assert (experiments.evaluate, localization.discretize) == originals
