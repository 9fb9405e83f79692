"""Fixtures shared across the test modules."""

import time

import pytest

from dwsplit import experiments


@pytest.fixture(scope="session")
def default_sweeps():
    """Spec, rows and elapsed seconds of each default sweep, run once.

    Keyed by the name of the golden file that freezes the sweep.
    """
    out = {}
    for name, spec in (
            ("du_sweep.json", experiments.default_du_sweep()),
            ("width_sweep_dv30.json", experiments.default_width_sweep(30.0)),
            ("width_sweep_dv15.json", experiments.default_width_sweep(15.0))):
        t0 = time.perf_counter()
        rows = experiments.run_sweep(spec)
        out[name] = spec, rows, time.perf_counter() - t0
    return out
