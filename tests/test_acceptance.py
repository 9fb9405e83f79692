"""Acceptance checks, one test per headline requirement.

Each test prints a single [PASS]/[FAIL] verdict line (shown with
``pytest -s``, or in the captured output of a failing test) and then
asserts, so one red criterion still reports every other verdict.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dwsplit import exact, experiments, localization, models

from helpers import fd_ground_state, fd_lowest

TABLE_TARGETS = {
    # alpha: (sigma/x0, dU, V''(0), V''(x0), w/x0)
    1.0: (0.3593, 3.18, -2235.0, 30.0, 0.33),
    1.5: (0.3247, 3.70, -1124.0, 45.0, 0.49),
    2.0: (0.3021, 4.09, -597.0, 60.0, 0.64),
    2.5: (0.2857, 4.39, -300.0, 75.0, 0.76),
    3.0: (0.2730, 4.63, -115.0, 90.0, 0.86),
}


def verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def du_sweep(default_sweeps):
    _, rows, elapsed = default_sweeps["du_sweep.json"]
    return rows, elapsed


@pytest.fixture(scope="module")
def width_sweeps(default_sweeps):
    _, rows30, t30 = default_sweeps["width_sweep_dv30.json"]
    _, rows15, t15 = default_sweeps["width_sweep_dv15.json"]
    return rows30, rows15, t30 + t15


def test_reference_parameter_table():
    t0 = time.perf_counter()
    rows = {r.alpha: r for r in experiments.table1_rows()}
    elapsed = time.perf_counter() - t0
    worst = 0.0
    ok = len(rows) == 5 and elapsed < 1.0
    for alpha, (sig, du, c0, cmin, w) in TABLE_TARGETS.items():
        r = rows[alpha]
        checks = (
            abs(r.delta_u - du) <= 0.01,
            abs(r.curvature_origin - c0) <= 1.0,
            abs(r.curvature_minima - cmin) <= 0.5,
            abs(r.width_over_x0 - w) <= 0.01,
        )
        worst = max(worst, abs(r.delta_u - du), abs(r.width_over_x0 - w))
        ok = ok and all(checks)
    assert verdict(ok, "reference parameter table",
                   f"5 rows, worst dU/width deviation {worst:.4f}, "
                   f"{elapsed * 1e3:.0f} ms")


def test_barrier_height_identity():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        sigma = rng.uniform(0.05, 0.5)
        alpha = rng.uniform(1.0, 10.0)
        model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
        h = model.barrier_heights()
        expect = (2.0 / alpha) * (h.delta_u + alpha * math.log(2.0)) ** 2
        worst = max(worst, abs(h.delta_v - expect) / expect)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert verdict(ok, "barrier-height identity",
                   f"100 samples, worst rel {worst:.2e}, "
                   f"{elapsed * 1e3:.0f} ms")


def test_density_square_root_is_ground_state():
    t0 = time.perf_counter()
    worst_psi = 0.0
    worst_dv = 0.0
    for alpha in TABLE_TARGETS:
        sigma = models.sigma_for_delta_v(30.0, alpha)
        model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
        dv = lambda x: models.quantum_potential_closed(model, x)
        x, _, psi0 = fd_ground_state(dv)
        density = lambda y: np.exp(-model.meanfield_potential(y))
        halfwidth = model.x0 + 10.0 * model.sigma
        z, _ = quad(density, -halfwidth, halfwidth, epsabs=0.0, epsrel=1e-13)
        rho = density(x) / z
        mask = (np.abs(x) <= 3.0) & (rho > 1e-6)
        psi_rho = np.sqrt(rho[mask])
        dev = np.max(np.abs(psi0[mask] - psi_rho) / psi_rho)
        worst_psi = max(worst_psi, float(dev))

        # reverse route: second derivative of sqrt(rho) recovers deltaV
        xg = np.linspace(-1.5, 1.5, 801)
        h = 1e-3
        psi = lambda y: np.sqrt(density(y) / z)
        lap = (-psi(xg + 2 * h) + 16 * psi(xg + h) - 30 * psi(xg)
               + 16 * psi(xg - h) - psi(xg - 2 * h)) / (12 * h * h)
        closed = models.quantum_potential_closed(model, xg)
        sup = np.max(np.abs(lap / psi(xg) - closed)) / np.max(np.abs(closed))
        worst_dv = max(worst_dv, float(sup))
    elapsed = time.perf_counter() - t0
    ok = worst_psi <= 1e-4 and worst_dv <= 1e-6
    assert verdict(ok, "density square root is the ground state",
                   f"worst state rel {worst_psi:.2e} (<= 1e-4), worst "
                   f"potential rel {worst_dv:.2e} (<= 1e-6), {elapsed:.1f} s")


def test_bound_exceeds_exact_everywhere(du_sweep, width_sweeps):
    rows_du, t_du = du_sweep
    rows30, rows15, t_w = width_sweeps
    all_rows = rows_du + rows30 + rows15
    violations = [
        r.swept_value for r in all_rows
        if r.failures or not (r.splittings["localization"]
                              > r.splittings["exact"])
    ]
    elapsed = t_du + t_w
    ok = not violations and elapsed < 120.0
    assert verdict(ok, "variational bound exceeds exact splitting",
                   f"{len(all_rows)} sweep points, {len(violations)} "
                   f"violations, {elapsed:.1f} s")


def test_localization_error_trend(du_sweep):
    rows, _ = du_sweep
    du = np.array([r.delta_u for r in rows])
    err = np.array([r.rel_errors["localization"] for r in rows])
    ok_start = err[0] < 0.10
    ok_monotone = bool(np.all(np.diff(err) < 0.0))
    window = (du >= 2.0) & (du <= 10.0)
    slope, intercept = np.polyfit(du[window], np.log(err[window]), 1)
    fit = slope * du[window] + intercept
    resid = np.log(err[window]) - fit
    r2 = 1.0 - np.sum(resid**2) / np.sum(
        (np.log(err[window]) - np.log(err[window]).mean())**2)
    ok = ok_start and ok_monotone and slope < 0.0 and r2 > 0.98
    assert verdict(ok, "localization error trend",
                   f"err(dU=1) = {err[0]:.3f} (< 0.10), strictly decreasing: "
                   f"{ok_monotone}, log-fit slope {slope:.3f}, R^2 {r2:.4f}")


def test_splitting_vs_width_study(width_sweeps):
    rows30, rows15, _ = width_sweeps
    details = []
    ok = True
    for tag, rows, cap in (("dV=30", rows30, 0.02), ("dV=15", rows15, 0.10)):
        widths = np.array([r.width for r in rows])
        ex = np.array([r.splittings["exact"] for r in rows])
        loc = np.array([r.splittings["localization"] for r in rows])
        gap = loc / ex - 1.0
        decreasing = bool(np.all(np.diff(ex) < 0.0)
                          and np.all(np.diff(loc) < 0.0))
        ok = ok and bool(np.all(np.diff(widths) > 0.0)) and decreasing
        # agreement may relax only at the narrow-barrier end of the curve
        inside = np.flatnonzero(gap <= cap)
        first = int(inside[0]) if inside.size else len(rows)
        ok = ok and first <= max(1, len(rows) // 5) \
            and bool(np.all(gap[first:] <= cap))
        details.append(f"{tag}: decreasing {decreasing}, max gap "
                       f"{gap.max():.3f} (cap {cap})")
    assert verdict(ok, "splitting vs width study", "; ".join(details))


def test_independent_eigensolver_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in TABLE_TARGETS:
        sigma = models.sigma_for_delta_v(30.0, alpha)
        model = models.TwoGaussianModel(sigma=sigma, alpha=alpha)
        dv = lambda x: models.quantum_potential_closed(model, x)
        ref = fd_lowest(dv)
        for res in (exact.exact_splitting(dv, model.x0,
                                          models.curvature_at_minima(model)),
                    exact.green_splitting(models.meanfield_view(model))):
            rel = abs(res.splitting - (ref[1] - ref[0])) / (ref[1] - ref[0])
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    assert verdict(ok, "independent eigensolver agreement",
                   f"5 parameter sets, sinc-grid and Green's-operator solvers, "
                   f"worst rel {worst:.2e} (<= 1e-6), {elapsed:.1f} s")


def test_quartic_central_minimum_onset():
    root = brentq(
        lambda du: models.QuarticMeanFieldModel(
            du=du).curvature_at_origin(), 1.2, 1.8, xtol=1e-12)
    counts = {}
    for du in (0.5, 1.0, 2.5, 5.0):
        model = models.QuarticMeanFieldModel(du=du)
        x = np.linspace(-1.5, 1.5, 10_000)
        s = np.sign(np.diff(model.quantum_potential(x)))
        s = s[s != 0.0]
        counts[du] = int(np.sum((s[:-1] < 0) & (s[1:] > 0)))
    ok = (abs(root - 1.5) <= 1e-9
          and counts[0.5] == 2 and counts[1.0] == 2
          and counts[2.5] == 3 and counts[5.0] == 3)
    assert verdict(ok, "quartic central-minimum onset",
                   f"sign change at dU = {root:.10f} (1.5 += 1e-9), minima "
                   f"counts {counts}")


def test_semiclassical_error_comparison(du_sweep):
    rows, _ = du_sweep
    du = np.array([r.delta_u for r in rows])
    wkb_err = np.array([r.rel_errors["wkb"] for r in rows])
    loc_err = np.array([r.rel_errors["localization"] for r in rows])
    signs = np.sign(wkb_err)
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    tail = du >= 4.0
    ratios = np.abs(wkb_err[tail]) / np.abs(loc_err[tail])
    min_ratio = float(ratios.min())
    ok = crossings == 1 and bool(np.all(ratios >= 10.0))
    assert verdict(
        ok, "semiclassical error comparison",
        f"error sign crossings {crossings} (need 1), min |wkb|/|loc| error "
        f"ratio at dU >= 4 is {min_ratio:.2f} (need >= 10)"), (
        "the ground-level semiclassical estimate implemented here is more "
        "accurate near dU = 4 than the factor-10 margin assumes; the ratio "
        f"first reaches 10 around dU = {float(du[tail][ratios >= 10.0][0]) if np.any(ratios >= 10.0) else float('nan'):.1f}"
    )
