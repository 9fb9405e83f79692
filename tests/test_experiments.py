"""Tests for the sweep orchestration and profile families."""

import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from dwsplit import cli, experiments, localization, models, numerics
from helpers import RazavyModel

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def load_golden(name):
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def spec_from_golden(doc):
    meta = doc["meta"]
    return experiments.SweepSpec(
        family=meta["family"], start=meta["start"], stop=meta["stop"],
        n_points=meta["n_points"], fixed=meta["fixed"],
        methods=tuple(meta["methods"]))


class TestSweepSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            experiments.SweepSpec("cubic", 1.0, 2.0, 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="n_points"):
            experiments.SweepSpec("quartic_dU", 1.0, 2.0, 1)

    def test_inverted_range(self):
        with pytest.raises(ValueError, match="start < stop"):
            experiments.SweepSpec("quartic_dU", 2.0, 1.0, 5)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            experiments.SweepSpec("quartic_dU", 1.0, 2.0, 5,
                                  methods=("exact", "bessel"))

    def test_methods_stored_in_canonical_order(self):
        spec = experiments.SweepSpec("quartic_dU", 1.0, 2.0, 5,
                                     methods=("wkb", "exact"))
        assert spec.methods == ("exact", "wkb")

    def test_extended_family_needs_barrier_height(self):
        with pytest.raises(ValueError, match="delta_v"):
            experiments.SweepSpec("extended_fixed_dV", 1.0, 2.0, 5)

    def test_out_of_band_range_rejected(self, monkeypatch):
        # the band is where the closed forms are finite: at dU = 1e160
        # sigma^2 underflows, and the spec's model at its stop refuses it
        calls = []
        monkeypatch.setattr(experiments, "evaluate",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="not all finite"):
            experiments.run_sweep(
                experiments.SweepSpec("simple_gaussian_dU", 1.0, 1e160, 40))
        assert calls == []

    @pytest.mark.parametrize("family, fixed, key", [
        ("simple_gaussian_dU", {"alpha": 2.0}, "alpha"),
        ("quartic_dU", {"delta_v": 30.0}, "delta_v"),
        ("extended_fixed_dV", {"delta_v": 30.0, "sigma": 0.3}, "sigma"),
    ])
    def test_unread_fixed_key_rejected(self, family, fixed, key):
        # an alpha held fixed on simple_gaussian_dU would build models off
        # the swept dU, since sigma follows the alpha = 1 formula
        with pytest.raises(ValueError, match=rf"fixed\['{key}'\]"):
            experiments.SweepSpec(family, 3.0, 4.0, 2, fixed=fixed)

    def test_fixed_mapping_is_copied(self):
        fixed = {"delta_v": 30.0}
        spec = experiments.SweepSpec("extended_fixed_dV", 1.0, 2.0, 5,
                                     fixed=fixed)
        fixed["delta_v"] = 999.0
        assert spec.fixed["delta_v"] == 30.0

    def test_swept_values_hit_endpoints(self):
        spec = experiments.SweepSpec("quartic_dU", 1.0, 3.0, 5)
        vals = spec.swept_values()
        assert vals[0] == 1.0 and vals[-1] == 3.0 and len(vals) == 5


class TestRunSweep:
    def test_small_sweep_rows(self):
        spec = experiments.SweepSpec("simple_gaussian_dU", 3.0, 4.0, 3)
        rows = experiments.run_sweep(spec)
        assert [r.swept_value for r in rows] == [3.0, 3.5, 4.0]
        for row in rows:
            assert not row.failures
            assert set(row.splittings) == {"exact", "localization", "wkb"}
            assert all(v > 0 for v in row.splittings.values())
            assert row.delta_u == pytest.approx(row.swept_value, rel=1e-12)
            # closed-form relation between the two barrier heights
            expect_dv = (2.0 / row.alpha) * (
                row.delta_u + row.alpha * math.log(2.0)) ** 2
            assert row.delta_v == pytest.approx(expect_dv, rel=1e-12)
            assert row.width is not None and row.width > 0
            assert 0.0 < row.overlap < 1.0
            # the localization estimate is an upper bound
            assert row.rel_errors["localization"] > 0.0
            assert row.rel_errors["localization"] == pytest.approx(
                row.splittings["localization"] / row.splittings["exact"] - 1.0,
                rel=1e-12)

    def test_extended_family_maps_alpha_to_sigma(self):
        spec = experiments.SweepSpec("extended_fixed_dV", 1.0, 3.0, 3,
                                     fixed={"delta_v": 30.0},
                                     methods=("localization",))
        rows = experiments.run_sweep(spec)
        for row in rows:
            assert row.alpha == row.swept_value
            assert row.sigma == pytest.approx(
                (1.0 / (2.0 * row.alpha * 30.0)) ** 0.25, rel=1e-12)
            assert row.delta_v == pytest.approx(30.0, rel=1e-12)
            assert "exact" not in row.splittings
            assert row.rel_errors == {}

    def test_quartic_rows_have_numeric_barrier(self):
        spec = experiments.SweepSpec("quartic_dU", 2.0, 6.0, 3)
        rows = experiments.run_sweep(spec)
        for row in rows:
            assert row.sigma is None and row.alpha is None
            assert row.delta_u == row.swept_value
            assert row.delta_v > row.delta_u  # quantum barrier is higher here
            assert row.delta_v == models.QuarticMeanFieldModel(
                du=row.swept_value).barrier_heights().delta_v
            assert not row.failures

    def test_row_failure_is_isolated(self, monkeypatch):
        calls = {"n": 0}
        real = experiments.wkb.wkb_splitting

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments.wkb, "wkb_splitting", flaky)
        spec = experiments.SweepSpec("simple_gaussian_dU", 3.0, 4.0, 3)
        rows = experiments.run_sweep(spec)
        assert "wkb" in rows[0].splittings
        assert "wkb" not in rows[1].splittings
        assert rows[1].failures["wkb"] == "ValueError: synthetic failure"
        # the failing row still carries the other methods
        assert {"exact", "localization"} <= set(rows[1].splittings)
        assert "wkb" in rows[2].splittings

    def test_deterministic(self):
        spec = experiments.SweepSpec("simple_gaussian_dU", 5.0, 6.0, 2)
        a = experiments.run_sweep(spec)
        b = experiments.run_sweep(spec)
        for ra, rb in zip(a, b):
            assert ra.splittings == rb.splittings
            assert ra.rel_errors == rb.rel_errors


class TestEvaluate:
    def test_row_outside_a_sweep(self):
        row = experiments.evaluate(models.TwoGaussianModel(sigma=0.3593))
        assert row.swept_value is None
        assert (row.sigma, row.alpha, row.x0) == (0.3593, 1.0, 1.0)
        assert set(row.splittings) == set(experiments.METHODS)
        assert not row.failures
        assert set(row.diagnostics) == {
            "n_panels", "iterations", "i_integral", "g_norm",
            "turning_points", "action", "well_frequency"}
        left, right = row.diagnostics["turning_points"]
        assert left == -right and 0.0 < right < row.x0

    def test_single_well_keeps_its_values_and_is_named(self):
        # x0^2 = alpha sigma^2: U''(0) = 0, the density's one maximum
        row = experiments.evaluate(models.TwoGaussianModel(sigma=1.0))
        assert {"exact", "localization"} <= set(row.splittings)
        assert row.failures["model"].startswith(
            "the density has one maximum: exact is the lowest odd-sector "
            "eigenvalue of a single well and localization an upper bound")

    def test_methods_run_in_canonical_order(self):
        model = models.QuarticMeanFieldModel(du=3.0)
        row = experiments.evaluate(model, ("wkb", "localization"))
        assert list(row.splittings) == ["localization", "wkb"]
        assert "n_panels" not in row.diagnostics
        assert row.rel_errors == {}

    def test_unconverged_exact_is_a_failure_with_diagnostics(self,
                                                              monkeypatch):
        # one application of K does not close the bracket at dU = 3.2
        monkeypatch.setattr(experiments.exact, "_GREEN_ITERATIONS", 1)
        row = experiments.evaluate(models.TwoGaussianModel(sigma=0.3593))
        assert row.failures == {"exact": "not converged"}
        assert "exact" not in row.splittings and row.rel_errors == {}
        assert row.diagnostics["n_panels"] == 4096
        assert row.diagnostics["iterations"] == 1

    def test_unsettled_localization_is_a_failure(self, monkeypatch):
        # at one panel count, I and <g|rho|g> have nothing to agree with
        monkeypatch.setattr(localization, "PANEL_COUNTS", [64])
        row = experiments.evaluate(models.TwoGaussianModel(sigma=0.3593),
                                   ("exact", "localization"))
        assert row.failures == {"exact": "not converged",
                                "localization": "not converged"}
        assert row.splittings == {} and "i_integral" not in row.diagnostics

    def test_exact_above_the_bound_is_a_failure(self, monkeypatch):
        # the Green's-operator value obeys the bound, so a result 1 %
        # above it stands in for a broken solver
        real = experiments.exact.green_splitting

        def above(view):
            res = real(view)
            return replace(res, splitting=1.01 * res.splitting)

        monkeypatch.setattr(experiments.exact, "green_splitting", above)
        row = experiments.evaluate(
            models.TwoGaussianModel(sigma=models.sigma_for_du(20.0)),
            ("exact", "localization"))
        assert set(row.splittings) == {"localization"}
        assert row.failures["exact"].startswith(
            "exceeds the localization bound")
        assert row.rel_errors == {}
        assert row.diagnostics["n_panels"] == 64

    @pytest.mark.parametrize("du", [20.0, 30.0, 40.0])
    def test_high_barrier_rows_report_exact(self, du):
        row = experiments.evaluate(
            models.TwoGaussianModel(sigma=models.sigma_for_du(du)),
            ("exact", "localization"))
        assert not row.failures
        assert set(row.splittings) == {"exact", "localization"}

    @pytest.mark.parametrize("model", [
        models.TwoGaussianModel(sigma=0.3593),
        models.QuarticMeanFieldModel(du=3.0),
    ], ids=["two_gaussian", "quartic"])
    def test_rows_make_no_adaptive_integral(self, model, monkeypatch):
        # the density is normalized on the panel nodes it is sampled on,
        # so neither view needs a normalization of its own
        calls, integrate = [], numerics.integrate_panels
        monkeypatch.setattr(numerics, "integrate_panels",
                            lambda *args: calls.append(args) or integrate(*args))
        row = experiments.evaluate(model, ("exact", "localization"))
        assert set(row.splittings) == {"exact", "localization"}
        assert calls == []

    def test_non_finite_splitting_is_a_failure(self, monkeypatch):
        # a zero exact value would divide by zero in rel_errors; every
        # method follows the same rule
        model = models.QuarticMeanFieldModel(du=3.0)
        res = experiments.exact.green_splitting(models.meanfield_view(model))
        for value, tag in ((math.inf, "non-finite splitting inf"),
                           (0.0, "non-positive splitting 0.0")):
            monkeypatch.setattr(
                experiments.exact, "green_splitting",
                lambda view: replace(res, localization=replace(
                    res.localization, splitting=value)))
            row = experiments.evaluate(model, ("localization", "wkb"))
            assert row.failures == {"localization": tag}
            assert set(row.splittings) == {"wkb"}


class TestThirdFamily:
    """A family defined outside the package, by the Model protocol alone."""

    # t = ln xi; the barrier dU = xi - 1 - t is 2.05, 12, 100 and 704
    @pytest.mark.parametrize("t, delta_u", [(-3.0, 2.0498), (-13.0, 12.0),
                                            (-101.0, 100.0), (-705.0, 704.0)])
    def test_razavy_well_has_its_closed_form_splitting(self, t, delta_u):
        model = RazavyModel(t)
        row = experiments.evaluate(model)
        assert row.delta_u == pytest.approx(delta_u, abs=1e-4)
        exact = row.splittings["exact"]
        assert abs(exact / model.exact_splitting() - 1.0) <= 1e-13
        # from dU ~ 40 on the bound meets exact to rounding
        assert row.splittings["localization"] >= exact * (1.0 - 1e-15)
        assert row.failures["wkb"].startswith("WkbInapplicableError")
        assert (row.sigma, row.alpha, row.width, row.overlap) == (None,) * 4
        assert set(row.failures) == {"wkb"}

    def test_profiles_and_closed_forms(self):
        # deltaV = x0^2 (sqrt rho)''/sqrt rho by five-point differences,
        # its minimum below deltaV(0) by delta_v, and both curvatures
        model = RazavyModel(-3.0)
        x0 = model.x0
        grid = np.linspace(-1.5 * x0, 1.5 * x0, 61)
        u, dv = experiments.emit_profiles(model, grid)
        assert (u.kind, dv.kind, u.label) == ("meanfield", "quantum",
                                              "razavy t=-3")
        assert u.values[[10, 50]] == pytest.approx(0.0, abs=1e-14)
        h = 1e-3 * x0
        psi = lambda y: np.exp(-0.5 * model.meanfield_potential(y))
        lap = (-psi(grid + 2 * h) + 16 * psi(grid + h) - 30 * psi(grid)
               + 16 * psi(grid - h) - psi(grid - 2 * h)) / (12 * h * h)
        assert np.max(np.abs(x0**2 * lap / psi(grid) - dv.values)) \
            <= 1e-6 * np.max(np.abs(dv.values))
        scale = model.barrier_heights().delta_v
        fine = np.linspace(0.0, 2.0 * x0, 400_001)
        assert model.quantum_potential(0.0) - np.min(
            model.quantum_potential(fine)) == pytest.approx(scale, rel=1e-9)
        for at, curvature in ((x0, model.curvature_at_x0()),
                              (0.0, model.curvature_at_origin())):
            v = [model.quantum_potential(at + k * h) for k in (-2, -1, 0, 1, 2)]
            fd = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
            assert x0**2 * fd == pytest.approx(curvature, rel=1e-6)


class TestReducedCoordinate:
    """exact and wkb solve -x0^2 d2/dx2 + deltaV(x) at any x0."""

    def test_quartic_rows_do_not_depend_on_x0(self):
        one, two = (experiments.run_sweep(experiments.SweepSpec(
            "quartic_dU", 3.0, 4.0, 3, fixed={"x0": x0})) for x0 in (1.0, 2.0))
        for a, b in zip(one, two):
            assert not a.failures and not b.failures
            assert b.splittings["exact"] == pytest.approx(
                a.splittings["exact"], rel=1e-6)
            for method in ("localization", "wkb"):
                assert b.splittings[method] == pytest.approx(
                    a.splittings[method], rel=1e-9)

    def test_turning_points_in_the_unit_of_width(self):
        x0 = 1.7
        row = experiments.evaluate(
            models.TwoGaussianModel(sigma=0.3593, x0=x0, alpha=2.5))
        scaled = experiments.evaluate(
            models.TwoGaussianModel(sigma=0.3593 / x0, alpha=2.5))
        assert row.width == pytest.approx(x0 * scaled.width, rel=1e-9)
        assert row.diagnostics["turning_points"] == pytest.approx(
            [x0 * t for t in scaled.diagnostics["turning_points"]], rel=1e-9)
        for method, tol in (("exact", 1e-6), ("localization", 1e-9),
                            ("wkb", 1e-9)):
            assert row.splittings[method] == pytest.approx(
                scaled.splittings[method], rel=tol)


class TestDefaultSweeps:
    def test_du_sweep_configuration(self):
        spec = experiments.default_du_sweep()
        assert spec.family == "simple_gaussian_dU"
        assert (spec.start, spec.stop, spec.n_points) == (1.0, 12.0, 40)
        assert spec.methods == ("exact", "localization", "wkb")

    def test_width_sweep_configuration(self):
        for dv, stop in ((30.0, 3.2), (15.0, 2.4)):
            spec = experiments.default_width_sweep(dv)
            assert spec.family == "extended_fixed_dV"
            assert spec.fixed["delta_v"] == dv
            assert spec.stop == stop
            assert spec.methods == ("exact", "localization")

    def test_no_default_row_is_a_single_well(self, default_sweeps):
        for name, (_, rows, _) in default_sweeps.items():
            assert not [r for r in rows if "model" in r.failures], name

    def test_width_sweep_generic_height_stays_bistable(self):
        spec = experiments.default_width_sweep(50.0)
        limit = models.two_minimum_alpha_limit(50.0)
        assert spec.stop == pytest.approx(0.9 * limit)


class TestParameterTable:
    def test_reference_values(self):
        rows = {r.alpha: r for r in experiments.table1_rows()}
        assert set(rows) == {1.0, 1.5, 2.0, 2.5, 3.0}
        r = rows[1.5]
        assert r.sigma_over_x0 == pytest.approx(0.3247, abs=5e-5)
        assert r.delta_u == pytest.approx(3.70, abs=5e-3)
        assert r.curvature_origin == pytest.approx(-1124, abs=1.0)
        assert r.curvature_minima == pytest.approx(45, abs=0.5)
        assert r.width_over_x0 == pytest.approx(0.49, abs=5e-3)
        assert rows[3.0].sigma_over_x0 == pytest.approx(0.2730, abs=5e-5)
        assert rows[3.0].curvature_origin == pytest.approx(-115, abs=1.0)

    def test_minima_curvature_scales_with_alpha(self):
        for row in experiments.table1_rows():
            assert row.curvature_minima == pytest.approx(
                30.0 * row.alpha, rel=1e-12)

    def test_width_increases_with_alpha(self):
        widths = [r.width_over_x0 for r in experiments.table1_rows()]
        assert widths == sorted(widths)

    def test_formatted_table(self):
        text = experiments.table1()
        lines = text.splitlines()
        assert len(lines) == 6
        assert "sigma/x0" in lines[0]
        assert "0.3247" in lines[2] and "-1124" in lines[2]
        assert lines[-1].split() == ["3.0", "0.2730", "4.63", "-115",
                                     "90", "0.86"]


class TestProfiles:
    def test_two_gaussian_profile_kinds(self):
        model = models.TwoGaussianModel(sigma=0.3593)
        grid = np.linspace(-1.5, 1.5, 61)
        profiles = experiments.emit_profiles(model, grid)
        kinds = [p.kind for p in profiles]
        assert kinds == ["meanfield", "quantum",
                         "meanfield_parabola_right", "quantum_parabola_right",
                         "meanfield_parabola_left", "quantum_parabola_left"]
        for p in profiles:
            assert p.values.shape == grid.shape

    def test_quartic_profile_kinds(self):
        model = models.QuarticMeanFieldModel(du=5.0)
        profiles = experiments.emit_profiles(model, np.linspace(-1.5, 1.5, 31))
        assert [p.kind for p in profiles] == ["meanfield", "quantum"]

    def test_grid_must_increase(self):
        model = models.QuarticMeanFieldModel(du=5.0)
        with pytest.raises(ValueError, match="increasing"):
            experiments.emit_profiles(model, [0.0, 1.0, 0.5])

    def test_unsupported_model_type(self):
        with pytest.raises(TypeError, match="unsupported"):
            experiments.emit_profiles(object(), [0.0, 1.0])

    def test_parabola_tangency_at_the_well(self):
        # companion curves osculate the true ones up to the overlap scale
        for alpha in (1.0, 2.0, 3.0):
            model = models.TwoGaussianModel(
                sigma=models.sigma_for_delta_v(30.0, alpha), alpha=alpha)
            s = models.superposition_coefficient(model)
            scale = 30.0 * s
            x0 = model.x0
            h = 1e-3
            grid = np.array([x0 - 2 * h, x0 - h, x0, x0 + h, x0 + 2 * h])
            profiles = {p.kind: p for p in experiments.emit_profiles(model, grid)}
            for true_kind, para_kind, tols in (
                    ("meanfield", "meanfield_parabola_right", (1, 5, 100)),
                    ("quantum", "quantum_parabola_right", (10, 120, 6000))):
                diff = profiles[true_kind].values - profiles[para_kind].values
                # value, slope and curvature all agree to O(S * dV)
                assert abs(diff[2]) < tols[0] * scale
                assert abs((diff[3] - diff[1]) / (2 * h)) < tols[1] * scale
                assert abs((diff[4] - 2 * diff[2] + diff[0]) / h**2) < tols[2] * scale

    @staticmethod
    def family_profiles(grid, *argv):
        """The curves of one `profile --family` mode, from its cli table."""
        args = cli.build_parser().parse_args(["profile", *argv])
        return cli._PROFILE_MODES[f"--family {args.family}"][2](args, grid)

    def test_quartic_family_scaling(self):
        grid = np.linspace(-1.2, 1.2, 25)
        profiles = self.family_profiles(grid, "--family", "quartic-family",
                                        "--du-list", "0.5,5")
        assert all(p.kind == "quantum_over_dU" for p in profiles)
        # scaled curves all pass through 2 at the origin
        for p in profiles:
            assert p.values[12] == pytest.approx(2.0, rel=1e-12)

    def test_shape_family_scaling(self):
        grid = np.linspace(-1.2, 1.2, 25)
        profiles = self.family_profiles(grid, "--family", "shape",
                                        "--sigma-list", "0.3,0.4")
        for p, sigma in zip(profiles, (0.30, 0.40)):
            model = models.TwoGaussianModel(sigma=sigma)
            dv = model.barrier_heights().delta_v
            assert p.values[12] * dv == pytest.approx(
                models.quantum_potential_closed(model, 0.0), rel=1e-12)

    def test_fixed_dv_family_labels(self):
        grid = np.linspace(-1.2, 1.2, 9)
        profiles = self.family_profiles(grid, "--family", "fixed-dv",
                                        "--dv", "30", "--alpha-list", "1,2,3")
        assert [p.label for p in profiles] == ["alpha=1", "alpha=2", "alpha=3"]
        assert all(p.kind == "quantum" for p in profiles)


class TestGoldenRegression:
    @pytest.mark.parametrize("name", ["du_sweep.json",
                                      "width_sweep_dv30.json",
                                      "width_sweep_dv15.json"])
    def test_sweep_reproduces_golden(self, name, default_sweeps):
        doc = load_golden(name)
        spec, rows, _ = default_sweeps[name]
        assert spec_from_golden(doc) == spec
        assert len(rows) == len(doc["rows"])
        for row, ref in zip(rows, doc["rows"]):
            assert not row.failures
            # goldens round to 12 significant digits
            assert row.swept_value == pytest.approx(ref["swept_value"],
                                                    rel=1e-11)
            assert row.delta_u == pytest.approx(ref["delta_u"], rel=1e-10)
            assert row.delta_v == pytest.approx(ref["delta_v"], rel=1e-10)
            if ref["width"] is not None:
                assert row.width == pytest.approx(ref["width"], rel=1e-10)
            for method, value in ref["splittings"].items():
                tol = 1e-6 if method == "exact" else 1e-9
                assert row.splittings[method] == pytest.approx(value, rel=tol)
