"""End-to-end tests of the command-line interface (direct main() calls)."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dwsplit import cli, experiments, models


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(source):
    """Run source in a fresh interpreter that imports this checkout."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", source],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


class TestTopLevel:
    def test_unit_doc(self, capsys):
        code, out, _ = run(capsys, "--unit-doc")
        assert code == 0
        assert "kJ/mol" in out and "E_u" in out

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "split", "--sigma", "0.3", "--frobnicate")
        assert code == 1
        assert "frobnicate" in err

    def test_help_lists_subcommands(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for name in ("split", "sweep", "table1", "profile"):
            assert name in out

    def test_split_loads_no_scipy(self):
        probe = ("import sys; from dwsplit import cli; "
                 "code = cli.main(['split', '--alpha', '1', '--sigma', '0.3593']); "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
                 "sys.exit(code)")
        done = run_python(probe)
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "[]"

    def test_non_finite_parameters_exit_1(self):
        # in a subprocess with a timeout: a NaN once sent the root finder
        # into an endless loop
        # each error names the parameter the user gave, not a derived one
        named = [
            (["split", "--sigma", "nan"], "sigma"),
            (["split", "--sigma", "0.3", "--alpha", "nan"], "alpha"),
            (["split", "--sigma", "0.3", "--x0", "inf"], "x0"),
            (["split", "--dv", "nan", "--width", "1"], "delta_v"),
            (["split", "--dv", "inf", "--width", "1"], "delta_v"),
            (["split", "--dv", "-inf", "--width", "1"], "delta_v"),
            (["split", "--dv", "30", "--width", "nan"], "width"),
            (["sweep", "--family", "fixed-dv", "--dv", "nan", "--alpha",
              "1:2:2"], "delta_v"),
            (["sweep", "--family", "fixed-dv", "--dv", "30", "--alpha",
              "1:inf:2"], "alpha"),
            (["sweep", "--family", "simple-du", "--du", "-inf:2:2"], "du"),
            (["sweep", "--family", "quartic-du", "--du", "1:2:2", "--x0",
              "nan"], "x0"),
            (["table1", "--dv", "nan"], "delta_v"),
            (["profile", "--quartic", "--du", "nan", "--grid", "0:1:3"], "du"),
        ]
        cases = [argv for argv, _ in named]
        probe = ("import contextlib, io, json\n"
                 "from dwsplit import cli\n"
                 "rows = []\n"
                 f"for argv in {cases!r}:\n"
                 "    out, err = io.StringIO(), io.StringIO()\n"
                 "    with contextlib.redirect_stdout(out), "
                 "contextlib.redirect_stderr(err):\n"
                 "        code = cli.main(argv)\n"
                 "    rows.append([code, out.getvalue(), err.getvalue()])\n"
                 "print(json.dumps(rows))")
        rows = json.loads(run_python(probe).stdout)
        assert len(rows) == len(cases)
        for (argv, name), (code, out, err) in zip(named, rows):
            assert (code, out) == (1, ""), argv
            assert "finite" in err, argv
            assert f"{name} must" in err or f"finite {name} " in err, argv


class TestSplit:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "split", "--alpha", "1",
                           "--sigma", "0.3593")
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_v"] == pytest.approx(30.0, abs=0.01)
        assert set(doc["splittings"]) == {"exact", "localization", "wkb"}
        assert doc["splittings"]["localization"] > doc["splittings"]["exact"]
        assert doc["diagnostics"]["n_panels"] >= 64
        assert doc["diagnostics"]["iterations"] >= 1
        assert doc["failures"] == {}
        assert doc["validity_warnings"] == []

    def test_barrier_of_400_is_resolved(self, capsys):
        # dU = 400: 1/rho_eq reaches ~e^400, which once overflowed exact
        code, out, _ = run(capsys, "split", "--alpha", "1",
                           "--sigma", "0.0353")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == {}
        assert 0.0 < doc["splittings"]["exact"] <= \
            doc["splittings"]["localization"]

    def test_resolves_height_width_pair(self, capsys):
        code, out, _ = run(capsys, "split", "--dv", "30", "--width", "0.64")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(2.0, abs=2e-3)
        assert doc["sigma"] == pytest.approx(0.3021, abs=5e-4)

    def test_height_width_pair_rejects_alpha(self, capsys):
        # the pair fixes alpha; a given --alpha would be dropped silently
        code, out, err = run(capsys, "split", "--dv", "30", "--width", "0.64",
                             "--alpha", "2")
        assert code == 1
        assert out == ""
        assert "--alpha" in err

    def test_rejects_out_of_range_sigma(self, capsys):
        code, _, err = run(capsys, "split", "--sigma", "0.9")
        assert code == 1
        assert "sigma/x0" in err and "allow_out_of_range" in err

    def test_mixed_parameterizations_rejected(self, capsys):
        code, _, err = run(capsys, "split", "--sigma", "0.3", "--dv", "30",
                           "--width", "0.64")
        assert code == 1
        assert "either" in err
        code, _, err = run(capsys, "split", "--dv", "30")
        assert code == 1
        assert "together" in err

    def test_all_methods_failing_gives_code_2(self, capsys):
        # shallow barrier: WKB has no forbidden region at the ground level
        code, _, err = run(capsys, "split", "--sigma", "1.02",
                           "--allow-out-of-range", "--methods", "wkb")
        assert code == 2
        assert "failed" in err

    def test_sharp_wells_fail_every_method(self, capsys):
        # rho_eq underflows at the barrier, for exact and localization
        # alike, and exp(-Theta) underflows: nothing may enter splittings
        code, out, err = run(capsys, "split", "--alpha", "1",
                             "--sigma", "0.025")
        assert code == 2
        doc = json.loads(out)
        assert doc["splittings"] == {}
        assert set(doc["failures"]) == {"exact", "localization", "wkb"}
        assert doc["failures"]["exact"].startswith("NumericsError: ")
        assert "rho_eq underflows" in doc["failures"]["exact"]
        assert doc["failures"]["localization"] == doc["failures"]["exact"]
        assert "n_panels" not in doc["diagnostics"]
        assert "failed" in err

    def test_x0_off_one_solves_the_scaled_operator(self, capsys):
        # in E_u units the operator is -x0^2 d2/dx2 + deltaV(x)
        code, out, _ = run(capsys, "split", "--sigma", "0.3593",
                           "--x0", "1.7", "--alpha", "2.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == {}
        assert doc["splittings"]["localization"] >= doc["splittings"]["exact"]
        _, out, _ = run(capsys, "split", "--sigma", repr(0.3593 / 1.7),
                        "--alpha", "2.5")
        unit = json.loads(out)
        for method in experiments.METHODS:
            assert doc["splittings"][method] == pytest.approx(
                unit["splittings"][method], rel=1e-9)

    @pytest.mark.parametrize("methods, bad", [("bessel", "'bessel'"),
                                              ("exact,,wkb", "''")])
    def test_unknown_method_is_a_usage_error(self, capsys, methods, bad):
        code, out, err = run(capsys, "split", "--sigma", "0.3593",
                             "--methods", methods)
        assert code == 1
        assert out == ""
        assert f"unknown methods [{bad}]" in err

    def test_matches_the_sweep_row(self, capsys):
        sigma = models.sigma_for_du(3.0)
        code, out, _ = run(capsys, "split", "--sigma", repr(sigma))
        assert code == 0
        doc = json.loads(out)
        row = experiments.run_sweep(experiments.SweepSpec(
            "simple_gaussian_dU", 3.0, 4.0, 2))[0]
        assert row.swept_value == 3.0
        for key in ("splittings", "failures", "delta_u", "delta_v", "width",
                    "overlap"):
            assert doc[key] == cli._round12(getattr(row, key)), key

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "split", "--sigma", "0.3593",
                           "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        values = lines[1].split(",")
        rec = dict(zip(header, values))
        assert float(rec["delta_v"]) == pytest.approx(30.0, abs=0.01)
        assert float(rec["splitting_exact"]) > 0


class TestTable:
    def test_text_output_matches_library(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert out.rstrip("\n") == experiments.table1()

    def test_serialized_rows(self, capsys):
        code, out, _ = run(capsys, "table1", "--serialize", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 5
        assert doc["rows"][0]["sigma_over_x0"] == pytest.approx(0.3593,
                                                                abs=5e-5)


class TestSweep:
    def test_requires_family(self, capsys):
        code, _, err = run(capsys, "sweep", "--du", "3:4:3")
        assert code == 1
        assert "--family" in err

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "fixed-dv",
                           "--dv", "30", "--alpha", "1:3:3")
        assert code == 0
        meta_lines = [l for l in out.splitlines() if l.startswith("#")]
        assert any("family = extended_fixed_dV" in l for l in meta_lines)
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        assert len(rows) == 3
        spec = experiments.SweepSpec("extended_fixed_dV", 1.0, 3.0, 3,
                                     fixed={"delta_v": 30.0, "x0": 1.0})
        expect = experiments.run_sweep(spec)
        for rec, row in zip(rows, expect):
            # serialization keeps 12 significant digits
            assert float(rec["splitting_exact"]) == pytest.approx(
                row.splittings["exact"], rel=1e-11)
            assert float(rec["width"]) == pytest.approx(row.width, rel=1e-11)
            assert rec["failures"] == ""

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "simple-du",
                           "--du", "3:4:2", "--methods", "localization",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["family"] == "simple_gaussian_dU"
        assert doc["meta"]["n_points"] == 2
        assert [r["swept_value"] for r in doc["rows"]] == [3.0, 4.0]
        assert doc["rows"][0]["splitting_exact"] is None
        assert doc["rows"][0]["splitting_localization"] > 0

    def test_high_barrier_rows_are_resolved(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "simple-du",
                           "--du", "300:500:3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["splitting_exact"] > 0 and not r["failures"]
                   for r in rows)

    def test_quartic_family(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "quartic-du",
                           "--du", "2:4:2", "--methods", "exact",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row["sigma"] is None
            assert row["delta_v"] > row["delta_u"]

    def test_relerr_below_resolution_prints_zero(self, capsys):
        # at du = 60 and 210 the raw relative error of the bound is about
        # -2e-16, rounding noise of two values resolved to ~1e-12
        code, out, _ = run(capsys, "sweep", "--family", "quartic-du",
                           "--du", "30:300:10", "--methods",
                           "exact,localization")
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = {float(r["swept_value"]): r
                for r in csv.DictReader(io.StringIO(body))}
        assert rows[60.0]["relerr_localization"] == "0"
        assert rows[210.0]["relerr_localization"] == "0"
        assert not any(r["relerr_localization"].startswith("-")
                       for r in rows.values())

    def test_relerr_cells_are_rounded_to_1e_12(self, capsys, default_sweeps):
        spec, expect, _ = default_sweeps["du_sweep.json"]
        code, out, _ = run(capsys, "sweep", "--family", "simple-du", "--du",
                           f"{spec.start}:{spec.stop}:{spec.n_points}",
                           "--allow-out-of-range")
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        for rec, row in zip(csv.DictReader(io.StringIO(body)), expect):
            for method in ("localization", "wkb"):
                cell = float(rec[f"relerr_{method}"])
                assert abs(cell - row.rel_errors[method]) <= 5.0001e-13
                assert cell == round(cell, 12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, "sweep", "--family", "fixed-dv",
                             "--dv", "15", "--alpha", "1:2:3",
                             "-o", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_width_failure_stays_in_its_row(self, capsys):
        # at dV = 15 the half-height crossing leaves (0, x0) for large
        # alpha; those rows lose their width and name why, the sweep
        # carries on
        code, out, _ = run(capsys, "sweep", "--family", "fixed-dv",
                           "--dv", "15", "--alpha", "1:30:4",
                           "--allow-out-of-range", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["width"] is None for r in rows] == [False, False, True, True]
        assert all(r["splitting_exact"] > 0 for r in rows)
        assert ["width=RootBracketError: no sign change" in r["failures"]
                for r in rows] == [False, False, True, True]
        # the message holds commas; the CSV cell quotes them
        code, out, _ = run(capsys, "sweep", "--family", "fixed-dv",
                           "--dv", "15", "--alpha", "1:30:4",
                           "--allow-out-of-range")
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        records = list(csv.DictReader(io.StringIO(body)))
        assert [r["failures"] for r in records] == [r["failures"] for r in rows]
        assert all(None not in r for r in records)

    @pytest.mark.parametrize("argv, unread", [
        (("--family", "simple-du", "--du", "2:3:2", "--dv", "30",
          "--alpha", "1:2:3"), ("--alpha", "--dv")),
        (("--family", "fixed-dv", "--dv", "30", "--alpha", "1:2:2",
          "--du", "1:5:3"), ("--du",)),
        (("--family", "quartic-du", "--du", "2:3:2",
          "--allow-out-of-range"), ("--allow-out-of-range",)),
    ], ids=["simple-du", "fixed-dv", "quartic-du"])
    def test_rejects_flags_the_family_does_not_read(self, capsys, argv,
                                                    unread):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 1 and out == ""
        assert all(flag in err for flag in unread), err

    def test_lost_width_alone_keeps_exit_code_zero(self, capsys):
        sigma = models.sigma_for_delta_v(15.0, 30.0)
        code, out, _ = run(capsys, "split", "--sigma", repr(sigma),
                           "--alpha", "30", "--methods", "exact,localization")
        assert code == 0
        doc = json.loads(out)
        assert doc["width"] is None
        assert list(doc["failures"]) == ["width"]
        assert set(doc["splittings"]) == {"exact", "localization"}


class TestProfile:
    def test_requires_grid(self, capsys):
        code, _, err = run(capsys, "profile", "--sigma", "0.3")
        assert code == 1
        assert "--grid" in err

    @pytest.mark.parametrize("argv", [
        ("--grid", "2:inf:2", "--quartic", "--du", "0.05"),
        ("--grid", "-inf:1:3", "--sigma", "0.3"),
    ], ids=["inf-stop", "inf-start"])
    def test_rejects_non_finite_grid_ends(self, capsys, argv):
        code, out, err = run(capsys, "profile", *argv)
        assert (code, out) == (1, "")
        assert "--grid" in err and "finite" in err

    def test_non_finite_curve_is_a_numerical_failure(self, capsys):
        # the closed forms overflow far out; numpy's overflow warnings stay
        # silent and the one error names the column and x
        for argv, where in [
                (("--sigma", "0.3", "--grid", "0:1e200:3"), "5e+199"),
                (("--grid", "0.9:1e300:3", "--quartic", "--du", "1e5"),
                 "5e+299")]:
            code, out, err = run(capsys, "profile", *argv)
            assert (code, out) == (2, "")
            assert err == ("dwsplit: numerical failure: meanfield[1] is not "
                           f"finite at x = {where}\n")

    def test_negative_grid_start_parses(self, capsys):
        code, out, _ = run(capsys, "profile", "--sigma", "0.3593",
                           "--grid", "-1.5:1.5:7")
        assert code == 0
        lines = out.splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("grid = -1.5:1.5:7" in l for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        cols = header.split(",")
        assert cols[0] == "x"
        assert "meanfield[1]" in cols and "quantum[2]" in cols
        assert "quantum_parabola_left[6]" in cols
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == 7
        assert body[0].split(",")[0] == "-1.5"

    def test_quartic_profile(self, capsys):
        code, out, _ = run(capsys, "profile", "--quartic", "--du", "5",
                           "--grid", "-1.5:1.5:601", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 601
        # barrier with three minima: quantum potential dips at the origin
        mid = doc["rows"][300]
        assert mid["x"] == 0.0
        assert mid["quantum[2]"] == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("flag, value", [("--sigma", "0.3"),
                                             ("--alpha", "3")])
    def test_quartic_profile_rejects_two_gaussian_flags(self, capsys, flag,
                                                        value):
        code, out, err = run(capsys, "profile", "--quartic", "--du", "5",
                             flag, value, "--grid", "0:1:2")
        assert code == 1
        assert out == ""
        assert flag in err

    def test_family_profiles(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "fixed-dv",
                           "--dv", "30", "--alpha-list", "1,2,3",
                           "--grid", "0:1:5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["column.1"] == "quantum (alpha=1)"
        assert doc["meta"]["column.3"] == "quantum (alpha=3)"

    def test_fixed_dv_family_allows_out_of_range(self, capsys):
        # dV = 5 at alpha = 1 puts sigma/x0 at 0.56, above the band
        argv = ("profile", "--family", "fixed-dv", "--dv", "5",
                "--alpha-list", "1", "--grid", "0:1:3")
        code, _, err = run(capsys, *argv)
        assert code == 1 and "allow_out_of_range" in err
        code, out, _ = run(capsys, *argv, "--allow-out-of-range")
        assert code == 0
        assert out.splitlines()[-1].split(",")[0] == "1"

    def test_family_rejects_x0(self, capsys):
        code, out, err = run(capsys, "profile", "--family", "quartic-family",
                             "--du-list", "5", "--x0", "2", "--grid", "0:1:3")
        assert code == 1 and out == ""
        assert "--x0" in err

    @pytest.mark.parametrize("argv, unread", [
        (("--family", "quartic-family", "--du-list", "1,3", "--alpha", "3",
          "--sigma", "0.2"), ("--alpha", "--sigma")),
        (("--family", "fixed-dv", "--dv", "30", "--alpha-list", "1,2",
          "--alpha", "3", "--sigma", "0.2", "--du", "4"),
         ("--alpha", "--du", "--sigma")),
        (("--family", "shape", "--sigma-list", "0.3", "--quartic"),
         ("--quartic",)),
        (("--sigma", "0.3", "--du-list", "1"), ("--du-list",)),
    ], ids=["quartic-family", "fixed-dv", "shape", "two-gaussian"])
    def test_rejects_flags_the_mode_does_not_read(self, capsys, argv, unread):
        code, out, err = run(capsys, "profile", *argv, "--grid", "0:1:2")
        assert code == 1 and out == ""
        assert all(flag in err for flag in unread), err

    def test_family_flag_validation(self, capsys):
        code, _, err = run(capsys, "profile", "--family", "shape",
                           "--grid", "0:1:5")
        assert code == 1
        assert "sigma-list" in err


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("family = fixed-dv\n"
                       "dv = 15\n"
                       "alpha = 1:2:3\n"
                       "methods = localization\n"
                       "# comment line\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["fixed.delta_v"] == 15.0
        assert doc["meta"]["methods"] == "localization"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("family = fixed-dv\ndv = 15\nalpha = 1:2:3\n"
                       "methods = localization\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--dv", "30", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["fixed.delta_v"] == 30.0

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "frobnicate" in err

    def test_bad_choice_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = nonsense\ndu = 3:4:2\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "invalid choice: 'nonsense'" in err

    def test_bad_format_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(capsys, "split", "--sigma", "0.3593",
                             "--config", str(cfg))
        assert code == 1 and out == ""
        assert "invalid choice: 'xml'" in err

    def test_switch_values(self, tmp_path, capsys):
        cfg = tmp_path / "switch.cfg"
        cfg.write_text("allow_out_of_range = maybe\n")
        code, out, err = run(capsys, "split", "--sigma", "0.9",
                             "--methods", "localization", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "allow-out-of-range" in err and "'maybe'" in err
        for value, expected in (("Yes", 0), ("off", 1)):
            cfg.write_text(f"allow-out-of-range = {value}\n")
            code, _, _ = run(capsys, "split", "--sigma", "0.9", "--methods",
                             "localization", "--config", str(cfg))
            assert code == expected, value

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "simple-du",
                           "--du", "3:4:2", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "cannot read config" in err


class TestOutputFiles:
    def test_writes_to_path(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "split", "--sigma", "0.3593",
                           "-o", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["splittings"]["exact"] > 0

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "table1", "--serialize",
                           "-o", "/nonexistent-dir/out.csv")
        assert code == 2
        assert "i/o" in err
