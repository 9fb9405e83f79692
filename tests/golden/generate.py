"""Regenerate the golden sweep and profile files.

Run from the repository root:

    python tests/golden/generate.py            # every golden file
    python tests/golden/generate.py profiles   # profiles.json only

The published reference curves carry no tabulated numbers, so the
anchor values are produced by this package itself and frozen after a
cross-check of the exact splittings against the independent
finite-difference oracle (three-point Laplacian, 100k grid points).
The cross-check results are recorded in each file's meta block.
``profiles.json`` holds what ``dwsplit profile`` prints for
PROFILE_COMMANDS: exit code, meta (without the version), header and
values.
Regenerate only after an intentional change of the numerics, and check
the diff of the resulting values.
"""

import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from helpers import fd_lowest, read_profile_output  # noqa: E402

from dwsplit import cli, experiments, models  # noqa: E402

# every profile mode; --allow-out-of-range is accepted and has no effect
PROFILE_COMMANDS = (
    ("--family", "quartic-family", "--du-list", "1,3", "--grid", "0:1:3",
     "--format", "json"),
    ("--family", "shape", "--sigma-list", "0.3,0.4", "--alpha", "2",
     "--grid", "0:1.5:4"),
    ("--family", "fixed-dv", "--dv", "30", "--alpha-list", "1,2,3",
     "--grid", "-1.5:1.5:601"),
    ("--family", "fixed-dv", "--dv", "5", "--alpha-list", "1",
     "--grid", "0:1:3"),
    ("--family", "fixed-dv", "--dv", "5", "--alpha-list", "1",
     "--grid", "0:1:3", "--allow-out-of-range"),
    ("--quartic", "--du", "5", "--grid", "-1.5:1.5:601"),
    ("--sigma", "0.3593", "--grid", "-1.5:1.5:601", "--format", "json"),
    ("--sigma", "0.7", "--alpha", "1.5", "--x0", "1.2",
     "--allow-out-of-range", "--grid", "-2:2:41"),
)


def _round(v):
    return None if v is None else float(f"{v:.12g}")


def _freeze(spec, rows, cross_checks, path):
    out = {
        "meta": {
            "generator": "tests/golden/generate.py",
            "family": spec.family,
            "start": spec.start,
            "stop": spec.stop,
            "n_points": spec.n_points,
            "fixed": dict(spec.fixed),
            "methods": list(spec.methods),
            "fd_cross_check_rel": cross_checks,
        },
        "rows": [
            {
                "swept_value": _round(r.swept_value),
                "sigma": _round(r.sigma),
                "delta_u": _round(r.delta_u),
                "delta_v": _round(r.delta_v),
                "width": _round(r.width),
                "splittings": {k: _round(v) for k, v in r.splittings.items()},
            }
            for r in rows
        ],
    }
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _cross_check(rows, indices):
    checks = {}
    for i in indices:
        row = rows[i]
        model = models.TwoGaussianModel(sigma=row.sigma, alpha=row.alpha)
        dv = lambda x: models.quantum_potential_closed(model, x)
        # box wide enough that the Dirichlet wall sits in negligible tail
        halfwidth = max(4.0, model.x0 + 10.0 * model.sigma)
        fd = fd_lowest(dv, halfwidth=halfwidth)
        split = row.splittings["exact"]
        rel = abs((fd[1] - fd[0]) - split) / split
        checks[f"row_{i}"] = float(f"{rel:.3g}")
        # the grid oracle floors out near 1e-7 absolute (roundoff on the
        # 2/h^2 diagonal), so small splittings get a looser gate
        assert rel < max(2e-6, 3e-7 / split), (i, rel)
    return checks


def _run_profile(argv):
    """(exit code, stdout) of ``dwsplit profile *argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["profile", *argv])
    return code, out.getvalue()


def _freeze_profiles(path):
    entries = []
    for argv in PROFILE_COMMANDS:
        code, text = _run_profile(argv)
        entry = {"argv": list(argv), "exit_code": code}
        if code == 0:
            entry["meta"], entry["header"], entry["values"] = \
                read_profile_output(text)
        entries.append(entry)
    doc = {"meta": {"generator": "tests/golden/generate.py"},
           "commands": entries}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(entries)} commands)")


def main(names=()):
    here = pathlib.Path(__file__).resolve().parent
    _freeze_profiles(here / "profiles.json")
    if names == ["profiles"]:
        return

    spec = experiments.default_du_sweep()
    rows = experiments.run_sweep(spec)
    assert not any(r.failures for r in rows)
    checks = _cross_check(rows, [0, 20, 39])
    _freeze(spec, rows, checks, here / "du_sweep.json")

    for dv in (30.0, 15.0):
        spec = experiments.default_width_sweep(dv)
        rows = experiments.run_sweep(spec)
        assert not any(r.failures for r in rows)
        checks = _cross_check(rows, [0, len(rows) - 1])
        _freeze(spec, rows, checks, here / f"width_sweep_dv{dv:.0f}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
