"""Command-line surface: split | sweep | table1 | profile.

All I/O uses reduced units (lengths in x0, energies in E_u, mean-field
potential in kT).  ``split`` and ``sweep`` serialize rows of
``experiments.evaluate`` as CSV (comma-separated, cells with a comma or a
quote quoted, metadata in ``#``-prefixed lines, LF line endings) or JSON
(``sweep``: "meta" and "rows"; ``split``: "meta", the row, its diagnostics
and the validity warnings).  Numbers are serialized with 12 significant
digits.

Exit codes: 0 success, 1 usage or parameter error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import __version__, experiments, models, numerics

UNIT_NOTE = """\
Reduced units: lengths in x0 (half the well separation), energies in
E_u = hbar^2 / (2 m x0^2), mean-field potential U in kT.  For scale: a
hydrogen atom tunneling between wells 1 Angstrom apart (x0 = 0.5 A) has
E_u ~ 0.8 kJ/mol ~ 67 cm^-1; splittings in E_u units translate
accordingly.  The diffusion picture fixes m = hbar / (2 D).
"""

SWEEP_COLUMNS = (
    "swept_value", "x0", "sigma", "alpha", "delta_u", "delta_v",
    "width", "overlap", "splitting_exact", "splitting_localization",
    "splitting_wkb", "relerr_localization", "relerr_wkb", "failures",
)

SPLIT_COLUMNS = ("alpha", "sigma", "x0", "delta_u", "delta_v", "width",
                 "overlap", "splitting_exact", "splitting_localization",
                 "splitting_wkb", "failures")

_FAMILY_TAGS = {
    "simple-du": "simple_gaussian_dU",
    "fixed-dv": "extended_fixed_dV",
    "quartic-du": "quartic_dU",
}


# Per sweep family and profile mode: the flags it needs, and the others it
# reads of those that some mode ignores (see _check_mode).
_SWEEP_MODES = {
    "--family simple-du": (("du",), ("x0", "allow_out_of_range")),
    "--family quartic-du": (("du",), ("x0",)),
    "--family fixed-dv": (("dv", "alpha"), ("x0", "allow_out_of_range")),
}
_PROFILE_MODES = {
    "--family quartic-family": (("du_list",), ()),
    "--family shape": (("sigma_list",), ("alpha", "allow_out_of_range")),
    "--family fixed-dv": (("dv", "alpha_list"), ("allow_out_of_range",)),
    "--quartic": (("du",), ("quartic", "x0")),
    "--sigma": ((), ("sigma", "alpha", "x0", "allow_out_of_range")),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1.

    Also widens the negative-number heuristic so range values with a
    leading minus (``--grid -1.5:1.5:601``) and ``-inf``/``-nan`` parse
    as arguments.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d*\.?\d+|inf|infinity|nan)(:|$)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_range(text: str) -> tuple[float, float, int]:
    """start:stop:n with n an integer >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:n, got {text!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"need n >= 2 points, got {n}")
    return start, stop, n


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_cell(value) -> str:
    """_fmt(value), quoted as in RFC 4180 when it holds a comma or a quote."""
    text = _fmt(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _relerr(value):
    """value rounded to 1e-12 absolute, the resolution of (v - exact)/exact
    when both are resolved to ~1e-12 relative; -0.0 becomes 0.0."""
    return None if value is None else round(value, 12) + 0.0


def _sweep_row_record(row: experiments.SweepRow) -> dict:
    return {
        "swept_value": row.swept_value, "x0": row.x0, "sigma": row.sigma,
        "alpha": row.alpha, "delta_u": row.delta_u, "delta_v": row.delta_v,
        "width": row.width, "overlap": row.overlap,
        "splitting_exact": row.splittings.get("exact"),
        "splitting_localization": row.splittings.get("localization"),
        "splitting_wkb": row.splittings.get("wkb"),
        "relerr_localization": _relerr(row.rel_errors.get("localization")),
        "relerr_wkb": _relerr(row.rel_errors.get("wkb")),
        "failures": "|".join(f"{k}={v}" for k, v in row.failures.items()),
    }


def _emit(args, columns, records, meta) -> None:
    """Serialize records to args.output (or stdout) in args.format."""
    if args.format == "csv":
        lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
        lines.append(",".join(columns))
        lines.extend(",".join(_csv_cell(rec[c]) for c in columns)
                     for rec in records)
        text = "\n".join(lines) + "\n"
    else:
        rows = [_round12({c: r[c] for c in columns}) for r in records]
        text = json.dumps({"meta": _round12(meta), "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """Write text to args.output, or to stdout when no path is given."""
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_meta(command: str, **extra) -> dict:
    meta = {"package": "dwsplit", "version": __version__, "command": command}
    meta.update(extra)
    return meta


def cmd_split(args) -> int:
    if (args.dv is None) != (args.width is None):
        raise _usage_error("--dv and --width must be given together")
    if args.dv is not None:
        if args.sigma is not None:
            raise _usage_error("give either --sigma or --dv/--width")
        if args.alpha is not None:
            raise _usage_error("--dv/--width solve for alpha; drop --alpha")
        model = models.solve_parameters(args.dv, args.width, x0=args.x0,
                                        allow_out_of_range=args.allow_out_of_range)
    else:
        if args.sigma is None:
            raise _usage_error("need --sigma (with --alpha) or --dv/--width")
        model = models.TwoGaussianModel(
            sigma=args.sigma, x0=args.x0,
            alpha=1.0 if args.alpha is None else args.alpha,
            allow_out_of_range=args.allow_out_of_range)

    row = experiments.evaluate(model, args.methods)
    meta = _base_meta("split")
    if args.format == "csv":
        _emit(args, SPLIT_COLUMNS, [_sweep_row_record(row)], meta)
    else:
        record = dataclasses.asdict(row)
        del record["swept_value"], record["rel_errors"]
        record["validity_warnings"] = list(model.validity_warnings)
        _write(args, json.dumps({"meta": _round12(meta), **_round12(record)},
                                indent=2, sort_keys=True) + "\n")
    if row.splittings:
        return 0
    print("all requested methods failed: "
          + "; ".join(f"{k}: {v}" for k, v in row.failures.items()),
          file=sys.stderr)
    return 2


def cmd_sweep(args) -> int:
    if args.family is None:
        raise _usage_error("--family is required (simple-du, fixed-dv, "
                           "quartic-du), via flag or config file")
    _check_mode(args, _SWEEP_MODES, f"--family {args.family}")
    family = _FAMILY_TAGS[args.family]
    fixed = {"x0": args.x0}
    if family == "extended_fixed_dV":
        start, stop, n = args.alpha
        fixed["delta_v"] = args.dv
    else:
        start, stop, n = args.du
    spec = experiments.SweepSpec(
        family=family, start=start, stop=stop, n_points=n, fixed=fixed,
        methods=args.methods, allow_out_of_range=args.allow_out_of_range)
    rows = experiments.run_sweep(spec)
    meta = _base_meta(
        "sweep", family=family, start=start, stop=stop, n_points=n,
        methods=",".join(spec.methods),
        **{f"fixed.{k}": v for k, v in sorted(fixed.items())})
    _emit(args, SWEEP_COLUMNS, [_sweep_row_record(r) for r in rows], meta)
    return 0


def cmd_table1(args) -> int:
    if args.output is None and not args.serialize:
        print(experiments.table1(args.dv))
        return 0
    rows = experiments.table1_rows(args.dv)
    columns = [f.name for f in dataclasses.fields(experiments.Table1Row)]
    records = [dataclasses.asdict(r) for r in rows]
    meta = _base_meta("table1", delta_v=args.dv)
    _emit(args, columns, records, meta)
    return 0


def cmd_profile(args) -> int:
    if args.grid is None:
        raise _usage_error("--grid START:STOP:N is required, via flag or "
                           "config file")
    start, stop, n = args.grid
    if not np.isfinite([start, stop]).all():
        raise _usage_error("--grid needs finite START and STOP")
    if not start < stop:
        raise _usage_error("grid start must be below stop")
    grid = np.linspace(start, stop, n)
    alpha = 1.0 if args.alpha is None else args.alpha
    if args.family is not None:
        mode = f"--family {args.family}"
    elif args.quartic:
        mode = "--quartic"
    elif args.sigma is None:
        raise _usage_error(
            "need --sigma (two-Gaussian), --quartic --du, or --family")
    else:
        mode = "--sigma"
    _check_mode(args, _PROFILE_MODES, mode)
    # a curve that overflows is named by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if args.family == "quartic-family":
            profiles = experiments.quartic_family_profiles(args.du_list, grid)
        elif args.family == "shape":
            profiles = experiments.shape_family_profiles(
                args.sigma_list, grid, alpha=alpha,
                allow_out_of_range=args.allow_out_of_range)
        elif args.family == "fixed-dv":
            profiles = experiments.fixed_dv_family_profiles(
                args.dv, args.alpha_list, grid,
                allow_out_of_range=args.allow_out_of_range)
        elif args.quartic:
            profiles = experiments.emit_profiles(
                models.QuarticMeanFieldModel(du=args.du, x0=args.x0), grid)
        else:
            model = models.TwoGaussianModel(
                sigma=args.sigma, x0=args.x0, alpha=alpha,
                allow_out_of_range=args.allow_out_of_range)
            profiles = experiments.emit_profiles(model, grid)

    meta = _base_meta("profile", grid=f"{start:g}:{stop:g}:{n}")
    for i, p in enumerate(profiles):
        meta[f"column.{i + 1}"] = f"{p.kind} ({p.label})"
    columns = ["x"] + [f"{p.kind}[{i + 1}]" for i, p in enumerate(profiles)]
    for column, p in zip(columns[1:], profiles):
        bad = ~np.isfinite(p.values)
        if bad.any():
            raise numerics.NumericsError(
                f"{column} is not finite at x = {grid[bad.argmax()]:.12g}")
    records = []
    for j, x in enumerate(grid):
        rec = {"x": float(x)}
        for i, p in enumerate(profiles):
            rec[f"{p.kind}[{i + 1}]"] = float(p.values[j])
        records.append(rec)
    _emit(args, columns, records, meta)
    return 0


def _check_mode(args, modes: dict, mode: str) -> None:
    """Usage error for a flag that mode needs but that is at its default,
    or for flags of the table that mode does not read but that are off
    theirs.  The flags outside the table are read in every mode."""
    defaults = vars(build_parser().parse_args([args.command]))
    needs, reads = modes[mode]
    table = {k for flags in modes.values() for k in flags[0] + flags[1]}
    given = {k for k in table if getattr(args, k) != defaults[k]}
    for problem, flags in (("requires", [k for k in needs if k not in given]),
                           ("does not read", sorted(given - {*needs, *reads}))):
        if flags:
            raise _usage_error(f"{mode} {problem} " + ", ".join(
                "--" + k.replace("_", "-") for k in flags))


def _usage_error(message: str) -> SystemExit:
    print(f"dwsplit: error: {message}", file=sys.stderr)
    return SystemExit(1)


def _add_common_output(sub, default_format: str) -> None:
    sub.add_argument("-o", "--output", default=None,
                     help="output file (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "json"),
                     default=default_format, help="serialization format")
    sub.add_argument("--config", default=None,
                     help="plain-text defaults file with key = value lines; "
                          "explicit flags win")


def build_parser():
    parser = _Parser(
        prog="dwsplit",
        description="Tunneling splitting of one-dimensional symmetric "
                    "double wells via exact diagonalization, a "
                    "localization-function bound, and a WKB baseline.")
    parser.add_argument("--unit-doc", action="store_true",
                        help="print the reduced-unit conversion note and exit")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    split = subs.add_parser("split", help="splitting of one model")
    split.add_argument("--alpha", type=float, default=None,
                       help="shape exponent with --sigma (default 1)")
    split.add_argument("--sigma", type=float, default=None,
                       help="Gaussian width in x0 units")
    split.add_argument("--x0", type=float, default=1.0)
    split.add_argument("--dv", type=float, default=None,
                       help="target quantum barrier height (with --width)")
    split.add_argument("--width", type=float, default=None,
                       help="target barrier width in x0 units (with --dv)")
    split.add_argument("--methods", type=lambda s: tuple(s.split(",")),
                       default=experiments.METHODS,
                       help="comma list from exact,localization,wkb")
    split.add_argument("--allow-out-of-range", action="store_true")
    _add_common_output(split, "json")
    split.set_defaults(func=cmd_split)

    sweep = subs.add_parser("sweep", help="parameter sweep to CSV/JSON")
    # not argparse-required so a config file may supply it; checked in cmd_sweep
    sweep.add_argument("--family", choices=tuple(_FAMILY_TAGS), default=None)
    sweep.add_argument("--du", type=_parse_range,
                       default=None, metavar="START:STOP:N",
                       help="dU range for simple-du / quartic-du")
    sweep.add_argument("--alpha", type=_parse_range,
                       default=None, metavar="START:STOP:N",
                       help="alpha range for fixed-dv")
    sweep.add_argument("--dv", type=float, default=None,
                       help="fixed quantum barrier height for fixed-dv")
    sweep.add_argument("--x0", type=float, default=1.0)
    sweep.add_argument("--methods", type=lambda s: tuple(s.split(",")),
                       default=experiments.METHODS,
                       help="comma list from exact,localization,wkb")
    sweep.add_argument("--allow-out-of-range", action="store_true")
    _add_common_output(sweep, "csv")
    sweep.set_defaults(func=cmd_sweep)

    table = subs.add_parser("table1", help="fixed-dV parameter table")
    table.add_argument("--dv", type=float, default=experiments.TABLE1_DELTA_V)
    table.add_argument("--serialize", action="store_true",
                       help="emit CSV/JSON instead of the formatted table")
    _add_common_output(table, "csv")
    table.set_defaults(func=cmd_table1)

    profile = subs.add_parser("profile", help="potential profiles on a grid")
    profile.add_argument("--grid", type=_parse_range, default=None,
                         metavar="START:STOP:N")
    profile.add_argument("--quartic", action="store_true",
                         help="quartic mean-field model (needs --du)")
    profile.add_argument("--du", type=float, default=None)
    profile.add_argument("--alpha", type=float, default=None,
                         help="shape exponent of the two-Gaussian and "
                              "shape modes (default 1)")
    profile.add_argument("--sigma", type=float, default=None)
    profile.add_argument("--x0", type=float, default=1.0)
    profile.add_argument("--family",
                         choices=("quartic-family", "shape", "fixed-dv"),
                         default=None)
    profile.add_argument("--du-list", type=_parse_float_list, default=())
    profile.add_argument("--sigma-list", type=_parse_float_list, default=())
    profile.add_argument("--alpha-list", type=_parse_float_list, default=())
    profile.add_argument("--dv", type=float, default=None)
    profile.add_argument("--allow-out-of-range", action="store_true")
    _add_common_output(profile, "csv")
    profile.set_defaults(func=cmd_profile)
    return parser


def _config_flags(path: str, args) -> list[str]:
    """One --key=value per ``key = value`` line of a config file.

    A switch (a flag whose parsed value is a bool) becomes the bare flag
    for a true value and is dropped for a false one.  Everything else is
    left to argparse, which checks it as it checks the command line.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err}") from None
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ValueError(
                f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = key.strip().replace("-", "_"), val.strip()
        flag = "--" + key.replace("_", "-")
        # exact names only: argparse would also take an abbreviated flag
        if not hasattr(args, key):
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if not isinstance(getattr(args, key), bool):
            flags.append(f"{flag}={val}")
        elif val.lower() in ("true", "yes", "on", "1"):
            flags.append(flag)
        elif val.lower() not in ("false", "no", "off", "0"):
            raise ValueError(f"{path}:{lineno}: {flag} takes true/yes/on/1 or "
                             f"false/no/off/0, got {val!r}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.unit_doc:
            print(UNIT_NOTE, end="")
            return 0
        if args.command is None:
            parser.error("a subcommand is required (split, sweep, table1, "
                         "profile) unless --unit-doc is given")
        if getattr(args, "config", None):
            # config flags go right after the subcommand, so explicit flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(args.config, args) + argv[at:])
        return args.func(args)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
        return code
    except (argparse.ArgumentTypeError, ValueError) as err:
        print(f"dwsplit: error: {err}", file=sys.stderr)
        return 1
    except (ArithmeticError, numerics.NumericsError) as err:
        print(f"dwsplit: numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"dwsplit: i/o failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
