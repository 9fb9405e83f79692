"""Benchmark of the dwsplit library and CLI, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload du_sweep --seed 0 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  ``--trace 0`` prints the
end-to-end metrics: set-up time (median of fresh processes that import the
package and evaluate one warm-up point), sweep points (or CLI processes) per
second, median and tail latency per point (see ``tail``), and peak
resident memory.
``--trace 1`` prints the per-layer metrics: half of the time runs untraced,
half with spans around every call into a dwsplit module (see
``tracing.py``); the difference of the two median latencies is reported as
``trace.overhead_ms``.  Per-layer values are per pass: one sweep of the
workload's grid, or one CLI process.

Every output is checked (see ``workloads.check_rows`` and
``workloads.check_cli``).  ``attempted`` counts method evaluations and
``failed`` those that failed a check, so failed/attempted is the failure
fraction.  The last line of stdout is the JSON result; the lines before it
and ``bench/out/`` record the machine, sample counts and tail percentile,
and the spans of traced runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90.0


class BenchError(RuntimeError):
    """The benchmark cannot run or measure here."""


def tail(samples):
    """(value, percentile) of the tail latency, by nearest rank.

    p90 when at least TAIL_BEYOND samples lie beyond it, otherwise the
    highest percentile that has TAIL_BEYOND beyond it, but never below the
    median.  Higher percentiles are not used: on a small shared machine the
    few slowest of ~1000 points measure stalls of the machine, not of the
    program, and swing by 20 % between identical runs.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(TAIL_PERCENTILE / 100.0 * n),
               max(n - TAIL_BEYOND, math.ceil(n / 2)))
    return ordered[rank - 1], 100.0 * rank / n


def closed_loop(step, seconds):
    """Call step() back to back while the next call is expected to end
    within ``seconds``; at least once.  Returns the durations in s."""
    durations = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        spent = sum(durations)
        if spent + spent / len(durations) > seconds:
            return durations


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv):
    """Run one process to completion; (seconds, returncode, stdout, stderr)."""
    t = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, timeout=120)
    return time.perf_counter() - t, proc.returncode, proc.stdout, proc.stderr


def machine_info():
    import ctypes
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        if "numpy" not in path:
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = int(getattr(lib, name)())
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "platform": platform.platform(),
    }


def import_package():
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dwsplit
    import workloads

    if pathlib.Path(dwsplit.__file__).resolve().parent != SRC / "dwsplit":
        raise BenchError(f"imported dwsplit from {dwsplit.__file__}, "
                         f"not from {SRC}")
    return workloads


def setup_times(argv):
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, code, _, err = run_child(argv)
        if code != 0:
            raise BenchError(f"set-up process failed ({code}): "
                             f"{err.decode(errors='replace')[-2000:]}")
        times.append(seconds)
    return times


def end_to_end(latencies, points, busy, who):
    """Throughput, median and tail latency (latencies in s) and peak RSS
    of ``who`` (resource.RUSAGE_SELF or RUSAGE_CHILDREN)."""
    value, pct = tail(latencies)
    return {
        "points_per_s": points / busy,
        "point_ms_p50": statistics.median(latencies) * 1e3,
        "point_ms_tail": value * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }, pct


def sweep_workload(args, workloads, report):
    grids = workloads.sweep_grids(args.workload, args.seed)
    n_points = sum(len(g.values) for g in grids)
    methods = sum(len(g.values) * len(g.spec.methods) for g in grids)
    failures, first_splits, latencies = [], [], []

    def one_pass(on_point=None):
        rows, lat = workloads.run_pass(grids, on_point)
        for grid, out in zip(grids, rows):
            failures.extend(workloads.check_rows(grid, out))
        splits = [r.splittings for out in rows for r in out]
        if not first_splits:
            first_splits.append(splits)
        elif splits != first_splits[0]:
            failures.append((-1, "all", "splittings differ between passes"))
        latencies.extend(t / 1e9 for t in lat)

    workloads.warm_up(args.workload, args.seed)
    passes = closed_loop(one_pass, args.seconds / 2 if args.trace
                         else args.seconds)
    untraced = list(latencies)
    report["samples"] = len(untraced)
    if args.trace:
        tracer = tracing.Tracer()
        pass_no = len(passes)

        def on_point(g, i):
            tracer.trace_id = f"{pass_no}.{g}.{i}"

        def traced_pass():
            nonlocal pass_no
            pass_no += 1
            tracer.trace_id = f"{pass_no}"
            one_pass(on_point)

        del latencies[:]
        undo = tracing.install(tracer)
        try:
            traced = closed_loop(traced_pass, args.seconds - sum(passes))
        finally:
            undo()
        metrics = tracing.layer_metrics(tracer.stats, len(traced))
        metrics["trace.overhead_ms"] = (statistics.median(latencies)
                                        - statistics.median(untraced)) * 1e3
        report["spans"] = write_spans(args, tracer.spans)
        report["traced_samples"] = len(latencies)
        passes += traced
    else:
        metrics, report["tail_percentile"] = end_to_end(
            untraced, n_points * len(passes), sum(passes),
            resource.RUSAGE_SELF)
    report["passes"] = len(passes)
    report["attempted"] = methods * len(passes)
    report["failures"] = failures
    return metrics


def cli_workload(args, workloads, report):
    cli_argv = workloads.cli_args(args.seed)
    plain = [sys.executable, "-m", "dwsplit.cli", *cli_argv]
    outputs, latencies = [], []

    def invoke(argv):
        seconds, code, out, err = run_child(argv)
        outputs.append((code, out, err))
        latencies.append(seconds)

    # the first processes warm the file cache; they are the set-up samples
    for _ in range(1 if args.trace else SETUP_REPEATS):
        invoke(plain)
    report["setup_samples"] = list(latencies)
    del latencies[:]
    closed_loop(lambda: invoke(plain), args.seconds / 2 if args.trace
                else args.seconds)
    untraced = list(latencies)
    report["samples"] = len(untraced)
    if args.trace:
        stats = Counter()
        spans = []
        OUT.mkdir(exist_ok=True)
        child_out = OUT / f"cli-trace-{os.getpid()}.json"

        def traced_invoke():
            invoke([sys.executable, str(BENCH / "traced_cli.py"),
                    str(child_out), str(len(latencies)), *cli_argv])
            if outputs[-1][0] == 0:
                child = json.loads(child_out.read_text())
                basis_max = max(stats["exact.basis_max"],
                                child["stats"].pop("exact.basis_max", 0))
                stats.update(child["stats"])
                stats["exact.basis_max"] = basis_max
                spans.extend(child["spans"])

        del latencies[:]
        try:
            traced = closed_loop(traced_invoke, args.seconds / 2)
        finally:
            child_out.unlink(missing_ok=True)
        metrics = tracing.layer_metrics(stats, len(traced))
        metrics["trace.overhead_ms"] = (statistics.median(latencies)
                                        - statistics.median(untraced)) * 1e3
        report["spans"] = write_spans(args, spans)
        report["traced_samples"] = len(latencies)
    else:
        metrics, report["tail_percentile"] = end_to_end(
            untraced, len(untraced), sum(untraced), resource.RUSAGE_CHILDREN)
    reference = workloads.library_split(*workloads.cli_model(args.seed))
    first = outputs[0][1]
    failures = []
    for i, (code, out, err) in enumerate(outputs):
        failures.extend((i, m, why) for m, why in
                        workloads.check_cli(code, out, first, reference))
    report["passes"] = len(outputs)
    report["attempted"] = len(outputs) * len(workloads.CLI_METHODS)
    report["failures"] = failures
    return metrics


def write_spans(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(path, spans)
    return len(spans)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("du_sweep", "width_sweeps", "cli_split"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    goldens = ROOT / "tests" / "golden"
    if not (SRC / "dwsplit" / "__init__.py").is_file() or not goldens.is_dir():
        print(f"bench: no dwsplit sources under {SRC} or goldens under "
              f"{goldens}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


def run(args) -> int:
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    workloads = import_package()
    machine = machine_info()
    report["machine"] = machine
    if machine["blas_threads"] is not None and (
            machine["blas_threads"] > machine["nproc"]):
        raise BenchError(f"BLAS runs {machine['blas_threads']} threads on "
                         f"{machine['nproc']} processors")
    if args.workload != "cli_split" and not args.trace:
        probe = (f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; "
                 f"import workloads; "
                 f"workloads.warm_up({args.workload!r}, {args.seed})")
        report["setup_samples"] = setup_times([sys.executable, "-c", probe])
    if args.workload == "cli_split":
        metrics = cli_workload(args, workloads, report)
    else:
        metrics = sweep_workload(args, workloads, report)
    if not args.trace:
        metrics["setup_s"] = statistics.median(report["setup_samples"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = len(report["failures"])
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {report['passes']} passes, "
          f"{report['samples']} samples"
          + (f", tail = p{report['tail_percentile']:.4g}"
             if "tail_percentile" in report else ""))
    print(f"failed_frac = {failed / report['attempted']:.6g} "
          f"({failed} of {report['attempted']} method evaluations)")
    for point, method, why in report["failures"][:20]:
        print(f"  FAILED {method} at point {point}: {why}")
    if args.trace:
        print("exact.eig_flops_computed and exact.bytes_computed are computed "
              "from basis sizes, not measured")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
