"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Runs every workload briefly in both modes and checks that the output
checks catch a golden splitting perturbed by 1e-5 relative.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "du_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_check_catches_perturbed_golden():
    full = workloads.sweep_grids("du_sweep", 0)[0]
    grid = workloads.Grid(full.spec, full.values[:3], full.golden[:3])
    (rows,), _ = workloads.run_pass([grid])
    assert workloads.check_rows(grid, rows) == []
    for method in grid.spec.methods:
        golden = json.loads(json.dumps(grid.golden))
        golden[1]["splittings"][method] *= 1.0 + 1e-5
        bad = workloads.check_rows(
            dataclasses.replace(grid, golden=golden), rows)
        assert [(i, m) for i, m, _ in bad] == [(1, method)]


def test_cli_check_catches_perturbed_reference():
    alpha, sigma = workloads.cli_model(0)
    reference = workloads.library_split(alpha, sigma)
    proc = subprocess.run(
        [sys.executable, "-m", "dwsplit.cli", *workloads.cli_args(0)],
        cwd=ROOT, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert workloads.check_cli(proc.returncode, proc.stdout, proc.stdout,
                               reference) == []
    for method in workloads.CLI_METHODS:
        perturbed = dict(reference)
        perturbed[method] *= 1.0 + 1e-5
        bad = workloads.check_cli(proc.returncode, proc.stdout, proc.stdout,
                                  perturbed)
        assert [m for m, _ in bad] == [method]
    assert len(workloads.check_cli(
        proc.returncode, proc.stdout, proc.stdout + b" ", reference)) == 3
