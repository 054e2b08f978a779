"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import resilient_consensus as pkg
from perfbench import checks, harness, workloads

ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _expected_pins():
    return json.loads((ROOT / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def _run_tiny_matrix(pins):
    workload = workloads.build("scenario_matrix", 0, pkg.BUNDLED_SCENARIOS, tiny=True)
    checker = checks.Checker(pkg, pins)
    with tempfile.TemporaryDirectory() as out_dir:
        (records,) = harness.measure(pkg, workload, 0.0, out_dir, checker)
    return {op.name: r.failures for op, r in zip(workload.passes[0], records)}


def test_correct_pins_pass():
    assert not any(_run_tiny_matrix(_expected_pins()).values())


@pytest.mark.parametrize("field, wrong", [
    ("c", lambda c: c * (1 + 1e-6)),
    ("verdict", lambda v: ["DESTABILIZE"] + v[1:]),
])
def test_planted_wrong_expectation_counts_as_failure(field, wrong):
    pins = copy.deepcopy(_expected_pins())
    victim = workloads.TINY_MATRIX[1]
    pins[victim][field] = wrong(pins[victim][field])
    failures = _run_tiny_matrix(pins)
    assert [name for name, msgs in failures.items() if msgs] == [victim]
