"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a source checkout:

    python3 -m pytest -q bench/test_bench.py

Each test runs bench/run.py the way it is meant to be run, with
``--scale 0.01`` so a run takes a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = ["tall", "wide", "noisy"]
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def run(workload: str, trace: int, root: str = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "0.01"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


def test_gated_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0
        assert re.search(rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}$", proc.stdout, re.M)
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert re.search(r"^calibration: \d+ kernel runs, median \S+ s", proc.stdout, re.M)
    assert re.search(r"^unscaled train_s \S+ s$", proc.stdout, re.M)
    assert re.search(r"^error_rate 0 ratio ", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_and_rule_files_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    a, b = result_of(first), result_of(second)
    assert [m["name"] for m in SPEC["per_layer"]] == list(a["metrics"])
    for metric in SPEC["per_layer"]:
        assert a["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in COUNTERS:
        assert a["metrics"][name]["value"] is not None, name
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    digests = re.compile(r"^instance seed .*: rule file sha256 \w+, flagged rows \d+$", re.M)
    assert digests.findall(first.stdout) == digests.findall(second.stdout)
    assert len(digests.findall(first.stdout)) == 3
    assert "trace.overhead base:" in first.stdout


def test_fails_without_the_program():
    """A directory that holds only BENCHMARK.json and the benchmark's files."""
    bare = os.path.join(ROOT, ".bench_out", "bare-selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = run("tall", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
