"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests execute one short run per workload twice, about a
minute in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import COUNT_UNITS, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert set(first["metrics"]) == set(PER_LAYER)
    counts = {n for n, u in PER_LAYER.items() if u in COUNT_UNITS}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determines_inputs(workload):
    assert make_ops(workload, 5) == make_ops(workload, 5)
    assert make_ops(workload, 5) != make_ops(workload, 6)


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
