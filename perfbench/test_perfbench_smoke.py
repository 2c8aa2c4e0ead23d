"""Miniature end-to-end run of the benchmark itself.

Each workload runs in ``--smoke`` size (one target, one scheme, four service
jobs) with its correctness gate on; the output must carry exactly the
metrics ``BENCHMARK.json`` declares.  A copy holding only the benchmark (no
program sources) must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("attack", 0), ("matrix", 0), ("service", 0), ("matrix", 1), ("service", 1)],
)
def test_smoke_run_reports_declared_metrics(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) >= {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert detail["seed"] == 5 and detail["metadata"]["cpu_count"] >= 1


def test_default_seed_matches_pins():
    proc = run_bench("--workload", "matrix", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_without_program_sources_fails_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "attack", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
