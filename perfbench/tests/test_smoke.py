"""Tiny end-to-end runs of the benchmark command: every workload untraced,
one traced, and the refusal to run without the program's source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload, trace, names", [
    ("delta-1pct", "0", END_TO_END),
    ("delta-5pct", "0", END_TO_END),
    ("delta-1pct", "1", PER_LAYER),
])
def test_tiny_run(workload, trace, names):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "delta-1pct", "--seed", "0", "--seconds", "2", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
