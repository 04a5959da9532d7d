"""Tier-1 smoke test of the end-to-end benchmark (``--quick``, 1/20 scale).

Runs the one command as the driver does and checks the contract: every
metric named in ``BENCHMARK.json`` is emitted with its unit, no operation
fails against the oracle, the hot workload hits the cache and the cold
one misses it, and no server process or work directory is left behind.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "benchmarks" / "e2e" / "run.py")]
    command += ["--workload", workload, "--seed", "7", "--seconds", "1"]
    command += ["--trace", str(trace), "--quick"]
    options = {"capture_output": True, "text": True, "cwd": root, "timeout": 170}
    return subprocess.run(command, **options)


def leftovers() -> list[str]:
    """Server processes of this checkout still alive, and run dirs."""
    work = str(ROOT / ".e2e_work")
    found = [str(path) for path in Path(work).glob("run-*")]
    for entry in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            command = entry.read_bytes().replace(b"\0", b" ").decode()
        except OSError:  # the process ended while we looked
            continue
        if "repro.cli" in command and work in command:
            found.append(command)
    return found


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_meets_the_contract(workload: str, trace: int):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in section]
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]  # never 0 end to end

    if trace and workload == "serve_hot":
        assert result["metrics"]["serve.cache_hit_ratio"]["value"] >= 0.95
    if trace and workload == "serve_cold":
        assert result["metrics"]["serve.cache_hit_ratio"]["value"] <= 0.05
        assert result["metrics"]["serve.l2_hit_ratio"]["value"] <= 0.05
    assert leftovers() == []


def test_fails_cleanly_without_the_program(tmp_path: Path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=ignore)
    out = run("serve_hot", 0, root=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
