"""Smoke test of the benchmark at tiny trial counts.

    python -m pytest bench/test_smoke.py

It lives outside ``tests/``, so the tier-1 suite does not collect it; it
takes about a minute, most of it the command-line workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = run(BENCH.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--scale", "0.05")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = run(tmp_path, "--workload", "mc_general", "--seed", "1", "--seconds", "1",
              "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
