"""Smoke test for the benchmark itself: ``python -m pytest bench``.

Runs every workload for one second, untraced and traced, and checks that
each metric BENCHMARK.json names is reported with its unit, that no op
failed on the current code, that the traced self times add up to the
traced op time, and that the call and node counts repeat exactly.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls_per_op", "nodes_per_op", "files.bytes_in", "files.bytes_out")


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    assert "error_rate=0 1" in proc.stdout
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_metrics_account_for_op_time(workload):
    first = result(workload, 1)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in first.items()}
    # machine_enumeration is timed on a traced set-up, not inside the ops.
    parts = [v["value"] for k, v in first.items()
             if k.endswith(".self_ms") and not k.startswith("oracles.")
             or k in ("connectivity.precompute_ms", "bench.unattributed_ms")]
    assert sum(parts) == pytest.approx(first["bench.traced_op_ms"]["value"], rel=1e-6)
    again = result(workload, 1)["metrics"]
    for name, value in first.items():
        if name.endswith(COUNTS):
            assert again[name]["value"] == value["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
