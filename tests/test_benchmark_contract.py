"""The benchmark's traced runs still resolve every per-layer metric and pass
the benchmark's own check.

``perfbench/run.py --trace 1`` looks up each ``per_layer`` name of
BENCHMARK.json among the spans of the library's public functions and aborts
when one is missing, so renaming or deleting a traced function breaks every
traced workload.  One short traced run catches that here.  A second one runs
the deterministic workload, whose steps carry the data products from one
iterate to the next, through the benchmark's check of every returned point.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_resolves_every_per_layer_metric(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            "blas-saga",
            "--seed",
            "1",
            "--seconds",
            "0.01",
            "--trace",
            "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(result["metrics"])


def test_deterministic_benchmark_workload_passes_its_check(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            "blas-det",
            "--seed",
            "1",
            "--seconds",
            "0.01",
            "--trace",
            "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
