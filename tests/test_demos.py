"""Smoke test: every demo script and README example runs to completion."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Demos may write output directories into their working directory.  A
    # warning in a demo fails it, as it fails a test.
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _readme_blocks(lang: str) -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in text.split(f"```{lang}\n")[1:]]


def test_readme_examples_run(tmp_path):
    from bregopt.harness import ExperimentConfig, run_experiment

    blocks = _readme_blocks("json")
    assert blocks
    for block in blocks:
        d = json.loads(block)
        d["out_dir"] = str(tmp_path / "out")
        d.setdefault("solver", {})["max_epochs"] = 2
        summary, _ = run_experiment(ExperimentConfig.from_dict(d))
        assert summary["status"] == "ok"
    # The python blocks continue one another, as a reader runs them.
    namespace = {}
    blocks = _readme_blocks("python")
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
