"""tools/setup_scale.py on its tiny size: fresh processes time the kNN
graph and the gnmf build at m = 60 and report their peak RSS."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "setup_scale.py"
_SPEC = importlib.util.spec_from_file_location("setup_scale", SCRIPT)
setup_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(setup_scale)


def test_setup_scale_tiny_times_fresh_processes(capsys):
    (row,) = setup_scale.main(["--tiny", "--repeats", "2"])
    assert row["m"] == 60
    assert 0.0 < row["knn_s"] and 0.0 < row["build_s"]
    assert row["total_s"] >= max(row["knn_s"], row["build_s"])
    assert row["peak_rss_mb"] > 1.0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["m", "knn_s", "build_s", "total_s", "peak_rss_mb"]
    assert line.split()[0] == "60"
