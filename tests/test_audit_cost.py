"""tools/audit_cost.py on its tiny size: fresh processes time a 60 x 40
step with and without its audit, for each stochastic estimator and bpge."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "audit_cost.py"
_SPEC = importlib.util.spec_from_file_location("audit_cost", SCRIPT)
audit_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(audit_cost)


def test_audit_cost_tiny_times_fresh_processes(capsys):
    rows = audit_cost.main(["--tiny", "--repeats", "1"])
    assert [row["estimator"] for row in rows] == ["sgd", "saga", "sarah", "full"]
    for row in rows:
        assert row["shape"] == "60x40 r5"
        assert 0.0 < row["plain_us"] and 0.0 < row["audited_us"]
        assert row["audit_share"] == 1.0 - row["plain_us"] / row["audited_us"]
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["shape", "estimator", "plain_us", "audited_us", "audit_share"]
    assert [line.split()[:3] for line in lines] == [
        ["60x40", "r5", est] for est in ("sgd", "saga", "sarah", "full")
    ]
