"""tools/digest.py on its tiny grid: the digest is the dump's sha256, holds
no wall time, repeats, and a moved value is reported under its field; the
script exits 0 when no field moved and 1 when one did."""

import hashlib
import importlib.util
import json
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", SCRIPT)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def exit_status(monkeypatch, *argv) -> int:
    """The status the script exits with when run as a command."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return stop.value.code


def test_digest_repeats_and_names_a_moved_field(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "before.json"
    first = digest.main(["--tiny", "--dump", str(dump)])
    assert first == hashlib.sha256(dump.read_bytes()).hexdigest()
    capsys.readouterr()
    assert exit_status(monkeypatch, "--tiny", "--against", str(dump)) == 0
    summary, line = capsys.readouterr().out.splitlines()
    assert summary.startswith("0 of ") and line.split()[1] == first
    values = json.loads(dump.read_text(encoding="utf-8"))
    # 3 kinds x (8 variants x 6 settings of run + 5 CLI calls), the floored
    # job's 8 variants at 2 epoch counts, the CSR job's 3 variants and the
    # blocked job's 4 variants on 2 kinds
    assert len(values) == 3 * (8 * 6 + 5) + 8 * 2 + 3 + 2 * 4
    assert not any("wall" in name for call in values.values() for name in call)
    assert values["run wcmf bpg floored"]["hit_eta_floor"]
    assert not values["run wcmf bpg floored_zero"]["hit_eta_floor"]
    assert all(call["exit"] == 0 for key, call in values.items() if key.startswith("cli"))

    call = values["run wcmf bpsge_saga audited"]
    call["audits.lyapunov"][3] *= 1.0 + 1e-9
    dump.write_text(json.dumps(values), encoding="utf-8")
    assert exit_status(monkeypatch, "--tiny", "--against", str(dump)) == 1
    *moved, summary, line = capsys.readouterr().out.splitlines()
    assert line.split()[1] == first
    assert len(moved) == 1
    change, calls, name = moved[0].split(maxsplit=2)
    assert float(change) == pytest.approx(1e-9, rel=1e-3)
    assert calls.startswith("1/") and name == "run bpsge_saga audits.lyapunov"
    assert summary.startswith("1 of ")


def test_relative_change_of_each_value_type():
    nan = float("nan")
    assert digest.relative_change([1.0, nan], [1.0, nan]) == 0.0
    assert digest.relative_change([2.0, -4.0], [2.0, -5.0]) == pytest.approx(0.2)
    assert digest.relative_change([1.0, nan], [1.0, 1.0]) == float("inf")
    assert digest.relative_change([1.0], [1.0, 2.0]) == float("inf")
    assert digest.relative_change(None, 1.0) == float("inf")
    assert digest.relative_change("ok", "failed") == float("inf")
    assert digest.relative_change(True, True) == 0.0
