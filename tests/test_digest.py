"""tools/digest.py on its tiny grid: the digest is the dump's sha256, holds
no wall time, repeats, and a moved value is reported under its field."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_digest_repeats_and_names_a_moved_field(tmp_path, capsys):
    dump = tmp_path / "before.json"
    first = digest.main(["--tiny", "--dump", str(dump)])
    assert first == hashlib.sha256(dump.read_bytes()).hexdigest()
    values = json.loads(dump.read_text(encoding="utf-8"))
    # 3 kinds x (8 variants x 8 settings of run + 4 CLI calls)
    assert len(values) == 3 * (8 * 8 + 4)
    assert not any("wall" in name for call in values.values() for name in call)
    assert all(call["exit"] == 0 for key, call in values.items() if key.startswith("cli"))

    call = values["run wcmf bpsge_saga audited"]
    call["audits.lyapunov"][3] *= 1.0 + 1e-9
    dump.write_text(json.dumps(values), encoding="utf-8")
    capsys.readouterr()
    assert digest.main(["--tiny", "--against", str(dump)]) == first
    *moved, summary, _ = capsys.readouterr().out.splitlines()
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
