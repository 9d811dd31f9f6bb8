"""One sha256 over a fixed grid of bregopt outputs, and the fields a change moves.

    python3 tools/digest.py                          # print the digest
    python3 tools/digest.py --dump new.json          # and save every raw value
    python3 tools/digest.py --against old.json       # and the largest relative
                                                     # change of each field
    python3 tools/digest.py --src OTHER/src --dump old.json

The grid calls ``solver.run`` on the three problem kinds (24x18 synthetic
data, rank 3, 6 epochs) with the eight variants of ``bregopt compare`` under
eight settings: plain, audited at every step, audited every 2 epochs,
safeguarded extrapolation with the strict step and without it, 0 epochs,
and L_bar = 1e9 (a step at the 1e-8 floor) for 6 and for 0 epochs.  Then, per
kind, it calls ``bregopt run`` (2 trials, clustering, per-trial CSVs),
``bregopt compare`` (the default grid, 2 trials) and ``bregopt audit`` with
saga and with sarah.  The digest covers every returned point, ``failed``,
``message``, ``iterations_run`` and ``hit_eta_floor``, every trace row but
its ``wall_ms``, every audit record, every CLI exit code and every report
file but its ``wall_seconds``.  It is the sha256 of the ``--dump`` file, in
which floats are written exactly.  ``--tiny`` runs the same grid at 10x8,
rank 2, for 2 epochs.

``--src`` imports bregopt from another checkout's ``src`` (default: this
checkout's), so one copy of this script digests both sides of a change.
``--against`` prints, for every output field that moved, the largest
relative change |a - b| / max(|a|, |b|) over its entries and in how many
calls it moved; a changed string, flag or shape counts as inf.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

VARIANTS = [
    {"algorithm": "bpg"},
    {"algorithm": "bpge"},
    {"algorithm": "bpsg", "estimator": "sgd"},
    {"algorithm": "bpsg", "estimator": "saga"},
    {"algorithm": "bpsg", "estimator": "sarah"},
    {"algorithm": "bpsge", "estimator": "sgd"},
    {"algorithm": "bpsge", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "sarah"},
]
MODES = {
    "plain": {},
    "audited": {"audit_per_iteration": True},
    "audit_every_2": {"audit_every": 2},
    "safeguarded_strict": {"beta_mode": "safeguarded", "strict_theory_stepsize": True},
    "zero_epochs": {"max_epochs": 0},
    "safeguarded": {"beta_mode": "safeguarded"},
    "floored": {"l_bar": 1e9},
    "floored_zero": {"l_bar": 1e9, "max_epochs": 0},
}
KINDS = ("gnmf", "wcmf", "ssnmf")
# (m, d, rank, epochs); the synthetic data has one cluster per rank
GRIDS = {"full": (24, 18, 3, 6), "tiny": (10, 8, 2, 2)}


def _tag(variant: dict) -> str:
    if variant["algorithm"] in ("bpg", "bpge"):
        return variant["algorithm"]
    return f"{variant['algorithm']}_{variant['estimator']}"


def _kind_params(kind: str, m: int, d: int) -> dict:
    return {
        "gnmf": {"mu0": 0.1},
        "wcmf": {"lambda1": 0.05, "lambda2": 0.02},
        "ssnmf": {"s1": m // 2, "s2": d // 2},
    }[kind]


def _run_values(res) -> dict:
    """Every output of one ``RunResult`` but the trace's wall times."""
    out = {
        "x.u": res.x.u.tolist(),
        "x.v": res.x.v.tolist(),
        "failed": res.failed,
        "message": res.message,
        "iterations_run": res.iterations_run,
        "hit_eta_floor": res.hit_eta_floor,
    }
    for rows, prefix in ((res.trace, "trace"), (res.audits, "audits")):
        if not rows:
            continue
        names = [f.name for f in fields(rows[0]) if f.name != "wall_ms"]
        for name in names:
            out[f"{prefix}.{name}"] = [getattr(row, name) for row in rows]
    return out


def run_grid(bregopt, grid: str) -> dict:
    """{call: {field: value}} for every ``run`` call of the grid."""
    from bregopt.numeric import make_rng

    m, d, rank, epochs = GRIDS[grid]
    spec = bregopt.SyntheticSpec(m=m, d=d, r_true=rank, cluster_count=rank, noise_sigma=0.05)
    m_data, _ = bregopt.generate_synthetic(spec, make_rng(7))
    x0 = bregopt.init_point(m, rank, d, make_rng(8))
    values = {}
    for kind in KINDS:
        params = _kind_params(kind, m, d)
        if kind == "gnmf":
            params["laplacian"] = bregopt.build_knn_laplacian(m_data, 3)
        problem = bregopt.build_problem(kind, m_data, rank, **params)
        for variant, (mode, overrides) in itertools.product(VARIANTS, MODES.items()):
            settings = {"max_epochs": epochs, "seed": 5, **variant, **overrides}
            res = bregopt.run(problem, bregopt.SolverConfig(**settings), x0)
            values[f"run {kind} {_tag(variant)} {mode}"] = _run_values(res)
    return values


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key != "wall_seconds":
                _flatten(val, f"{prefix}.{key}", out)
    else:
        out[prefix] = obj


def _report_values(path: Path, name: str, out: dict) -> None:
    """A JSON report as one field per leaf, a CSV as one field per column."""
    if path.suffix == ".json":
        _flatten(json.loads(path.read_text(encoding="utf-8")), name, out)
        return
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    for j, col in enumerate(header):
        out[f"{name}:{col}"] = [float(row[j]) for row in rows]


def cli_grid(bregopt, grid: str) -> dict:
    """{call: {field: value}} for every CLI call of the grid."""
    from bregopt import cli

    m, d, rank, epochs = GRIDS[grid]
    jobs = {
        "run": {"emit": ["trace_csv", "summary_json", "per_trial_csv"], "clustering": {"k": rank}},
        "compare": {},
        "audit saga": {"solver": {"max_epochs": epochs, "estimator": "saga"}},
        "audit sarah": {"solver": {"max_epochs": epochs, "estimator": "sarah"}},
    }
    values = {}
    for kind, (job, extra) in itertools.product(KINDS, jobs.items()):
        problem = {
            "kind": kind,
            "rank": rank,
            "data": {
                "synthetic": {
                    "m": m,
                    "d": d,
                    "r_true": rank,
                    "cluster_count": rank,
                    "noise_sigma": 0.05,
                }
            },
            **_kind_params(kind, m, d),
        }
        if kind == "gnmf":
            problem["laplacian"] = {"neighbors": 3}
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            config = {
                "name": "d",
                "seed": 3,
                "trials": 2,
                "out_dir": str(out_dir),
                "problem": problem,
                "solver": {"max_epochs": epochs},
                **extra,
            }
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            verb = job.split()[0]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([verb, "--config", str(path), "--quiet"])
            call = {"exit": code}
            for report in sorted(out_dir.iterdir()):
                _report_values(report, report.name, call)
            values[f"cli {kind} {job}"] = call
    return values


def collect(grid: str, src: Path = SRC) -> dict:
    """Every output of the grid, from the bregopt under ``src``."""
    sys.path.insert(0, str(src))
    try:
        import bregopt
    finally:
        sys.path.remove(str(src))
    if Path(bregopt.__file__).resolve().parent != src.resolve() / "bregopt":
        raise RuntimeError(f"bregopt imported from {bregopt.__file__}, not {src}")
    return {**run_grid(bregopt, grid), **cli_grid(bregopt, grid)}


def serialize(values: dict) -> str:
    # json writes a float as its shortest round-trip repr, so the text holds
    # every bit; NaN and inf are written as NaN and Infinity.
    return json.dumps(values, sort_keys=True)


def relative_change(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries; 0 where both are
    equal or both NaN; inf for a changed string, flag, None or shape."""
    if a == b or any(v is None or isinstance(v, (str, bool)) for v in (a, b)):
        return 0.0 if a == b else math.inf
    try:
        x = np.asarray(a, dtype=float)
        y = np.asarray(b, dtype=float)
    except (TypeError, ValueError):
        return math.inf
    if x.shape != y.shape:
        return math.inf
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y)[~same] / np.maximum(np.abs(x), np.abs(y))[~same]
    rel[~np.isfinite(rel)] = math.inf
    return float(rel.max())


def _group(call: str, field: str) -> str:
    """A field's name across the kinds and run settings: the call's verb,
    a run's variant, and the field."""
    words = call.split()
    if words[0] == "run":  # run <kind> <variant> <mode>
        return f"run {words[2]} {field}"
    return f"{' '.join([words[0], *words[2:]])} {field}"  # cli <kind> <job>


def compare(old: dict, new: dict) -> list[tuple[str, float, int, int]]:
    """(field, largest relative change, calls moved, calls) per field; a
    field or call on one side only counts as moved by inf."""
    groups: dict[str, list[float]] = {}
    for call in sorted(old.keys() | new.keys()):
        a, b = old.get(call, {}), new.get(call, {})
        for field in sorted(a.keys() | b.keys()):
            if field in a and field in b:
                change = relative_change(a[field], b[field])
            else:
                change = math.inf
            groups.setdefault(_group(call, field), []).append(change)
    return [
        (name, max(changes), sum(c > 0 for c in changes), len(changes))
        for name, changes in sorted(groups.items())
    ]


def main(argv=None) -> str:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tiny", action="store_true", help="the small grid")
    p.add_argument("--src", type=Path, default=SRC, help="the src/ to import bregopt from")
    p.add_argument("--dump", type=Path, help="write every raw value to this JSON file")
    p.add_argument("--against", type=Path, help="an earlier --dump to compare with")
    args = p.parse_args(argv)

    values = collect("tiny" if args.tiny else "full", args.src)
    text = serialize(values)
    if args.dump is not None:
        args.dump.write_text(text, encoding="utf-8")
    if args.against is not None:
        old = json.loads(args.against.read_text(encoding="utf-8"))
        # through the same text, so that both sides compare as loaded JSON
        rows = compare(old, json.loads(text))
        moved = [row for row in rows if row[2]]
        for name, change, n_moved, n_calls in moved:
            print(f"{change:10.3g}  {n_moved:3d}/{n_calls:<3d} {name}")
        print(f"{len(moved)} of {len(rows)} fields moved")
    result = hashlib.sha256(text.encode()).hexdigest()
    print(f"sha256 {result} over {len(values)} calls")
    return result


if __name__ == "__main__":
    main()
