"""Paired benchmark runs of two checkouts, and the verdict of the gain rule.

    python3 tools/ab_bench.py --base OTHER --workload blas-saga --seed 5000
    python3 tools/ab_bench.py --base OTHER --head . --workload desk \\
        --pairs 10 --seconds 10 --seed 5000

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once
in each checkout, each from its own root (so each imports its own
``src/``), with S = ``--seed`` + the pair's index; even pairs run the base
first and odd pairs the head first.  Each run's end-to-end metrics, the
last line of its output, are printed as it ends.  Then, for each
end-to-end metric that ``BENCHMARK.json`` of the head lists, one line
gives each side's median and quartiles over the pairs, the head's wins
(pairs in which it reads better, ties counting for neither side), and
whether a gain holds: at least nine wins in ten pairs, and a median better
by more than the distance between the base's quartiles.  Both checkouts
must declare the same end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linearly interpolated
    between the order statistics (numpy's default percentile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, head, better: str) -> dict:
    """The gain rule over paired samples: ``base[i]`` and ``head[i]`` are
    one pair's runs, ``better`` is "lower" or "higher"."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two or more pairs of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    bq, hq = quartiles(base), quartiles(head)
    gain = sign * (bq[1] - hq[1])
    iqr = bq[2] - bq[0]
    return {
        "pairs": len(base),
        "wins": wins,
        "base": bq,
        "head": hq,
        "gain": gain,
        "base_iqr": iqr,
        "holds": 10 * wins >= 9 * len(base) and gain > iqr,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
    ]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def end_to_end(checkout: Path) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--head", type=Path, default=ROOT, help="the change's checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    args = p.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    metrics = end_to_end(head)
    if end_to_end(base) != metrics:
        p.error("the two checkouts declare different end-to-end metrics")

    sides = {"base": base, "head": head}
    values = {side: {name: [] for name in metrics} for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            res = run_once(sides[side], args.workload, seed, args.seconds)
            for name in metrics:
                values[side][name].append(res["metrics"][name]["value"])
            shown = " ".join(f"{n}={v['value']:.6g}" for n, v in res["metrics"].items())
            print(
                f"pair {i} seed {seed} {side}: correct={res['correct']} "
                f"failed={res['failed']}/{res['attempted']} {shown}",
                flush=True,
            )

    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name, better in metrics.items():
        v = verdict(values["base"][name], values["head"][name], better)
        b, h = v["base"], v["head"]
        print(
            f"{name} ({better} is better): base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
            f"head {h[1]:.6g} [{h[0]:.6g}, {h[2]:.6g}]  wins {v['wins']}/{v['pairs']}  "
            f"gain {v['gain']:.4g} vs base IQR {v['base_iqr']:.4g}: "
            f"{'holds' if v['holds'] else 'does not hold'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
