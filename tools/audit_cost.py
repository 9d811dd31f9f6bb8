"""Time a step with and without its audit, per estimator and for bpge.

    python3 tools/audit_cost.py                  # 60x40 rank 5, 500x1000 rank 10
    python3 tools/audit_cost.py --tiny           # 60x40 rank 5, 2 epochs
    python3 tools/audit_cost.py --src OTHER/src  # another checkout's bregopt

For each shape, ``--repeats`` fresh Python processes with one BLAS thread
each draw uniform m x d data (seed 0) and build gnmf on a 5-NN graph with
mu0 = 0.1, as the benchmark's gnmf workloads do.  Each then runs bpsge with
sgd, saga and sarah at the default batch of 5% of the columns, and bpge
(estimator ``full``) for as many steps, one an epoch, from the same
uniform start, once unaudited and once audited at every step
(``audit_per_iteration``): one untimed run of each, then the median of 3
timed runs, each run's time over its steps.  One line per shape and
estimator gives the median over the processes of those microseconds per
step, unaudited and audited, and the share of an audited step that is
audit work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SHAPES = ((60, 40, 5, 12), (500, 1000, 10, 2))  # m, d, rank, epochs
TINY = ((60, 40, 5, 2),)
ESTIMATORS = ("sgd", "saga", "sarah", "full")  # full: bpge
LOOPS = 3  # timed runs of each configuration in a process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(m: int, d: int, rank: int, epochs: int) -> dict:
    """Microseconds per step of each (estimator, audited) run, in this
    process; bregopt must be importable."""
    import numpy as np

    import bregopt

    m_data = np.random.default_rng(0).uniform(0.0, 1.0, (m, d))
    lap = bregopt.build_knn_laplacian(m_data, 5)
    problem = bregopt.build_problem("gnmf", m_data, rank, mu0=0.1, laplacian=lap)
    start = np.random.default_rng(1)
    x0 = bregopt.FactorPair(
        start.uniform(0.1, 1.0, (m, rank)), start.uniform(0.1, 1.0, (rank, d))
    )
    steps = epochs * math.ceil(d / bregopt.estimators.effective_batch_size(0, d))
    out = {}
    for est in ESTIMATORS:
        for audited in (False, True):
            cfg = bregopt.SolverConfig(
                algorithm="bpge" if est == "full" else "bpsge",
                estimator=est,
                max_epochs=steps if est == "full" else epochs,
                audit_per_iteration=audited,
                stop_tol=0.0,
            )
            bregopt.run(problem, cfg, x0)  # warm-up
            times = []
            for _ in range(LOOPS):
                t0 = time.perf_counter()
                res = bregopt.run(problem, cfg, x0)
                if res.failed:
                    raise RuntimeError(f"{est} audited={audited}: {res.message}")
                times.append((time.perf_counter() - t0) / res.iterations_run * 1e6)
            out[f"{est} {'audited' if audited else 'plain'}"] = statistics.median(times)
    return out


def run_fresh(shape: tuple, repeats: int, src: Path) -> list[dict]:
    """``measure`` in ``repeats`` new interpreters with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, __file__, "--one", json.dumps(shape)]
    runs = []
    for _ in range(repeats):
        out = subprocess.run(argv, env=env, check=True, capture_output=True)
        runs.append(json.loads(out.stdout))
    m, d, rank, _ = shape
    rows = []
    for est in ESTIMATORS:
        plain = statistics.median(r[f"{est} plain"] for r in runs)
        audited = statistics.median(r[f"{est} audited"] for r in runs)
        rows.append(
            {
                "shape": f"{m}x{d} r{rank}",
                "estimator": est,
                "plain_us": plain,
                "audited_us": audited,
                "audit_share": 1.0 - plain / audited,
            }
        )
    return rows


def main(argv=None) -> list[dict]:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tiny", action="store_true", help="60x40 only, 2 epochs")
    p.add_argument("--repeats", type=int, default=3, help="fresh processes per shape")
    p.add_argument("--src", type=Path, default=SRC, help="the src/ to import bregopt from")
    p.add_argument("--one", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(*json.loads(args.one))))
        return []
    rows = []
    print(f"{'shape':>14} {'estimator':>9} {'plain_us':>9} {'audited_us':>10} {'audit_share':>11}")
    for shape in TINY if args.tiny else SHAPES:
        for row in run_fresh(shape, args.repeats, args.src.resolve()):
            rows.append(row)
            print(
                f"{row['shape']:>14} {row['estimator']:>9} {row['plain_us']:>9.1f} "
                f"{row['audited_us']:>10.1f} {row['audit_share']:>11.2f}",
                flush=True,
            )
    return rows


if __name__ == "__main__":
    main()
