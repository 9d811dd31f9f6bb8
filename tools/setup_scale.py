"""Time the gnmf set-up, the kNN graph and the problem, as m grows.

    python3 tools/setup_scale.py                  # m = 500, 1024, 2048, 4096
    python3 tools/setup_scale.py --tiny           # m = 60
    python3 tools/setup_scale.py --src OTHER/src  # another checkout's bregopt

For each m, ``--repeats`` fresh Python processes with one BLAS thread each
draw uniform m x 1000 data (seed 0), then time ``build_knn_laplacian`` (5
neighbors, binary weights) and ``build_problem("gnmf", ..., rank 10,
mu0 0.1)`` on it once, as a script's set-up would run them.  One line per
m gives the median over the processes of the seconds of each step and of
their sum, and the largest peak RSS (``ru_maxrss``) in MB, which counts the
interpreter, numpy, scipy and the data too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SIZES = (500, 1024, 2048, 4096)
COLUMNS = 1000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(m: int) -> dict:
    """One set-up at m, in this process; bregopt must be importable."""
    import numpy as np

    import bregopt

    m_data = np.random.default_rng(0).uniform(0.0, 1.0, (m, COLUMNS))
    t0 = time.perf_counter()
    lap = bregopt.build_knn_laplacian(m_data, 5)
    t1 = time.perf_counter()
    bregopt.build_problem("gnmf", m_data, 10, mu0=0.1, laplacian=lap)
    t2 = time.perf_counter()
    return {
        "knn_s": t1 - t0,
        "build_s": t2 - t1,
        "total_s": t2 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_fresh(m: int, repeats: int, src: Path) -> dict:
    """``measure`` in ``repeats`` new interpreters with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, __file__, "--one", str(m)]
    runs = []
    for _ in range(repeats):
        out = subprocess.run(argv, env=env, check=True, capture_output=True)
        runs.append(json.loads(out.stdout))
    row = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    return {"m": m, **row, "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}


def main(argv=None) -> list[dict]:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tiny", action="store_true", help="m = 60 only")
    p.add_argument("--repeats", type=int, default=3, help="fresh processes per m")
    p.add_argument("--src", type=Path, default=SRC, help="the src/ to import bregopt from")
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return []
    rows = []
    print(f"{'m':>6} {'knn_s':>8} {'build_s':>8} {'total_s':>8} {'peak_rss_mb':>11}")
    for m in (60,) if args.tiny else SIZES:
        row = run_fresh(m, args.repeats, args.src.resolve())
        rows.append(row)
        print(
            f"{m:>6} {row['knn_s']:>8.4f} {row['build_s']:>8.4f} "
            f"{row['total_s']:>8.4f} {row['peak_rss_mb']:>11.1f}",
            flush=True,
        )
    return rows


if __name__ == "__main__":
    main()
