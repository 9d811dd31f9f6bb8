"""bregopt benchmark: one workload per run, timed untraced or traced.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Lines before it give the environment and
each metric with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS.  That module imports numpy, so it is only
# imported once the BLAS thread count is pinned; likewise numpy and bregopt.
WORKLOAD_NAMES = ("desk", "blas-saga", "blas-sarah", "blas-det", "audit")

BLAS_THREADS = 1  # OpenBLAS at 1 and 2 threads timed the same at 500x1000 r=10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# An untraced run is split over this many fresh processes, one after the
# other, each set up once as a user's script would be.  Each process settles
# into its own pattern of page faults on the large numpy temporaries
# (README.md), so one process is not a fair sample.
PROCESSES = 5
MIN_REPS = 2  # body repetitions per process (of each kind when traced)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: measure in this process only and print the sample as JSON
    p.add_argument("--one-process", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_commit():
    """HEAD of the repository whose top level is ROOT, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bregopt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "loop": "closed, 1 caller",
    }


# ---------------------------------------------------------------------------
# measurement


class Measurement:
    """One set-up, then body repetitions until the time is up.

    In a traced run the body repetitions alternate untraced and traced, so
    the tracing overhead is measured in the same process.
    """

    def __init__(self, workload, seed: int, workdir: Path, traced: bool, import_time: float):
        from tracer import Tracer
        from workloads import Check

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.setup_tracer = Tracer() if traced else None
        self.body_tracer = Tracer() if traced else None
        self.check = Check()
        self.import_time = import_time  # first import of bregopt in this process
        self.plain_times: list[float] = []
        self.plain_faults: list[int] = []
        self.traced_times: list[float] = []
        # body time over the mean calibration time just before and after it;
        # calibrations[0] runs right after the set-up
        self.plain_cal: list[float] = []
        self.traced_cal: list[float] = []
        self.calibrations: list[float] = []
        # untraced run-call latencies by configuration: kind/algorithm/estimator
        self.latencies: dict[str, list[float]] = {}
        self.traced_runs: list = []  # (iterations_run, hit_eta_floor)

    def _timed(self, fn, tracer):
        import bregopt

        if tracer is not None:
            tracer.install(bregopt)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        return out, dt

    def setup(self):
        self.state, self.setup_time = self._timed(
            lambda: self.workload.setup(self.seed, self.workdir), self.setup_tracer
        )

    def body(self, seconds: float):
        from calibration import seconds as calibration_seconds
        from workloads import Recorder, check_body

        start = perf_counter()
        self.calibrations.append(calibration_seconds())
        i = 0
        while True:
            traced = self.traced and i % 2 == 1
            rec = Recorder()
            faults = _minor_faults()
            _, dt = self._timed(
                lambda: self.workload.body(self.state, rec),
                self.body_tracer if traced else None,
            )
            faults = _minor_faults() - faults
            self.calibrations.append(calibration_seconds())
            in_cal = dt / statistics.fmean(self.calibrations[-2:])
            check_body(rec, self.check)
            if traced:
                self.traced_times.append(dt)
                self.traced_cal.append(in_cal)
                self.traced_runs += [
                    (c.result.iterations_run, c.result.hit_eta_floor) for c in rec.runs
                ]
            else:
                self.plain_times.append(dt)
                self.plain_faults.append(faults)
                self.plain_cal.append(in_cal)
                for c in rec.runs:
                    key = f"{c.problem.kind}/{c.cfg.algorithm}/{c.cfg.estimator}"
                    self.latencies.setdefault(key, []).append(c.seconds)
            i += 1
            enough = len(self.plain_times) >= MIN_REPS and (
                not self.traced or len(self.traced_times) >= MIN_REPS
            )
            if enough and perf_counter() - start >= seconds:
                break


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Measurement:
    """Import bregopt, set up once and time one workload in this process."""
    import numpy  # noqa: F401  (bregopt's dependencies load untimed)
    import scipy.optimize  # noqa: F401

    t0 = perf_counter()
    import bregopt

    import_time = perf_counter() - t0

    if Path(bregopt.__file__).resolve().parent != SRC / "bregopt":
        raise RuntimeError(f"bregopt imported from {bregopt.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        m = Measurement(WORKLOADS[workload], seed, workdir, traced, import_time)
        m.setup()
        m.body(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return m


def process_sample(workload: str, seed: int, seconds: float) -> dict:
    """An untraced measurement in a fresh process, as plain data."""
    m = measure(workload, seed, seconds, traced=False)
    c = m.check
    return {
        "import": m.import_time,
        "setup": m.setup_time,
        "body": m.plain_times,
        "body_cal": m.plain_cal,
        "calibrations": m.calibrations,
        "faults": m.plain_faults,
        "latencies": m.latencies,
        "objectives": c.objectives,
        "attempted": c.attempted,
        "failed": c.failed,
        "messages": c.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sample_processes(args) -> list[dict]:
    """PROCESSES untraced measurements, each in a fresh process started after
    the previous one has ended, sharing --seconds of body time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one-process"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", repr(args.seconds / PROCESSES)]
    samples = []
    for _ in range(PROCESSES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"measuring process exited with code {out.returncode}")
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


def _latency_ms(latencies: dict, q: float) -> float:
    """The q-th percentile of run-call latency within each configuration,
    averaged over configurations.  Pooled, the percentile of a mix of fast
    and slow configurations jumps between them from seed to seed."""
    import numpy as np

    return 1e3 * statistics.fmean(float(np.percentile(v, q)) for v in latencies.values())


def end_to_end(samples: list[dict]) -> dict:
    """Timings are in reference seconds (calibration.py): ``wall_s`` is the
    median over all bodies, ``setup_s`` the median over the processes of the
    import plus set-up, timed against the calibration right after it."""
    from calibration import QUIET_SECONDS

    return {
        "wall_s": QUIET_SECONDS
        * statistics.median(r for s in samples for r in s["body_cal"]),
        "setup_s": QUIET_SECONDS
        * statistics.median((s["import"] + s["setup"]) / s["calibrations"][0] for s in samples),
        "final_objective": statistics.fmean(o for s in samples for o in s["objectives"]),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
    }


def per_layer(m: Measurement, names) -> dict:
    """Per-layer metrics per workload pass: one set-up plus one body.

    ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` are read from the
    span aggregates; the other names are derived below.
    """
    phases = ((m.setup_tracer, 1), (m.body_tracer, len(m.traced_times)))

    def spans(pred, what="total"):
        return sum(
            getattr(s, what) / n for tr, n in phases for name, s in tr.stats.items() if pred(name)
        )

    def counter(get):
        return sum(get(tr) / n for tr, n in phases)

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = sum(it for it, _ in m.traced_runs) / len(m.traced_times)
    obj_passes = counter(lambda tr: tr.objective_passes)
    grad_passes = counter(lambda tr: sum(tr.samples.values()))
    est_passes = counter(lambda tr: tr.samples["estimator"])
    run_s = spans(lambda n: n == "solver.run")
    traced_wall = m.setup_time + statistics.fmean(m.traced_times)
    derived = {
        "problems.objective.passes": lambda: obj_passes,
        "problems.gflops_computed": lambda: ratio(
            counter(lambda tr: tr.flops), counter(lambda tr: tr.flop_seconds)
        )
        / 1e9,
        "work.objective_pass_share": lambda: ratio(obj_passes, obj_passes + grad_passes),
        "work.gradient_passes": lambda: grad_passes,
        "work.audit_passes": lambda: counter(lambda tr: tr.samples["audit"]),
        "estimators.SARAH.restarts": lambda: counter(lambda tr: tr.sarah_restarts),
        "estimators.data_passes": lambda: est_passes,
        "estimators.s_per_pass": lambda: ratio(run_s, est_passes),
        "estimators.audit.s": lambda: spans(
            lambda n: n.startswith("estimators.") and n.endswith(".audit")
        ),
        "solver.iterations": lambda: iterations,
        "solver.us_per_iteration": lambda: ratio(run_s, iterations) * 1e6,
        "solver.eta_floor_hits": lambda: sum(hit for _, hit in m.traced_runs)
        / len(m.traced_times),
        "trace.wall_s": lambda: traced_wall,
        "trace.unattributed_s": lambda: traced_wall
        - counter(lambda tr: tr.top_level_seconds()),
        "trace.spans": lambda: spans(lambda n: True, "calls"),
        "trace.overhead_frac": lambda: statistics.median(m.traced_cal)
        / statistics.median(m.plain_cal)
        - 1.0,
        "alloc.minor_faults": lambda: statistics.fmean(m.plain_faults),
    }
    fields = {"calls": "calls", "s": "total", "self_s": "self_time"}
    out = {}
    for name in names:
        span, _, what = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]()
        elif span.startswith("layer.") and what == "self_s":
            layer = span.removeprefix("layer.")
            out[name] = spans(lambda n: n.partition(".")[0] == layer, "self_time")
        elif what in fields and span in m.body_tracer.stats:
            out[name] = spans(lambda n: n == span, fields[what])
        else:
            raise KeyError(f"per-layer metric {name!r} names no traced span")
    return out


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def _times(values) -> str:
    return " ".join(f"{t:.4g}" for t in values)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bregopt" / "__init__.py").is_file():
        print(f"error: no bregopt sources in {SRC}", file=sys.stderr)
        return 2
    # The BLAS reads its thread count when numpy loads it, so pin it first;
    # the processes started below inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.one_process:
        print(json.dumps(process_sample(args.workload, args.seed, args.seconds)))
        return 0
    units = declared_metrics(args.trace)
    print("env " + json.dumps(environment(args), sort_keys=True))

    if args.trace:
        m = measure(args.workload, args.seed, args.seconds, traced=True)
        values = per_layer(m, units)
        latencies = m.latencies
        attempted, failed, messages = m.check.attempted, m.check.failed, m.check.messages
        print(f"one process: import {m.import_time:.4g} s, traced set-up {m.setup_time:.4g} s")
        print("body seconds, untraced: " + _times(m.plain_times))
        print("body seconds, traced: " + _times(m.traced_times))
    else:
        samples = sample_processes(args)
        values = end_to_end(samples)
        latencies = {}
        for s in samples:
            for key, v in s["latencies"].items():
                latencies.setdefault(key, []).extend(v)
        attempted = sum(s["attempted"] for s in samples)
        failed = sum(s["failed"] for s in samples)
        messages = [msg for s in samples for msg in s["messages"]]
        for i, s in enumerate(samples):
            print(f"process {i}: import {s['import']:.4g} s, set-up {s['setup']:.4g} s")
            print(f"process {i}: body seconds {_times(s['body'])}")
            print(f"process {i}: calibration seconds {_times(s['calibrations'])}")
            print(f"process {i}: body minor faults {' '.join(map(str, s['faults']))}")
        bodies = [t for s in samples for t in s["body"]]
        setups = [s["import"] + s["setup"] for s in samples]
        # Printed, not metrics: plain wall time follows the host's drift.
        print(
            f"plain wall time: body {statistics.median(bodies):.6g} s median, "
            f"{min(bodies):.6g} s fastest, over {len(bodies)} bodies; import plus "
            f"set-up {statistics.median(setups):.6g} s median"
        )
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if latencies:
        # Printed, not metrics: on a shared host these percentiles take in
        # whatever slowed the host during the run (see README.md).
        n = sum(map(len, latencies.values()))
        for q in (50, 90):
            print(
                f"run_ms_p{q} {_latency_ms(latencies, q):.6g} ms over {n} run calls "
                f"in {len(latencies)} configurations (not a BENCHMARK.json metric)"
            )
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for msg in messages[:20]:
        print(f"check failed: {msg}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
