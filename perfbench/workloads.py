"""The five benchmark workloads: inputs made from a seed, a timed body, and
checks of every output.

Each workload has a ``setup(seed, workdir)`` that makes its inputs through
bregopt's public functions (data, Laplacian, problem, start point, config
files) and a ``body(state, recorder)`` that calls the library in a closed
loop: one call at a time, each waited for.  The library receives only the
generated inputs.  ``check_body`` runs after a body, outside the timed region,
and turns every ``run`` call and every CLI call into one checked operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bregopt
from bregopt import cli, harness, solver

DESK_SHAPE = dict(m=60, d=40, r_true=5, cluster_count=3, noise_sigma=0.05)
DESK_RANK = 5
BLAS_SHAPE = dict(m=500, d=1000, r_true=10, cluster_count=5, noise_sigma=0.05)
BLAS_RANK = 10
KNN_NEIGHBORS = 5
KIND_PARAMS = {
    "gnmf": {"mu0": 0.1},
    "wcmf": {"lambda1": 0.05, "lambda2": 0.02},
    "ssnmf": {"s1": 30, "s2": 20},
}
DESK_GRID = [
    {"algorithm": "bpg"},
    {"algorithm": "bpge"},
    {"algorithm": "bpsg", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "sarah"},
]
DESK_DATASETS = 3
DESK_TRIALS = 1  # 3 data sets x 3 kinds x 5 variants = 45 run calls per body
DESK_EPOCHS = 5
AUDIT_DATASETS = 6
AUDIT_TRIALS = 1
AUDIT_EPOCHS = 12
BLAS_VR_EPOCHS = 8
BLAS_DET_EPOCHS = 60


@dataclass
class RunCall:
    problem: object  # the problem the library ran on
    reference: object  # the benchmark's own problem for the same inputs
    cfg: object
    x0: object
    result: object
    seconds: float


@dataclass
class CliCall:
    argv: list
    exit_code: int
    report: Path


@dataclass
class Recorder:
    """Collects every ``run`` call and ``bregopt`` command of one body."""

    runs: list = field(default_factory=list)
    clis: list = field(default_factory=list)

    def wrap(self, run, reference):
        def recorded(problem, cfg, x0):
            t0 = perf_counter()
            result = run(problem, cfg, x0)
            self.runs.append(
                RunCall(problem, reference, cfg, x0, result, perf_counter() - t0)
            )
            return result

        return recorded

    def call_cli(self, argv, report: Path, reference):
        """Run the ``bregopt`` command in-process, recording the run calls
        the harness makes."""
        report.unlink(missing_ok=True)  # a stale report must not pass the check
        original = harness.run
        harness.run = self.wrap(original, reference)
        try:
            code = cli.main(argv)
        finally:
            harness.run = original
        self.clis.append(CliCall(argv, code, report))


@dataclass
class Check:
    """Outcome of the checks of all bodies."""

    attempted: int = 0
    failed: int = 0
    objectives: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _rngs(seed: int, n: int):
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(s)) for s in children]


def _build(kind: str, shape: dict, rank: int, rng):
    """(M, labels, problem) for one kind through the public constructors."""
    m_data, labels = bregopt.generate_synthetic(bregopt.SyntheticSpec(**shape), rng)
    params = dict(KIND_PARAMS[kind])
    if kind == "gnmf":
        params["laplacian"] = bregopt.build_knn_laplacian(m_data, KNN_NEIGHBORS)
    return m_data, labels, bregopt.build_problem(kind, m_data, rank, **params)


def _problem_block(workdir: Path, name: str, kind: str, m_data, labels):
    """Write M and labels; the config blocks that point at them."""
    m_path = workdir / f"{name}_M.csv"
    labels_path = workdir / f"{name}_labels.csv"
    bregopt.save_matrix(m_path, m_data)
    labels_path.write_text("".join(f"{int(v)}\n" for v in labels))
    problem = {"kind": kind, "rank": DESK_RANK, "data": {"path": str(m_path)}}
    problem.update(KIND_PARAMS[kind])
    if kind == "gnmf":
        problem["laplacian"] = {"neighbors": KNN_NEIGHBORS}
    clustering = {"k": DESK_SHAPE["cluster_count"], "labels_path": str(labels_path)}
    return {"problem": problem, "clustering": clustering}


# ---------------------------------------------------------------------------
# checks


def _start_objective(problem, x0) -> float:
    if problem.is_feasible(x0):
        return problem.objective(x0)
    return problem.smooth_value(x0)


def check_run(call: RunCall, check: Check) -> None:
    """A run must not fail and must end at a finite, feasible point whose
    objective (computed here, on the benchmark's own problem) is below the
    start objective."""
    problem = call.reference
    res = call.result
    x = res.x
    ok = not res.failed and bool(np.isfinite(x.u).all() and np.isfinite(x.v).all())
    ok = ok and np.array_equal(call.problem.m_data, problem.m_data)
    ok = ok and problem.is_feasible(x)
    if ok:
        obj = problem.objective(x)
        ok = math.isfinite(obj) and obj < _start_objective(problem, call.x0)
        if ok:
            check.objectives.append(obj)
    check.record(ok, f"run {problem.kind}: failed={res.failed} {res.message}")


def _finite_numbers(block: dict) -> bool:
    return all(
        math.isfinite(v) for v in block.values() if isinstance(v, (int, float))
    )


def check_cli(call: CliCall, check: Check) -> None:
    verb = call.argv[0]
    ok = call.exit_code == 0 and call.report.is_file()
    if ok:
        report = json.loads(call.report.read_text())
        ok = report.get("status") == "ok"
        if verb == "compare":
            combos = report.get("combos", {})
            ok = ok and len(combos) == len(DESK_GRID)
            ok = ok and all(c.get("status") == "ok" for c in combos.values())
        else:
            rate, decay = report.get("rate"), report.get("decay")
            ok = ok and rate is not None and decay is not None
            ok = ok and _finite_numbers(rate) and _finite_numbers(decay)
            ok = ok and decay["passed"] is True
    check.record(ok, f"{verb} {call.argv[2]}: exit {call.exit_code}")


def check_body(rec: Recorder, check: Check) -> None:
    for call in rec.runs:
        check_run(call, check)
    for call in rec.clis:
        check_cli(call, check)


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    """``bregopt <verb>`` through ``bregopt.cli.main``, in-process, at desk
    scale: for each data set, one call per job.  Several data sets per kind
    average out how much the data alone moves the final objective."""

    def __init__(self, verb: str, kinds, datasets: int, jobs):
        self.verb = verb
        self.kinds = kinds
        self.datasets = datasets
        self.jobs = jobs  # (tag, config entries)

    def setup(self, seed: int, workdir: Path):
        kinds = [kind for _ in range(self.datasets) for kind in self.kinds]
        calls = []
        for i, (kind, rng) in enumerate(zip(kinds, _rngs(seed, len(kinds)))):
            m_data, labels, problem = _build(kind, DESK_SHAPE, DESK_RANK, rng)
            blocks = _problem_block(workdir, f"{kind}{i}", kind, m_data, labels)
            # Each data set gets its own solver seed, so that the data sets
            # are independent draws in every respect.
            solver_seed = int(rng.integers(2**32))
            for tag, entries in self.jobs:
                name = f"{kind}{i}_{tag}"
                config = {
                    "name": name,
                    "seed": solver_seed,
                    "out_dir": str(workdir / "out"),
                    "emit": ["trace_csv", "summary_json"],
                    **blocks,
                    **entries,
                }
                path = workdir / f"{name}.json"
                path.write_text(json.dumps(config))
                argv = [self.verb, "--config", str(path), "--quiet"]
                report = workdir / "out" / f"{self.verb}_{name}.json"
                calls.append((argv, report, problem))
        return calls

    def body(self, calls, rec: Recorder):
        for argv, report, problem in calls:
            rec.call_cli(argv, report, problem)


class BlasWorkload:
    """``run`` called directly on one 500x1000 rank-10 problem."""

    def __init__(self, kind: str, variants):
        self.kind = kind
        self.variants = variants

    def setup(self, seed: int, workdir: Path):
        data_rng, init_rng = _rngs(seed, 2)
        _, _, problem = _build(self.kind, BLAS_SHAPE, BLAS_RANK, data_rng)
        m, r, d = problem.shape
        x0 = bregopt.init_point(m, r, d, init_rng)
        configs = [
            bregopt.SolverConfig(seed=(seed, i), **variant)
            for i, variant in enumerate(self.variants)
        ]
        return problem, x0, configs

    def body(self, state, rec: Recorder):
        problem, x0, configs = state
        run = rec.wrap(solver.run, problem)  # looked up here, so tracing applies
        for cfg in configs:
            run(problem, cfg, x0)


WORKLOADS = {
    "desk": CliWorkload(
        "compare",
        ("gnmf", "wcmf", "ssnmf"),
        DESK_DATASETS,
        [
            (
                "grid",
                {
                    "trials": DESK_TRIALS,
                    "solver": {"max_epochs": DESK_EPOCHS},
                    "compare": DESK_GRID,
                },
            )
        ],
    ),
    # bpsge/saga and bpsge/sarah are two workloads: run one after the other
    # in one process, one of the two now and then took no page faults at
    # all, so the body time jumped between two levels from one process to
    # the next.  Run alone, each takes the same faults in every body.
    **{
        f"blas-{est}": BlasWorkload(
            "gnmf", [dict(algorithm="bpsge", estimator=est, max_epochs=BLAS_VR_EPOCHS)]
        )
        for est in ("saga", "sarah")
    },
    "blas-det": BlasWorkload(
        "wcmf",
        [dict(algorithm=alg, max_epochs=BLAS_DET_EPOCHS) for alg in ("bpg", "bpge")],
    ),
    "audit": CliWorkload(
        "audit",
        ("gnmf",),
        AUDIT_DATASETS,
        [
            (
                est,
                {
                    "trials": AUDIT_TRIALS,
                    "solver": {
                        "algorithm": "bpsge",
                        "estimator": est,
                        "max_epochs": AUDIT_EPOCHS,
                    },
                },
            )
            for est in ("saga", "sarah")
        ],
    ),
}
