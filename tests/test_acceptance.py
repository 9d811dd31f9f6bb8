"""End-to-end acceptance suite.

Each test covers one numbered criterion of the package contract and prints
a single ``criterion NN <title>: PASS`` line when it holds; on failure the
assertion fires first and pytest reports the test as failed.  Expensive
runs are shared through module-scoped fixtures, and every fixture records
its own wall time so the criterion that owns a time budget can assert it.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bregopt.estimators import (
    SAGA,
    FullGradient,
    check_geometric_decay,
    estimate_sample_lipschitz,
    make_estimator,
)
from bregopt.harness import (
    ExperimentConfig,
    SyntheticSpec,
    build_experiment_problem,
    generate_synthetic,
    init_point,
    load_experiment_data,
    run_compare,
    run_experiment,
    _trial_init,
)
from bregopt.kernels import (
    FactorPair,
    KernelSpec,
    check_smooth_adaptable,
    kernel_gradient,
    kernel_value,
)
from bregopt.numeric import cubic_root, make_rng
from bregopt.problems import build_problem, hard_threshold_axis
from bregopt.solver import SolverConfig, rate_check, run

from .test_kernels import fd_gradient


def _passed(num, title):
    print(f"criterion {num:02d} {title}: PASS")


def _path_laplacian(n):
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i] += 1.0
        lap[i + 1, i + 1] += 1.0
        lap[i, i + 1] -= 1.0
        lap[i + 1, i] -= 1.0
    return lap


# ---------------------------------------------------------------------------
# criterion 1: closed-form prox vs explicit search


def _model_stack(problem, spec, grad, x_bar, eta, cu, cv):
    """Proximal subproblem objective for a stack of candidates.

    Vectorized mirror of Problem.prox_model_value; anchored against the
    scalar version on sampled candidates before being trusted.
    """
    du = cu - x_bar.u
    dv = cv - x_bar.v
    lin = np.einsum("ij,nij->n", grad.u, du) + np.einsum("ij,nij->n", grad.v, dv)
    su = np.einsum("nij,nij->n", cu, cu)
    sv = np.einsum("nij,nij->n", cv, cv)
    s = su + sv

    def psi(su_, s_):
        half = 0.5 * s_
        return spec.quartic * half * half + spec.quadratic * half + 0.5 * spec.u_quadratic * su_

    sy_u = float(np.sum(x_bar.u * x_bar.u))
    sy = sy_u + float(np.sum(x_bar.v * x_bar.v))
    gy = kernel_gradient(spec, x_bar)
    breg = psi(su, s) - psi(sy_u, sy) - (
        np.einsum("ij,nij->n", gy.u, du) + np.einsum("ij,nij->n", gy.v, dv)
    )
    if problem.kind == "wcmf":
        h = problem.lambda1 * np.abs(cu).sum(axis=(1, 2)) - 0.5 * problem.lambda2 * su
    else:
        h = 0.0
    return eta * (h + lin) + breg


def _stack_budget(c, s, axis):
    # Keep the s largest-magnitude entries per slice; any valid support works
    # here since only feasibility of the candidates matters.
    if s >= c.shape[axis]:
        return c
    order = np.argsort(-np.abs(c), axis=axis, kind="stable")
    ranks = np.argsort(order, axis=axis, kind="stable")
    return np.where(ranks < s, c, 0.0)


def _random_prox_instance(kind, rng):
    m = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    r = int(rng.integers(1, min(m, d, 2) + 1))
    if kind == "wcmf":
        m_data = rng.uniform(-1.0, 1.0, (m, d))
        problem = build_problem("wcmf", m_data, r, lambda1=0.4, lambda2=0.15)
        x_bar = FactorPair(rng.uniform(-1.0, 1.0, (m, r)), rng.uniform(-1.0, 1.0, (r, d)))
    elif kind == "ssnmf":
        m_data = rng.uniform(0.1, 1.0, (m, d))
        s1 = int(rng.integers(1, m + 1))
        s2 = int(rng.integers(1, d + 1))
        problem = build_problem("ssnmf", m_data, r, s1=s1, s2=s2)
        x_bar = FactorPair(
            hard_threshold_axis(rng.uniform(0.05, 1.2, (m, r)), s1, axis=0),
            hard_threshold_axis(rng.uniform(0.05, 1.2, (r, d)), s2, axis=1),
        )
    else:
        m_data = rng.uniform(0.1, 1.0, (m, d))
        problem = build_problem("gnmf", m_data, r)
        x_bar = FactorPair(rng.uniform(0.05, 1.2, (m, r)), rng.uniform(0.05, 1.2, (r, d)))
    grad = FactorPair(rng.normal(0.0, d, (m, r)), rng.normal(0.0, d, (r, d)))
    eta = float(rng.uniform(0.05, 0.6))
    return problem, x_bar, grad, eta


def _candidate_stacks(problem, x_bar, xp, rng, n_random):
    (m, r, d) = x_bar.shape
    hi = 1.5 * max(1.0, float(np.abs(xp.u).max(initial=0.0)),
                   float(np.abs(xp.v).max(initial=0.0)),
                   float(np.abs(x_bar.u).max()), float(np.abs(x_bar.v).max()))
    if problem.kind == "wcmf":
        cu = rng.uniform(-hi, hi, (n_random, m, r))
        cv = rng.uniform(-hi, hi, (n_random, r, d))
    else:
        cu = rng.uniform(0.0, hi, (n_random, m, r))
        cv = rng.uniform(0.0, hi, (n_random, r, d))

    # Grid along the ray through the closed-form answer: the minimizer's
    # radius must beat every other radius on its own ray.
    scales = np.concatenate([np.linspace(0.0, 2.5, 126)[1:], np.linspace(0.95, 1.05, 101)])
    ray_u = scales[:, None, None] * xp.u
    ray_v = scales[:, None, None] * xp.v

    # Coordinate perturbations around the closed-form answer.
    pert_u, pert_v = [], []
    for delta in (1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2, 1e-1, -1e-1):
        for idx in np.ndindex(xp.u.shape):
            cand = xp.u.copy()
            cand[idx] += delta
            pert_u.append(cand)
            pert_v.append(xp.v)
        for idx in np.ndindex(xp.v.shape):
            cand = xp.v.copy()
            cand[idx] += delta
            pert_u.append(xp.u)
            pert_v.append(cand)
    pu = np.stack(pert_u)
    pv = np.stack(pert_v)

    cu = np.concatenate([cu, ray_u, pu])
    cv = np.concatenate([cv, ray_v, pv])
    if problem.kind == "ssnmf":
        cu = _stack_budget(np.maximum(cu, 0.0), problem.s1, axis=1)
        cv = _stack_budget(np.maximum(cv, 0.0), problem.s2, axis=2)
    elif problem.kind == "gnmf":
        cu = np.maximum(cu, 0.0)
        cv = np.maximum(cv, 0.0)
    return cu, cv


def test_criterion_01_prox_oracle_equivalence():
    t0 = time.perf_counter()
    rng = make_rng(101)
    for kind in ("gnmf", "wcmf", "ssnmf"):
        for _ in range(50):
            problem, x_bar, grad, eta = _random_prox_instance(kind, rng)
            spec = problem.kernel(eta)
            xp = problem.prox_step(grad, x_bar, eta)
            val_p = problem.prox_model_value(spec, grad, x_bar, eta, xp)

            cu, cv = _candidate_stacks(problem, x_bar, xp, rng, n_random=10_000)
            vals = _model_stack(problem, spec, grad, x_bar, eta, cu, cv)

            # Anchor the vectorized evaluator against the scalar one.
            for j in rng.integers(0, cu.shape[0], size=3):
                scalar = problem.prox_model_value(
                    spec, grad, x_bar, eta, FactorPair(cu[j], cv[j])
                )
                assert abs(scalar - vals[j]) <= 1e-9 * (1.0 + abs(scalar))

            assert val_p <= vals.min() + 1e-8, (
                f"{kind}: closed form {val_p} beaten by search {vals.min()}"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(1, "prox oracle equivalence")


# ---------------------------------------------------------------------------
# criterion 2: cubic solver


def _bisect_roots(a, b, iters=80):
    """Vectorized bisection for a t^3 + b t = 1 on [0, 1/b]."""
    lo = np.zeros_like(a)
    hi = 1.0 / b
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = a * mid * mid * mid + b * mid < 1.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_criterion_02_cubic_solver():
    t0 = time.perf_counter()
    rng = make_rng(102)
    n = 10_000
    a = rng.uniform(0.0, 100.0, n)
    a[:5] = 0.0
    b = np.maximum(rng.uniform(0.0, 100.0, n), 1e-9)
    roots = np.array([cubic_root(ai, bi) for ai, bi in zip(a, b)])
    residual = np.abs(a * roots**3 + b * roots - 1.0)
    assert residual.max() <= 1e-12
    oracle = _bisect_roots(a, b)
    rel = np.abs(roots - oracle) / np.abs(oracle)
    assert rel.max() <= 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passed(2, "cubic solver")


# ---------------------------------------------------------------------------
# criterion 3: smooth adaptability of the prescribed kernel


def test_criterion_03_smooth_adaptability():
    t0 = time.perf_counter()
    m_data = make_rng(103).uniform(0.2, 1.0, (3, 3))
    problem = build_problem("gnmf", m_data, 2, mu0=0.4, laplacian=_path_laplacian(3))
    report = check_smooth_adaptable(
        lambda x: (problem.smooth_value(x), problem.full_gradient(x)),
        problem.kernel(),
        l_upper=1.0,
        l_lower=1.0,
        shape_u=(3, 2),
        shape_v=(2, 3),
        samples=1000,
        rng=make_rng(104),
        low=0.0,
        high=1.0,
        tol=1e-8,
    )
    assert report.passed
    assert report.upper_excess <= 1e-8 and report.lower_excess <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(3, "smooth adaptability")


# ---------------------------------------------------------------------------
# criteria 4 and 5: deterministic Lyapunov descent and the rate bound


@pytest.fixture(scope="module")
def det_run():
    t0 = time.perf_counter()
    m_data, _ = generate_synthetic(
        SyntheticSpec(m=20, d=5, r_true=3, cluster_count=1, noise_sigma=0.0),
        make_rng(41),
    )
    problem = build_problem("gnmf", m_data, 3)
    x0 = init_point(20, 3, 5, make_rng(42))
    cfg = SolverConfig(
        algorithm="bpge",
        beta_mode="safeguarded",
        strict_theory_stepsize=True,
        l_bar=1.0,
        max_epochs=300,
        stop_tol=0.0,
        audit_per_iteration=True,
        keep_iterates=True,
        seed=43,
    )
    result = run(problem, cfg, x0)
    return {"problem": problem, "cfg": cfg, "result": result,
            "elapsed": time.perf_counter() - t0}


def test_criterion_04_deterministic_lyapunov_monotonicity(det_run):
    result = det_run["result"]
    cfg = det_run["cfg"]
    assert not result.failed
    assert result.iterations_run == 300
    psi = np.array([a.lyapunov for a in result.audits])
    assert psi.size == 300
    for k in range(1, psi.size):
        assert psi[k] - psi[k - 1] <= 1e-9 * (1.0 + abs(psi[k])), (
            f"Lyapunov increased at iteration {k}: {psi[k - 1]} -> {psi[k]}"
        )
    d_sum = float(sum(a.bregman_step for a in result.audits))
    assert d_sum <= 3.0 * result.psi1 / cfg.epsilon
    assert det_run["elapsed"] < 10.0, f"took {det_run['elapsed']:.1f}s"
    _passed(4, "deterministic Lyapunov monotonicity")


def test_criterion_05_rate_bound(det_run):
    result = det_run["result"]
    steps = [a.bregman_step for a in result.audits]
    report = rate_check(steps, result.psi1, det_run["cfg"].epsilon, k_max=300)
    assert report.passed
    assert report.first_violation is None
    _passed(5, "rate bound")


# ---------------------------------------------------------------------------
# criterion 6: degenerate stochastic estimators reproduce the full gradient


def test_criterion_06_estimator_identities():
    t0 = time.perf_counter()
    rng = make_rng(106)
    m_data = rng.uniform(0.1, 1.0, (6, 20))
    problem = build_problem("gnmf", m_data, 3, mu0=0.5, laplacian=_path_laplacian(6))
    x = FactorPair(rng.uniform(0.0, 0.5, (6, 3)), rng.uniform(0.0, 0.5, (3, 20)))

    full = FullGradient(problem)
    saga = make_estimator("saga", problem, batch_size=20, rng=make_rng(107))
    sarah = make_estimator("sarah", problem, batch_size=20, restart_prob=1.0,
                           rng=make_rng(108))
    saga.initialize(x)
    for _ in range(100):
        g_full = full.estimate(x)
        g_saga = saga.estimate(x)
        g_sarah = sarah.estimate(x)
        assert np.array_equal(g_full.u, g_saga.u) and np.array_equal(g_full.v, g_saga.v)
        assert np.array_equal(g_full.u, g_sarah.u) and np.array_equal(g_full.v, g_sarah.v)
        step = FactorPair(rng.normal(0.0, 0.02, x.u.shape), rng.normal(0.0, 0.02, x.v.shape))
        x = FactorPair(np.abs(x.u + step.u), np.abs(x.v + step.v))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passed(6, "estimator identities")


# ---------------------------------------------------------------------------
# criteria 7 and 8: tracking-error decay and convergence


@pytest.fixture(scope="module")
def decay_problem():
    m_data, _ = generate_synthetic(
        SyntheticSpec(m=10, d=20, r_true=2, cluster_count=2, noise_sigma=0.0),
        make_rng(200),
    )
    return build_problem("gnmf", m_data, 2)


@pytest.fixture(scope="module")
def decay_data(decay_problem):
    """SAGA audit records along geometrically converging query sequences.

    A prescribed trajectory x_j = x* + rho^j (x0 - x*) decouples the decay
    of the tracking error from the step sizes: once the steps collapse, the
    tracker can only decay at the table-refresh rate, which separates the
    true contraction constant from an inflated one.
    """
    t0 = time.perf_counter()
    problem = decay_problem
    n, b, rho, length = 20, 2, 0.5, 22
    records, trajectories, m1 = [], [], 0.0
    for s in range(10):
        rng = make_rng((210, s))
        x0 = init_point(10, 2, 20, rng)
        x_star = FactorPair(rng.uniform(0.5, 1.5, (10, 2)), rng.uniform(0.5, 1.5, (2, 20)))
        traj = [
            FactorPair(x_star.u + rho**j * (x0.u - x_star.u),
                       x_star.v + rho**j * (x0.v - x_star.v))
            for j in range(length + 1)
        ]
        estimator = SAGA(problem, b, make_rng((211, s)))
        estimator.initialize(traj[0])
        gammas, step_sqs = [], []
        for j in range(length):
            estimator.estimate(traj[j])
            audit = estimator.audit(traj[j], None)
            gammas.append(audit.gamma)
            step_sqs.append((traj[j + 1] - traj[j]).norm_sq())
        records.append((np.array(gammas), np.array(step_sqs)))
        trajectories.append(traj)
        m1 = max(m1, estimate_sample_lipschitz(problem, traj[:10]))
    return {"records": records, "trajectories": trajectories, "m1": m1,
            "n": n, "b": b, "elapsed": time.perf_counter() - t0}


def test_criterion_07_geometric_decay(decay_data):
    n, b, m1 = decay_data["n"], decay_data["b"], decay_data["m1"]
    tau = b / (2.0 * n)
    v_gamma = (2.0 * b + 4.0 * n) * m1 * m1 / (b * b)
    report = check_geometric_decay(decay_data["records"], tau, v_gamma)
    assert report.passed, f"violation fraction {report.violation_fraction}"
    negative = check_geometric_decay(decay_data["records"], 0.9, v_gamma)
    assert not negative.passed, (
        f"negative control tau=0.9 passed with fraction {negative.violation_fraction}"
    )
    assert decay_data["elapsed"] < 60.0
    _passed(7, "geometric decay")


@pytest.fixture(scope="module")
def saga_long_run(decay_problem):
    t0 = time.perf_counter()
    x0 = init_point(10, 2, 20, make_rng(220))
    cfg = SolverConfig(
        algorithm="bpsge",
        estimator="saga",
        batch_size=2,
        max_epochs=200,
        audit_every=1,
        keep_iterates=True,
        stop_tol=0.0,
        seed=221,
    )
    result = run(decay_problem, cfg, x0)
    return {"result": result, "elapsed": time.perf_counter() - t0}


def test_criterion_08_estimator_convergence(saga_long_run):
    result = saga_long_run["result"]
    assert not result.failed
    gammas = np.array([a.gamma for a in result.audits])
    initial = gammas[gammas > 0.0][0]
    final = gammas[-1]
    assert final < 1e-6 * initial, f"final {final} vs initial {initial}"
    assert saga_long_run["elapsed"] < 30.0
    _passed(8, "estimator convergence")


# ---------------------------------------------------------------------------
# criterion 9: gradients against central finite differences


def _random_gradient_problem(i, rng):
    m = int(rng.integers(2, 5))
    d = int(rng.integers(2, 5))
    r = int(rng.integers(1, min(m, d) + 1))
    which = i % 4
    if which == 0:
        return build_problem("gnmf", rng.uniform(0.1, 1.0, (m, d)), r)
    if which == 1:
        return build_problem(
            "gnmf", rng.uniform(0.1, 1.0, (m, d)), r, mu0=0.3,
            laplacian=_path_laplacian(m),
        )
    if which == 2:
        return build_problem("wcmf", rng.uniform(-1.0, 1.0, (m, d)), r,
                             lambda1=0.4, lambda2=0.1)
    return build_problem("ssnmf", rng.uniform(0.1, 1.0, (m, d)), r,
                         s1=max(1, m - 1), s2=max(1, d - 1))


def test_criterion_09_gradient_correctness():
    t0 = time.perf_counter()
    rng = make_rng(109)
    for i in range(100):
        problem = _random_gradient_problem(i, rng)
        (m, r, d) = problem.shape
        x = FactorPair(rng.uniform(0.1, 1.0, (m, r)), rng.uniform(0.1, 1.0, (r, d)))
        grad = problem.full_gradient(x)
        approx = fd_gradient(problem.smooth_value, x, h=1e-5)
        assert (grad - approx).norm() <= 1e-6 * (1.0 + grad.norm())
    for _ in range(100):
        spec = KernelSpec(
            float(rng.uniform(0.5, 5.0)),
            float(rng.uniform(0.1, 5.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))
        x = FactorPair(rng.uniform(-1.0, 1.0, (m, r)), rng.uniform(-1.0, 1.0, (r, d)))
        grad = kernel_gradient(spec, x)
        approx = fd_gradient(lambda y: kernel_value(spec, y), x, h=1e-5)
        assert (grad - approx).norm() <= 1e-6 * (1.0 + grad.norm())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(9, "gradient correctness")


# ---------------------------------------------------------------------------
# criterion 10: minibatch unbiasedness by exhaustive enumeration


def test_criterion_10_minibatch_unbiasedness():
    t0 = time.perf_counter()
    rng = make_rng(110)
    problem = build_problem("gnmf", rng.uniform(0.1, 1.0, (5, 6)), 2, mu0=0.4,
                            laplacian=_path_laplacian(5))
    x = FactorPair(rng.uniform(0.0, 1.0, (5, 2)), rng.uniform(0.0, 1.0, (2, 6)))
    full = problem.full_gradient(x)
    data = problem.data_gradient(x)
    graph = full - data  # the deterministic part every estimate carries
    batches = list(itertools.combinations(range(6), 2))
    acc_u = np.zeros_like(x.u)
    acc_v = np.zeros_like(x.v)
    for batch in batches:
        g = problem.minibatch_data_gradient(x, list(batch)) + graph
        acc_u += g.u
        acc_v += g.v
    mean = FactorPair(acc_u / len(batches), acc_v / len(batches))
    scale = 1.0 + max(float(np.abs(full.u).max()), float(np.abs(full.v).max()))
    assert float(np.abs(mean.u - full.u).max()) <= 1e-12 * scale
    assert float(np.abs(mean.v - full.v).max()) <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passed(10, "minibatch unbiasedness")


# ---------------------------------------------------------------------------
# criteria 11 to 13: paired extrapolation benefit, feasibility, reproducibility


_COMPARE_DICT = {
    "name": "extrap",
    "trials": 10,
    "seed": 77,
    "emit": ["trace_csv", "summary_json"],
    "problem": {
        "kind": "gnmf",
        "rank": 5,
        "data": {
            "synthetic": {
                "m": 60, "d": 40, "r_true": 5, "cluster_count": 3,
                "noise_sigma": 0.05,
            }
        },
    },
    "solver": {"max_epochs": 50},
    "compare": [
        {"algorithm": "bpg"},
        {"algorithm": "bpge"},
        {"algorithm": "bpsg", "estimator": "saga"},
        {"algorithm": "bpsge", "estimator": "saga"},
    ],
}


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("compare_a")
    cfg = ExperimentConfig.from_dict(dict(_COMPARE_DICT, out_dir=str(out_dir)))
    t0 = time.perf_counter()
    top, paths = run_compare(cfg)
    return {"cfg": cfg, "top": top, "out_dir": out_dir,
            "elapsed": time.perf_counter() - t0}


def test_criterion_11_extrapolation_benefit(compare_run):
    combos = compare_run["top"]["combos"]
    assert compare_run["top"]["status"] == "ok"
    stochastic_e = combos["bpsge_saga"]["final_objective_mean"]
    stochastic = combos["bpsg_saga"]["final_objective_mean"]
    deterministic_e = combos["bpge"]["final_objective_mean"]
    deterministic = combos["bpg"]["final_objective_mean"]
    assert stochastic_e <= 1.02 * stochastic, (stochastic_e, stochastic)
    assert deterministic_e <= 1.02 * deterministic, (deterministic_e, deterministic)
    assert compare_run["elapsed"] < 180.0
    _passed(11, "extrapolation benefit")


def test_criterion_12_feasibility_invariants(det_run, decay_data, saga_long_run,
                                             compare_run):
    checked = 0

    def assert_nonneg(point, where):
        nonlocal checked
        assert point.u.min() >= 0.0 and point.v.min() >= 0.0, where
        checked += 1

    for i, point in enumerate(det_run["result"].iterates):
        assert_nonneg(point, f"deterministic run iterate {i}")
    for s, traj in enumerate(decay_data["trajectories"]):
        for j, point in enumerate(traj):
            assert_nonneg(point, f"decay trajectory {s} query {j}")
    for i, point in enumerate(saga_long_run["result"].iterates):
        assert_nonneg(point, f"long SAGA run iterate {i}")

    # Replay the paired-comparison runs with iterate retention; identical
    # seeds reproduce the exact sequences the comparison produced.
    cfg = compare_run["cfg"]
    m_data, _ = load_experiment_data(cfg)
    problem = build_experiment_problem(cfg, m_data)
    for overrides in cfg.compare:
        solver_cfg = replace(cfg.solver, keep_iterates=True, **overrides)
        for t in range(cfg.trials):
            x0 = _trial_init(cfg, problem, t)
            trial_cfg = replace(solver_cfg, seed=(cfg.seed, 2000 + t))
            result = run(problem, trial_cfg, x0)
            assert not result.failed
            for i, point in enumerate(result.iterates):
                assert_nonneg(point, f"compare {overrides} trial {t} iterate {i}")

    # Dedicated sparse run: the hard budgets must hold exactly, every iterate.
    rng = make_rng(112)
    m_data = rng.uniform(0.1, 1.0, (12, 10))
    s1, s2 = 2, 4
    sparse = build_problem("ssnmf", m_data, 3, s1=s1, s2=s2)
    x0 = FactorPair(
        hard_threshold_axis(rng.uniform(0.0, 0.1, (12, 3)), s1, axis=0),
        hard_threshold_axis(rng.uniform(0.0, 0.1, (3, 10)), s2, axis=1),
    )
    sparse_cfg = SolverConfig(algorithm="bpsge", estimator="saga", batch_size=2,
                              max_epochs=30, stop_tol=0.0, keep_iterates=True,
                              seed=113)
    result = run(sparse, sparse_cfg, x0)
    assert not result.failed
    for i, point in enumerate(result.iterates):
        assert_nonneg(point, f"sparse run iterate {i}")
        assert (np.count_nonzero(point.u, axis=0) <= s1).all(), f"iterate {i}"
        assert (np.count_nonzero(point.v, axis=1) <= s2).all(), f"iterate {i}"
        assert sparse.is_feasible(point, tol=0.0)

    assert checked > 300
    _passed(12, "feasibility invariants")


def test_criterion_13_reproducibility(compare_run, tmp_path_factory):
    out_b = tmp_path_factory.mktemp("compare_b")
    cfg = ExperimentConfig.from_dict(dict(_COMPARE_DICT, out_dir=str(out_b)))
    run_compare(cfg)
    traces_a = sorted(Path(compare_run["out_dir"]).glob("trace_*.csv"))
    traces_b = sorted(out_b.glob("trace_*.csv"))
    assert len(traces_a) == len(traces_b) == 4
    for pa, pb in zip(traces_a, traces_b):
        assert pa.name == pb.name
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs"
    _passed(13, "reproducibility")


# ---------------------------------------------------------------------------
# criterion 14: end-to-end clustering pipeline


def test_criterion_14_clustering_pipeline(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "name": "clusters",
        "trials": 10,
        "seed": 31,
        "out_dir": str(tmp_path),
        "emit": ["summary_json"],
        "problem": {
            "kind": "gnmf",
            "rank": 3,
            "data": {
                "synthetic": {
                    "m": 30, "d": 40, "r_true": 3, "cluster_count": 3,
                    "noise_sigma": 0.05,
                }
            },
        },
        "solver": {"algorithm": "bpsge", "estimator": "saga", "max_epochs": 80},
        "clustering": {"k": 3},
    })
    summary, _ = run_experiment(cfg)
    assert summary["status"] == "ok"
    assert summary["accuracy_mean"] >= 0.9, summary["accuracy_mean"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passed(14, "clustering pipeline")
