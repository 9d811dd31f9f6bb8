"""Solver loop: schedules, step sizes, traces, audits, failure handling."""

import itertools
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregopt.harness import SyntheticSpec, generate_synthetic, init_point
from bregopt.kernels import FactorPair, KernelSpec, bregman_distance, kernel_gradient
from bregopt import solver
from bregopt.estimators import SAGA, SARAH, MinibatchSGD
from bregopt.numeric import make_rng
from bregopt.problems import Problem, build_knn_laplacian, build_problem
from bregopt.solver import (
    RateCheckReport,
    RunResult,
    SolverConfig,
    extrapolate,
    lyapunov,
    rate_check,
    run,
    stationarity_witness,
    step_size,
)

from .test_kernels import random_pair


@pytest.fixture
def small_gnmf():
    rng = make_rng(50)
    m_data = rng.uniform(0.1, 1.0, (8, 10))
    return build_problem("gnmf", m_data, 2)


def start_point(problem, seed=51):
    m, r, d = problem.shape
    rng = make_rng(seed)
    return FactorPair(rng.uniform(0, 0.1, (m, r)), rng.uniform(0, 0.1, (r, d)))


# -- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd")
    with pytest.raises(ValueError):
        SolverConfig(estimator="svrg")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=solver._DELTA)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    # Each variant has one spelling: the algorithm says whether a run
    # extrapolates and whether it samples columns.
    assert solver._BETA_MODES == ("scheduled", "safeguarded")
    with pytest.raises(ValueError, match="beta_mode"):
        SolverConfig(algorithm="bpg", beta_mode="off")
    for algorithm in ("bpsg", "bpsge"):
        with pytest.raises(ValueError, match=f"estimator 'full' .* {algorithm} takes"):
            SolverConfig(algorithm=algorithm, estimator="full")
    # L_bar = 1 is the kernel's, not an option.
    assert "l_bar" not in {f.name for f in fields(SolverConfig)}
    assert len(fields(SolverConfig)) == 12
    with pytest.raises(TypeError):
        SolverConfig(l_bar=1.0)


def test_config_resolution_forces_variant_restrictions():
    cfg = SolverConfig(algorithm="bpg", estimator="saga").resolved()
    assert cfg.estimator == "full" and cfg.beta_mode == "scheduled"
    cfg = SolverConfig(algorithm="bpge", estimator="sarah").resolved()
    assert cfg.estimator == "full"
    cfg = SolverConfig(algorithm="bpsg", beta_mode="safeguarded")
    assert cfg.resolved() is cfg
    cfg = SolverConfig(algorithm="bpsge")
    assert cfg.resolved() is cfg and cfg.estimator == "saga"


# -- extrapolation ----------------------------------------------------------


def test_beta_schedule_values(small_gnmf):
    cfg = SolverConfig(beta_mode="scheduled")
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    y = start_point(small_gnmf, seed=52)
    _, beta1 = extrapolate(x, y, 1, cfg, kern, 1.0, 0.0)
    assert beta1 == 0.0  # (k-1)/(k+2) vanishes at k = 1
    _, beta4 = extrapolate(x, y, 4, cfg, kern, 1.0, 0.0)
    assert beta4 == pytest.approx(0.3)  # 0.6 * 3/6
    _, beta0 = extrapolate(x, y, 0, cfg, kern, 1.0, 0.0)
    assert beta0 == 0.0


@pytest.mark.parametrize("beta_mode", ["scheduled", "safeguarded"])
@pytest.mark.parametrize(
    "variant",
    [
        {"algorithm": "bpg"},
        {"algorithm": "bpg", "estimator": "saga"},
        {"algorithm": "bpsg", "estimator": "saga"},
        {"algorithm": "bpsg", "estimator": "sarah"},
    ],
    ids=["bpg", "bpg-unresolved", "bpsg-saga", "bpsg-sarah"],
)
def test_non_extrapolating_variants_return_x_k(small_gnmf, variant, beta_mode):
    # The algorithm alone says whether a run extrapolates: bpg and bpsg
    # return x_k itself with beta 0 under either beta mode, resolved or not.
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    y = start_point(small_gnmf, 52)
    cfg = SolverConfig(beta_mode=beta_mode, **variant)
    for k in (2, 5, 40):
        x_bar, beta = extrapolate(x, y, k, cfg, kern, 1.0, 1.0, d_prev=1.0)
        assert beta == 0.0 and x_bar is x
    extrapolating = replace(cfg, algorithm=cfg.algorithm + "e")
    assert extrapolate(x, y, 5, extrapolating, kern, 1.0, 1.0, d_prev=1.0)[1] > 0.0


def test_extrapolate_no_movement(small_gnmf):
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    cfg = SolverConfig(beta_mode="scheduled")
    x_bar, beta = extrapolate(x, x.copy(), 5, cfg, kern, 1.0, 0.0)
    assert beta == 0.0  # identical iterates give nothing to extrapolate


def test_extrapolated_point_formula(small_gnmf):
    cfg = SolverConfig(beta_mode="scheduled")
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    y = start_point(small_gnmf, 52)
    x_bar, beta = extrapolate(x, y, 10, cfg, kern, 1.0, 0.0)
    assert np.allclose(x_bar.u, x.u + beta * (x.u - y.u))
    assert np.allclose(x_bar.v, x.v + beta * (x.v - y.v))


def test_safeguarded_beta_respects_distance_inequality(small_gnmf):
    cfg = SolverConfig(beta_mode="safeguarded", epsilon=0.1)
    kern = small_gnmf.kernel(1.0)
    rng = make_rng(53)
    for k in (2, 5, 20):
        x = random_pair(rng, 8, 2, 10, 0.0, 1.0)
        y = random_pair(rng, 8, 2, 10, 0.0, 1.0)
        l_under, eta_prev = 2.0, 0.25
        x_bar, beta = extrapolate(x, y, k, cfg, kern, eta_prev, l_under)
        d_prev = bregman_distance(kern, y, x)
        growth = (solver._DELTA - 0.1) / (1.0 + l_under * eta_prev)
        bound = growth * max(d_prev, 0.0)
        assert bregman_distance(kern, x, x_bar) <= bound + 1e-12
        assert 0.0 <= beta <= 0.6 * (k - 1) / (k + 2)
        # A caller that holds D(x_{k-1}, x_k) gets the same point and beta.
        x_given, beta_given = extrapolate(
            x, y, k, cfg, kern, eta_prev, l_under, d_prev=d_prev
        )
        assert beta_given == beta
        assert np.array_equal(x_given.u, x_bar.u)
        assert np.array_equal(x_given.v, x_bar.v)


def test_safeguard_reuses_the_previous_bregman_step(small_gnmf, monkeypatch):
    # Each D(x_k, x_{k+1}) is computed once, from the carried norms, as the
    # step's Bregman step; the next safeguard reads it from the loop, and
    # ``bregman_distance`` serves only the safeguard's halving loop.
    pairs = []
    given = []
    distance = solver.bregman_distance
    extrapolate_ = solver.extrapolate

    def recording(kernel, x, y):
        pairs.append((x, y))  # holds the points, so their ids stay unique
        return distance(kernel, x, y)

    def recording_extrapolate(*args):
        given.append(args[7])  # d_prev
        return extrapolate_(*args)

    monkeypatch.setattr(solver, "bregman_distance", recording)
    monkeypatch.setattr(solver, "extrapolate", recording_extrapolate)
    cfg = SolverConfig(
        algorithm="bpge",
        beta_mode="safeguarded",
        max_epochs=30,
        audit_per_iteration=True,
        keep_iterates=True,
    )
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert not res.failed
    assert any(row.beta > 0.0 for row in res.trace)
    assert given == [0.0] + [rec.bregman_step for rec in res.audits[:-1]]
    xs = res.iterates
    steps = {(id(a), id(b)) for a, b in zip(xs, xs[1:])}
    assert pairs and not any((id(x), id(y)) in steps for x, y in pairs)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_safeguard_needs_no_carried_step(kind):
    # Without d_prev, extrapolate takes D(x_{k-1}, x_k) with bregman_distance,
    # the formula of the run's carried step, so it returns the run's
    # (x_bar, beta) bit for bit.  epsilon 0.8 lowers the bound to about
    # D(x_{k-1}, x_k)/10, so the safeguard cuts the later betas.
    problem = kind_problem(kind)
    halved = 0
    for estimator in ("full", "sgd", "saga", "sarah"):
        cfg = SolverConfig(
            algorithm="bpge" if estimator == "full" else "bpsge",
            estimator=estimator,
            beta_mode="safeguarded",
            epsilon=0.8,
            batch_size=3,
            max_epochs=8,
            audit_per_iteration=True,
            keep_iterates=True,
            seed=4,
        )
        res = run(problem, cfg, start_point(problem))
        assert not res.failed
        eta, l_eff, _ = step_size(problem, cfg)
        kern = problem.kernel(eta)
        xs = res.iterates
        for k in range(1, res.iterations_run):
            rec = res.audits[k]
            args = (xs[k], xs[k - 1], k, cfg, kern, eta, l_eff)
            x_carried, beta_carried = extrapolate(*args, d_prev=rec.bregman_prev)
            x_fresh, beta_fresh = extrapolate(*args)
            assert beta_fresh == beta_carried == rec.beta
            assert x_fresh.u.tobytes() == x_carried.u.tobytes()
            assert x_fresh.v.tobytes() == x_carried.v.tobytes()
            halved += rec.beta < 0.6 * (k - 1) / (k + 2)
    assert halved  # the safeguard cut some beta


# -- step size --------------------------------------------------------------


def test_step_size_inverse_curvature(small_gnmf, monkeypatch):
    # A stochastic step is c_b = min(1/2, sqrt(b/n)) for the effective batch
    # size b of n = 10 columns, and its effective constant is the inverse,
    # 1/c_b; no curvature is taken.
    def no_curvature(self, x_bar):
        raise AssertionError("stochastic steps take no curvature")

    monkeypatch.setattr(Problem, "local_lipschitz", no_curvature)
    for algorithm, batch_size, c_b in [
        ("bpsge", 0, math.sqrt(0.1)),  # the 5% default, at least b = 1
        ("bpsge", 2, math.sqrt(0.2)),
        ("bpsg", 3, 0.5),
        ("bpsge", 50, 0.5),  # clamped to b = n
    ]:
        cfg = SolverConfig(algorithm=algorithm, batch_size=batch_size)
        eta, l_eff, floored = step_size(small_gnmf, cfg)
        assert eta == c_b and l_eff == 1.0 / c_b
        assert not floored


def test_step_size_strict_mode_caps(small_gnmf):
    cfg = SolverConfig(strict_theory_stepsize=True)
    # n = 10 columns and the default batch b = 1: c_b = sqrt(0.1) < 1, and
    # strict mode leaves a problem with alpha = 0 at that step.
    eta, l_eff, _ = step_size(small_gnmf, cfg)
    assert eta == pytest.approx(math.sqrt(0.1))
    assert l_eff == pytest.approx(1.0 / math.sqrt(0.1)) and l_eff >= 1.0
    # A weakly convex problem additionally caps by (1 - delta)/alpha.
    wprob = build_problem("wcmf", small_gnmf.m_data, 2, lambda1=0.5, lambda2=0.1)
    eta, _, _ = step_size(wprob, cfg)
    assert eta <= (1.0 - 0.99) / 0.1 + 1e-12


def floored_wcmf(problem):
    """wcmf on ``problem``'s data with alpha = lambda2 = 1e7: strict mode caps
    the step at (1 - delta)/alpha = 1e-9, below the 1e-8 floor."""
    return build_problem("wcmf", problem.m_data, 2, lambda1=0.05, lambda2=1e7)


def test_step_size_floor(small_gnmf):
    cfg = SolverConfig(strict_theory_stepsize=True)
    eta, _, floored = step_size(floored_wcmf(small_gnmf), cfg)
    assert eta == solver._ETA_FLOOR == 1e-8 and floored
    # Without strict mode, or at alpha = 1e6, no step reaches the floor.
    loose = replace(cfg, strict_theory_stepsize=False)
    assert step_size(floored_wcmf(small_gnmf), loose)[1:] == (1.0 / math.sqrt(0.1), False)
    wprob = build_problem("wcmf", small_gnmf.m_data, 2, lambda1=0.05, lambda2=1e6)
    eta, _, floored = step_size(wprob, cfg)
    assert eta >= 1e-8 and not floored


@pytest.mark.parametrize(
    "variant", [{"algorithm": "bpg"}, {"estimator": "saga"}], ids=["bpg", "bpsge-saga"]
)
def test_run_reports_the_floor_only_if_it_took_a_step(small_gnmf, variant):
    # In strict mode at alpha = 1e7 every variant's capped step falls below
    # the floor: a run that steps takes 1e-8 and says so; a 0-epoch run
    # takes no step.
    problem = floored_wcmf(small_gnmf)
    x = start_point(problem)
    cfg = SolverConfig(strict_theory_stepsize=True, max_epochs=2, **variant)
    res = run(problem, cfg, x)
    assert not res.failed and res.hit_eta_floor
    assert [t.eta for t in res.trace[1:]] == [1e-8, 1e-8]
    assert not run(problem, replace(cfg, max_epochs=0), x).hit_eta_floor


@pytest.mark.parametrize(
    "variant", [{"algorithm": "bpg"}, {"estimator": "saga"}], ids=["bpg", "bpsge-saga"]
)
def test_run_fixes_its_step_once(small_gnmf, variant, monkeypatch):
    # The step is a constant of the run: one step_size call, not one per
    # iteration (3 for bpg, 30 for bpsge at b = 1 of n = 10).
    calls = []

    def counted(*args):
        calls.append(args)
        return step_size(*args)

    monkeypatch.setattr(solver, "step_size", counted)
    res = run(small_gnmf, SolverConfig(max_epochs=3, **variant), start_point(small_gnmf))
    assert not res.failed and res.iterations_run >= 3
    assert len(calls) == 1


@pytest.mark.parametrize("algorithm", ["bpg", "bpge"])
def test_full_gradient_step_is_one(small_gnmf, algorithm, monkeypatch):
    # Smooth adaptability alone bounds a full-gradient step, at the kernel's
    # L_bar = 1: no curvature is taken, and L_under is 1.  The rule follows
    # the algorithm, so an unresolved config (estimator still saga) steps as
    # the resolved one.
    def no_curvature(self, x_bar):
        raise AssertionError("full-gradient steps take no curvature")

    monkeypatch.setattr(Problem, "local_lipschitz", no_curvature)
    x = start_point(small_gnmf)
    for estimator in ("saga", "full"):
        cfg = SolverConfig(algorithm=algorithm, estimator=estimator)
        assert step_size(small_gnmf, cfg) == (1.0, 1.0, False)
    # Strict mode on a weakly convex problem still caps by (1 - delta)/alpha.
    wprob = build_problem("wcmf", small_gnmf.m_data, 2, lambda1=0.5, lambda2=0.1)
    cfg = SolverConfig(algorithm=algorithm, strict_theory_stepsize=True)
    cap = (1.0 - solver._DELTA) / 0.1
    assert step_size(wprob, cfg) == (cap, 1.0, False)
    res = run(wprob, replace(cfg, max_epochs=5), x)
    assert not res.failed and [t.eta for t in res.trace[1:]] == [cap] * 5
    # Without strict mode a run steps at 1 throughout.
    res = run(small_gnmf, SolverConfig(algorithm=algorithm, max_epochs=5), x)
    assert not res.failed and [t.eta for t in res.trace] == [1.0] * 6


# -- lyapunov and witness ---------------------------------------------------


def test_lyapunov_deterministic_form():
    # gamma = 0 drops the tracker term regardless of the tracker value.
    psi = lyapunov(0.5, 2.0, 0.3, 0.1, 99.0, epsilon=0.03)
    want = 0.5 * 2.0 + (1 - 0.01) * 0.3 + 0.01 * 0.1
    assert psi == pytest.approx(want)


def test_lyapunov_stochastic_form():
    psi = lyapunov(
        0.5, 2.0, 0.3, 0.1, 4.0, epsilon=0.03, alpha=0.2, gamma=0.25, tau=0.5
    )
    t_k = 1 - 0.5 * 0.2 - 0.5 * 0.25 - 0.01
    want = 0.5 * 2.0 + t_k * 0.3 + (0.5 * 0.25 / 2 + 0.01) * 0.1
    want += 0.5 * 4.0 / (2 * 0.5 * 0.25)
    assert psi == pytest.approx(want)


@pytest.mark.parametrize(
    "algorithm, estimator", [("bpsge", "saga"), ("bpsge", "sarah"), ("bpge", "full")]
)
def test_audit_records_hold_every_lyapunov_input(algorithm, estimator):
    # Each record alone reproduces its Lyapunov value, so a variant with
    # another gamma, tau or lower bound is one ``lyapunov`` call per record.
    problem = kind_problem("wcmf")
    cfg = SolverConfig(
        algorithm=algorithm,
        estimator=estimator,
        batch_size=3,
        max_epochs=4,
        audit_per_iteration=True,
        seed=9,
    )
    res = run(problem, cfg, start_point(problem))
    assert not res.failed and res.audits
    assert problem.weak_convexity > 0.0
    for rec in res.audits:
        psi = lyapunov(
            rec.eta,
            rec.objective,
            rec.bregman_step,
            rec.bregman_prev,
            rec.gamma,
            cfg.epsilon,
            alpha=problem.weak_convexity,
        )
        assert psi == rec.lyapunov
        assert math.isfinite(rec.gamma)


def test_stationarity_witness_zero_at_fixed_point(small_gnmf):
    # If the prox returns x_bar itself and the gradient is the true one, in
    # the same form, the witness collapses to the zero vector.
    x = start_point(small_gnmf)
    products = small_gnmf.data_products(x)
    g = small_gnmf.full_gradient(x, products)
    kern = small_gnmf.kernel(0.5)
    w = stationarity_witness(small_gnmf, x, x, g, 0.5, kern, products)
    assert w == 0.0


def test_stationarity_witness_certifies_prox_output(small_gnmf):
    # For a strictly positive prox output no constraint is active, so the
    # optimality condition reads grad psi(x_next) = grad psi(x_bar) - eta g
    # exactly (up to the cubic solver's 1e-12 residual) and the witness
    # collapses to |grad f(x_next)|, the unique subgradient there.
    x_bar = random_pair(make_rng(54), 8, 2, 10, 0.5, 1.0)
    g = small_gnmf.full_gradient(x_bar)
    eta = 0.01  # small step keeps the output strictly positive
    kern = small_gnmf.kernel(eta)
    x_next = small_gnmf.prox_step(g, x_bar, eta)
    assert x_next.u.min() > 0 and x_next.v.min() > 0
    w = stationarity_witness(small_gnmf, x_next, x_bar, g, eta, kern)
    want = small_gnmf.full_gradient(x_next).norm()
    assert w == pytest.approx(want, rel=1e-7)


# -- run: traces and reproducibility ----------------------------------------


def test_run_trace_shape_and_epoch_numbering(small_gnmf):
    cfg = SolverConfig(algorithm="bpsge", batch_size=3, max_epochs=7, seed=1)
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert not res.failed
    assert [t.epoch for t in res.trace] == list(range(8))
    assert res.iterations_run == 7 * math.ceil(10 / 3)
    assert res.trace[0].bregman_step == 0.0
    assert res.audits == []


def test_run_is_reproducible_and_seed_sensitive(small_gnmf):
    cfg = SolverConfig(batch_size=2, max_epochs=5, seed=7)
    x0 = start_point(small_gnmf)
    r1 = run(small_gnmf, cfg, x0)
    r2 = run(small_gnmf, cfg, x0)
    assert np.array_equal(r1.x.u, r2.x.u) and np.array_equal(r1.x.v, r2.x.v)
    assert [t.objective for t in r1.trace] == [t.objective for t in r2.trace]
    r3 = run(small_gnmf, replace(cfg, seed=8), x0)
    assert not np.array_equal(r1.x.u, r3.x.u)


def test_run_accepts_tuple_seed(small_gnmf):
    cfg = SolverConfig(batch_size=2, max_epochs=3, seed=(5, 11))
    x0 = start_point(small_gnmf)
    r1 = run(small_gnmf, cfg, x0)
    r2 = run(small_gnmf, cfg, x0)
    assert np.array_equal(r1.x.u, r2.x.u)


@pytest.mark.parametrize(
    "algorithm,estimator,kind",
    [
        pytest.param("bpge", "full", "wcmf", id="bpge-full"),
        pytest.param("bpsge", "saga", "wcmf", id="bpsge-saga"),
        pytest.param("bpsge", "saga", "gnmf", id="bpsge-saga-gnmf-csr"),
    ],
)
def test_run_is_bitwise_reproducible_at_blas_size(algorithm, estimator, kind):
    # At 200 x 300 OpenBLAS may split its dot and GEMM kernels over threads;
    # two runs in one process must still agree bit for bit.  The gnmf case
    # applies its 5-NN Laplacian through the sparse product.
    rng = make_rng(60)
    m_data = rng.uniform(0.1, 1.0, (200, 300))
    if kind == "wcmf":
        prob = build_problem("wcmf", m_data, 5, lambda1=0.1, lambda2=0.05)
    else:
        lap = build_knn_laplacian(m_data, p_neighbors=5)
        prob = build_problem("gnmf", m_data, 5, mu0=0.1, laplacian=lap)
        assert scipy.sparse.issparse(prob.laplacian)
    cfg = SolverConfig(
        algorithm=algorithm,
        estimator=estimator,
        max_epochs=3,
        keep_iterates=True,
        seed=4,
    )
    x0 = start_point(prob, seed=61)
    r1 = run(prob, cfg, x0)
    r2 = run(prob, cfg, x0)
    assert not r1.failed and len(r1.iterates) > 3
    assert len(r1.iterates) == len(r2.iterates)
    for a, b in zip(r1.iterates, r2.iterates):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def rows(res):
        return [repr(astuple(replace(t, wall_ms=0.0))) for t in res.trace]

    assert len(r1.trace) == 4
    assert rows(r1) == rows(r2)


def test_bpg_objective_monotone(small_gnmf):
    # Deterministic proximal descent with no extrapolation must not increase
    # the objective at the per-epoch level.
    cfg = SolverConfig(algorithm="bpg", max_epochs=40, seed=3)
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    objs = [t.objective for t in res.trace]
    assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))
    assert objs[-1] < objs[0]


def test_eta_trace_is_monotone_nonincreasing(small_gnmf):
    cfg = SolverConfig(algorithm="bpsge", batch_size=2, max_epochs=10, seed=5)
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    etas = [t.eta for t in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))


def test_run_audit_mode_populates_records(small_gnmf):
    cfg = SolverConfig(
        algorithm="bpsge",
        batch_size=3,
        max_epochs=4,
        audit_per_iteration=True,
        keep_iterates=True,
        seed=9,
    )
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert len(res.audits) == res.iterations_run
    assert len(res.iterates) == res.iterations_run + 1
    assert math.isfinite(res.psi1)
    assert res.audits[0].iteration == 0
    for a in res.audits:
        assert math.isfinite(a.lyapunov)
        assert a.gamma >= 0.0
        assert a.bregman_step >= -1e-12
        # Every audited step evaluates the objective its Lyapunov value needs.
        assert math.isfinite(a.objective)
        assert a.objective == small_gnmf.objective(res.iterates[a.iteration + 1])
    # The trace's objective at each epoch's end is its last audit's.
    assert res.trace[-1].objective == res.audits[-1].objective


def test_run_audit_every_epoch_boundaries(small_gnmf):
    cfg = SolverConfig(
        algorithm="bpsg", batch_size=5, max_epochs=6, audit_every=2, seed=10
    )
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert [a.epoch for a in res.audits] == [2, 4, 6]
    for a in res.audits:
        assert res.trace[a.epoch].objective == a.objective
        assert math.isfinite(a.lyapunov)


def test_psi1_is_the_first_steps_audited_lyapunov(small_gnmf):
    assert "psi1" not in {f.name for f in fields(RunResult)}
    x0 = start_point(small_gnmf)
    base = SolverConfig(algorithm="bpsge", batch_size=3, max_epochs=2, seed=12)
    res = run(small_gnmf, replace(base, audit_per_iteration=True), x0)
    assert res.audits[0].iteration == 0
    assert res.psi1 == res.audits[0].lyapunov
    # Four steps per epoch: audit_every=1 audits each epoch's last step only.
    res = run(small_gnmf, replace(base, audit_every=1), x0)
    assert [a.iteration for a in res.audits] == [3, 7]
    assert math.isnan(res.psi1)
    assert math.isnan(run(small_gnmf, base, x0).psi1)


@pytest.mark.parametrize(
    "algorithm, estimator",
    [("bpsge", "saga"), ("bpsge", "sarah"), ("bpsge", "sgd"), ("bpsg", "saga")],
)
def test_run_evaluates_objective_once_per_epoch(
    small_gnmf, monkeypatch, algorithm, estimator
):
    # Stochastic steps skip the full objective pass: it runs for the start
    # point and once at each epoch's last iterate, and nowhere else.
    calls = []
    objective = small_gnmf.objective
    monkeypatch.setattr(
        small_gnmf,
        "objective",
        lambda x, *args: calls.append(x) or objective(x, *args),
    )
    cfg = SolverConfig(
        algorithm=algorithm, estimator=estimator, batch_size=3, max_epochs=4, seed=4
    )
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert not res.failed
    assert res.iterations_run == 4 * math.ceil(10 / 3)
    assert len(calls) == len(res.trace) == 5
    assert res.trace[-1].objective == objective(res.x)


def test_run_failure_mid_epoch_records_no_partial_row(small_gnmf, monkeypatch):
    # 4 steps per epoch; iteration 6 is the third step of epoch 2.
    calls = []
    prox_step = small_gnmf.prox_step

    def failing_prox(*args, **kwargs):
        calls.append(None)
        if len(calls) == 7:
            raise ValueError("injected failure")
        return prox_step(*args, **kwargs)

    monkeypatch.setattr(small_gnmf, "prox_step", failing_prox)
    cfg = SolverConfig(algorithm="bpsge", batch_size=3, max_epochs=5, seed=13)
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert res.failed
    assert res.message.startswith("iteration 6:")
    assert [t.epoch for t in res.trace] == [0, 1]
    assert all(math.isfinite(t.objective) for t in res.trace)


def kind_problem(kind):
    m_data = make_rng(60).uniform(0.1, 1.0, (8, 10))
    params = {
        "gnmf": {},
        "wcmf": {"lambda1": 0.1, "lambda2": 0.05},
        "ssnmf": {"s1": 4, "s2": 5},
    }
    return build_problem(kind, m_data, 2, **params[kind])


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_run_checks_each_iterate_once(kind, monkeypatch):
    # Each iterate is checked once, by the finiteness check of the prox that
    # makes it; gradients, estimates, extrapolated points, pair arithmetic
    # and the prox output are not re-checked by the checked constructor.
    problem = kind_problem(kind)
    x0 = start_point(problem)
    checked = []
    post_init = FactorPair.__post_init__
    prox_step = problem.prox_step

    def counting(self):
        checked.append("constructor")
        post_init(self)

    def counting_prox(*args, **kwargs):
        checked.append("prox")
        return prox_step(*args, **kwargs)

    monkeypatch.setattr(FactorPair, "__post_init__", counting)
    monkeypatch.setattr(problem, "prox_step", counting_prox)
    variants = [
        ("bpg", "full"),
        ("bpge", "full"),
        ("bpsg", "saga"),
        ("bpsge", "saga"),
        ("bpsge", "sarah"),
        ("bpsge", "sgd"),
    ]
    for (algorithm, estimator), audit in itertools.product(variants, (False, True)):
        cfg = SolverConfig(
            algorithm=algorithm,
            estimator=estimator,
            batch_size=3,
            max_epochs=3,
            audit_per_iteration=audit,
            seed=6,
        )
        checked.clear()
        res = run(problem, cfg, x0)
        assert not res.failed
        assert checked == ["prox"] * res.iterations_run and checked


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_run_audit_bregman_prev_is_the_previous_step(kind):
    problem = kind_problem(kind)
    cfg = SolverConfig(
        algorithm="bpsge",
        batch_size=3,
        max_epochs=4,
        audit_per_iteration=True,
        keep_iterates=True,
        seed=8,
    )
    res = run(problem, cfg, start_point(problem))
    assert not res.failed
    recs, xs = res.audits, res.iterates
    assert recs[0].bregman_prev == 0.0
    # The run's one kernel(eta) gives every step: each later step reuses the
    # last one, and that is D(x_{k-1}, x_k) taken again under it, bit for bit
    # (see test_run_bregman_step_from_carried_norms).
    assert len({rec.eta for rec in recs}) == 1
    kern = problem.kernel(recs[0].eta)
    for k in range(1, len(recs)):
        assert recs[k].bregman_prev == recs[k - 1].bregman_step
        assert recs[k].bregman_prev == bregman_distance(kern, xs[k - 1], xs[k])


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_run_bregman_step_from_carried_norms(kind, monkeypatch):
    # A run takes D(x_k, x_{k+1}) from its carried |x_k|^2 and psi(x_k) and
    # two dots; it is bregman_distance(kernel(eta), x_k, x_{k+1}) bit for bit,
    # for every estimator, with and without extrapolation.  Only the
    # safeguard calls bregman_distance, so bpg and bpsg never do, even when
    # their beta_mode says safeguarded; and every run builds exactly one
    # KernelSpec: its kernel(eta), once.
    m_data = make_rng(61).uniform(0.1, 1.0, (30, 24))
    params = {
        "gnmf": {"mu0": 0.1, "laplacian": build_knn_laplacian(m_data, 3)},
        "wcmf": {"lambda1": 0.05, "lambda2": 0.02},
        "ssnmf": {"s1": 15, "s2": 12},
    }[kind]
    problem = build_problem(kind, m_data, 4, **params)
    x0 = init_point(30, 4, 24, make_rng(62))
    counts = {"bregman_distance": 0, "KernelSpec": 0}
    distance = solver.bregman_distance
    post_init = KernelSpec.__post_init__

    def counting_distance(*args):
        counts["bregman_distance"] += 1
        return distance(*args)

    def counting_spec(self):
        counts["KernelSpec"] += 1
        post_init(self)

    runs = []
    for estimator in ("full", "sgd", "saga", "sarah"):
        plain, extrapolated = ("bpg", "bpge") if estimator == "full" else ("bpsg", "bpsge")
        runs += [
            (plain, estimator, "safeguarded"),
            (extrapolated, estimator, "scheduled"),
            (extrapolated, estimator, "safeguarded"),
        ]
    for algorithm, estimator, beta_mode in runs:
        cfg = SolverConfig(
            algorithm=algorithm,
            estimator=estimator,
            beta_mode=beta_mode,
            batch_size=4,
            max_epochs=5,
            audit_per_iteration=True,
            keep_iterates=True,
            seed=9,
        )
        counts.update(bregman_distance=0, KernelSpec=0)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "bregman_distance", counting_distance)
            patch.setattr(KernelSpec, "__post_init__", counting_spec)
            res = run(problem, cfg, x0)
        assert not res.failed
        assert counts["KernelSpec"] == 1
        if algorithm in ("bpg", "bpsg") or beta_mode != "safeguarded":
            assert counts["bregman_distance"] == 0
        kern = problem.kernel(res.audits[0].eta)
        xs = res.iterates
        assert len(res.audits) == len(xs) - 1 == res.iterations_run
        for rec, x, y in zip(res.audits, xs, xs[1:]):
            assert rec.bregman_step == bregman_distance(kern, x, y)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_run_fails_on_non_finite_estimate(kind, monkeypatch):
    problem = kind_problem(kind)
    calls = []
    data_gradient = problem.data_gradient

    def poisoned(x, *args, **kwargs):
        g = data_gradient(x, *args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            g.u[0, 0] = np.nan
        return g

    monkeypatch.setattr(problem, "data_gradient", poisoned)
    res = run(problem, SolverConfig(algorithm="bpg", max_epochs=5), start_point(problem))
    assert res.failed
    assert res.message.startswith("iteration 2:")
    assert np.isfinite(res.x.u).all() and np.isfinite(res.x.v).all()


def graph_problem():
    m_data = make_rng(61).uniform(0.1, 1.0, (8, 10))
    lap = build_knn_laplacian(m_data, 3)
    return build_problem("gnmf", m_data, 2, mu0=0.3, laplacian=lap)


@pytest.mark.parametrize(
    "algorithm, beta_mode",
    [("bpg", "scheduled"), ("bpge", "scheduled"), ("bpge", "safeguarded")],
)
@pytest.mark.parametrize("audit", [False, True])
def test_full_gradient_run_reads_m_once_per_step(
    algorithm, beta_mode, audit, monkeypatch
):
    # One pair of data products per iterate serves the gradient at the next
    # extrapolated point, the objective and the audit's witness; away from a
    # fit the objective takes no residual pass.
    problem = graph_problem()
    products, residuals = [], []
    data_products = problem.data_products
    residual_value = problem._residual_value
    monkeypatch.setattr(
        problem, "data_products", lambda x: products.append(x) or data_products(x)
    )
    monkeypatch.setattr(
        problem, "_residual_value", lambda x: residuals.append(x) or residual_value(x)
    )
    cfg = SolverConfig(
        algorithm=algorithm,
        beta_mode=beta_mode,
        max_epochs=30,
        audit_per_iteration=audit,
        keep_iterates=True,
    )
    res = run(problem, cfg, start_point(problem))
    assert not res.failed and res.iterations_run == 30
    assert len(products) == res.iterations_run + 1
    assert all(p is x for p, x in zip(products, res.iterates))
    floor = 1e-3 * 0.5 * np.linalg.norm(problem.m_data) ** 2
    assert all(t.objective > floor for t in res.trace)
    assert not residuals
    for t, x in zip(res.trace, res.iterates):
        want = residual_value(x) + problem._graph_value(x.u)
        assert t.objective == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf", "gnmf-graph"])
@pytest.mark.parametrize("audit", [False, True])
def test_bpg_iterates_match_a_direct_per_step_oracle(kind, audit):
    # bpg never extrapolates, so each gradient is taken from the products at
    # the iterate itself: the same GEMMs as a direct pass, the same bits.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    cfg = SolverConfig(
        algorithm="bpg", max_epochs=25, audit_per_iteration=audit, keep_iterates=True
    )
    x = start_point(problem)
    res = run(problem, cfg, x)
    assert not res.failed and len(res.iterates) == 26
    eta = step_size(problem, cfg)[0]
    for k, x_run in enumerate(res.iterates[1:]):
        g = problem.full_gradient(x)
        x_next = problem.prox_step(g, x, eta)
        assert x_next.u.tobytes() == x_run.u.tobytes()
        assert x_next.v.tobytes() == x_run.v.tobytes()
        if audit:
            wit = stationarity_witness(
                problem, x_next, x, g, eta, problem.kernel(eta), problem.data_products(x_next)
            )
            assert res.audits[k].stationarity == wit
        x = x_next


@pytest.mark.parametrize("kind", ["wcmf", "gnmf-graph"])
@pytest.mark.parametrize("beta_mode", ["scheduled", "safeguarded"])
def test_bpge_steps_match_a_direct_pass_at_the_extrapolated_point(kind, beta_mode):
    # bpge takes the gradient at x_bar from the products of x_k and x_{k-1};
    # from the run's own x_k, x_{k-1} and beta, a direct pass at x_bar gives
    # the same step to rounding.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    cfg = SolverConfig(
        algorithm="bpge", beta_mode=beta_mode, max_epochs=25, keep_iterates=True
    )
    res = run(problem, cfg, start_point(problem))
    xs = res.iterates
    assert not res.failed and len(xs) == 26
    assert sum(t.beta > 0.0 for t in res.trace) > 10
    eta = step_size(problem, cfg)[0]
    for k in range(25):
        beta = res.trace[k + 1].beta  # one step per epoch
        x_bar = xs[k] + (xs[k] - xs[k - 1 if k else 0]).scale(beta)
        x_next = problem.prox_step(problem.full_gradient(x_bar), x_bar, eta)
        assert (x_next - xs[k + 1]).norm() <= 1e-12 * xs[k + 1].norm()


# -- audited stochastic steps: one residual pass at x_{k+1} ------------------


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
@pytest.mark.parametrize("kind", ["gnmf-graph", "wcmf", "ssnmf"])
def test_audited_stochastic_objective_is_the_objective(kind, estimator):
    # The residual pass that gives an audited step its witness's gradient
    # gives its objective too, with the bits of problem.objective.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    cfg = SolverConfig(
        algorithm="bpsge",
        estimator=estimator,
        batch_size=3,
        max_epochs=4,
        audit_per_iteration=True,
        keep_iterates=True,
        seed=9,
    )
    res = run(problem, cfg, start_point(problem))
    assert not res.failed and len(res.audits) == res.iterations_run == 16
    for rec, x in zip(res.audits, res.iterates[1:]):
        assert rec.objective == problem.objective(x)
    plain = run(problem, replace(cfg, audit_per_iteration=False), start_point(problem))
    assert [astuple(t)[:5] for t in plain.trace] == [astuple(t)[:5] for t in res.trace]


@pytest.mark.parametrize("beta_mode", ["scheduled", "safeguarded"])
@pytest.mark.parametrize("estimator", ["full", "sgd", "saga", "sarah"])
@pytest.mark.parametrize("kind", ["gnmf-graph", "wcmf", "ssnmf"])
def test_an_audit_leaves_the_run_unchanged(kind, estimator, beta_mode):
    # An audit only reads: audited at every step or every 2 epochs, a run
    # takes the unaudited run's steps bit for bit.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    cfg = SolverConfig(
        algorithm="bpge" if estimator == "full" else "bpsge",
        estimator=estimator,
        beta_mode=beta_mode,
        batch_size=3,
        max_epochs=6,
        seed=12,
    )

    def outputs(**audit):
        res = run(problem, replace(cfg, **audit), start_point(problem))
        rows = np.array([astuple(replace(t, wall_ms=0.0)) for t in res.trace], float)
        return res.x.u.tobytes(), res.x.v.tobytes(), res.iterations_run, rows.tobytes()

    plain = outputs()
    assert outputs(audit_per_iteration=True) == plain
    assert outputs(audit_every=2) == plain


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_audited_stochastic_step_reads_m_twice(estimator, monkeypatch):
    # An audited step reads M twice after its estimate: one residual pass at
    # x_{k+1} for the objective and the witness, then SAGA's table at x_bar,
    # or the data products at x_bar for SGD and SARAH.  The estimate's own reads are counted
    # apart: its minibatch, SAGA's first table and SARAH's restarts.
    problem = graph_problem()
    steps = [[]]  # the reads before the first estimate, then one list a step
    in_estimate = []
    for name in ("data_products", "_residual_pass", "_table", "_batch_difference"):

        def counted(*args, _name=name, _method=getattr(problem, name), **kwargs):
            if _name == "_table":  # a table over all of M, or over a batch
                _name = "full_table" if args[2] is problem.m_data else "batch_table"
            steps[-1].append((bool(in_estimate), _name))
            return _method(*args, **kwargs)

        monkeypatch.setattr(problem, name, counted)
    cls = {"sgd": MinibatchSGD, "saga": SAGA, "sarah": SARAH}[estimator]
    estimate = cls.estimate

    def marked(self, x_bar):
        steps.append([])
        in_estimate.append(True)
        try:
            return estimate(self, x_bar)
        finally:
            in_estimate.pop()

    monkeypatch.setattr(cls, "estimate", marked)
    cfg = SolverConfig(
        algorithm="bpsge",
        estimator=estimator,
        batch_size=3,
        max_epochs=5,
        audit_per_iteration=True,
        seed=10,
    )
    res = run(problem, cfg, start_point(problem))
    assert not res.failed and res.iterations_run == len(steps) - 1 == 20
    assert steps[0] == [(False, "_residual_pass")]  # the start's objective
    at_x_bar = "full_table" if estimator == "saga" else "data_products"
    own = []
    for reads in steps[1:]:
        assert [n for inside, n in reads if not inside] == ["_residual_pass", at_x_bar]
        own.append([n for inside, n in reads if inside])
    if estimator == "sgd":
        assert own == [["batch_table"]] * 20
    elif estimator == "saga":
        assert own == [["full_table", "batch_table"]] + [["batch_table"]] * 19
    else:
        assert own[0] == ["data_products"]  # no estimate to correct yet
        assert all(o in (["data_products"], ["_batch_difference"]) for o in own)
        assert 1 < own.count(["data_products"]) < 10


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah"])
def test_audited_stochastic_step_fails_on_a_non_finite_objective(estimator, monkeypatch):
    problem = kind_problem("wcmf")
    calls = []
    residual_pass = problem._residual_pass

    def poisoned(x, gradient=False):
        value, g = residual_pass(x, gradient)
        calls.append(gradient)
        return (math.inf if len(calls) == 4 else value), g

    monkeypatch.setattr(problem, "_residual_pass", poisoned)
    cfg = SolverConfig(
        algorithm="bpsge",
        estimator=estimator,
        batch_size=3,
        max_epochs=2,
        audit_per_iteration=True,
        seed=11,
    )
    res = run(problem, cfg, start_point(problem))
    assert res.failed and res.message == "iteration 2: objective became non-finite"
    assert calls == [False, True, True, True]
    assert [t.epoch for t in res.trace] == [0] and len(res.audits) == 2


@pytest.mark.parametrize("kind", ["gnmf-graph", "wcmf", "ssnmf"])
def test_stationarity_witness_is_its_definition(kind):
    # w = grad f(x_next) - g + (grad psi(x_bar) - grad psi(x_next)) / eta,
    # here from two kernel gradient pairs; wcmf's kernel has c = eta lambda2
    # > 0 in its U-block.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    rng = make_rng(62)
    for eta in (0.05, 0.5):
        kern = problem.kernel(eta)
        x_bar = random_pair(rng, 8, 2, 10, 0.1, 1.0)
        g = problem.full_gradient(random_pair(rng, 8, 2, 10, 0.1, 1.0))
        x_next = problem.prox_step(g, x_bar, eta, kernel=kern)
        products = problem.data_products(x_next)
        w = (
            problem.full_gradient(x_next, products)
            - g
            + (kernel_gradient(kern, x_bar) - kernel_gradient(kern, x_next)).scale(1 / eta)
        )
        got = stationarity_witness(problem, x_next, x_bar, g, eta, kern, products)
        assert got == pytest.approx(w.norm(), rel=1e-13)


@pytest.mark.parametrize("kind", ["gnmf-graph", "wcmf", "ssnmf"])
def test_audited_runs_record_stationarity_witness(kind, monkeypatch):
    # Each audited step records stationarity_witness of its own x_bar, estimate
    # and x_{k+1} bit for bit: from the products at x_{k+1} for bpge, from a
    # residual pass for bpsge.
    problem = graph_problem() if kind == "gnmf-graph" else kind_problem(kind)
    steps = []
    prox_step = problem.prox_step

    def recorded(g, x_bar, eta, **kwargs):
        steps.append((g, x_bar, eta, prox_step(g, x_bar, eta, **kwargs)))
        return steps[-1][-1]

    monkeypatch.setattr(problem, "prox_step", recorded)
    for cfg in (
        SolverConfig(algorithm="bpge", max_epochs=12),
        SolverConfig(algorithm="bpsge", estimator="saga", batch_size=3, max_epochs=4),
    ):
        steps.clear()
        res = run(problem, replace(cfg, audit_per_iteration=True), start_point(problem))
        assert not res.failed and len(res.audits) == len(steps) == res.iterations_run
        assert sum(a.beta > 0.0 for a in res.audits) > 3
        full = cfg.algorithm == "bpge"
        for rec, (g, x_bar, eta, x_next) in zip(res.audits, steps):
            products = problem.data_products(x_next) if full else None
            kern = problem.kernel(eta)
            want = stationarity_witness(problem, x_next, x_bar, g, eta, kern, products)
            assert rec.stationarity == want


# -- full-gradient step 1/L_bar: scale covariance and progress ---------------

_FULL_VARIANTS = [
    {"algorithm": "bpg"},
    {"algorithm": "bpge", "beta_mode": "scheduled"},
    {"algorithm": "bpge", "beta_mode": "safeguarded"},
]


def scaled_problem(kind, shape, rank, seed, r=1.0):
    """kind's problem on s*M, s = r^2, M seeded uniform, with the parameters
    scaled so that Phi_s(r x) = s^2 Phi(x); r = 1 is the plain problem.
    wcmf's lambda2 is small, as the progress bounds were measured with;
    "wcmf-bench" is wcmf at the benchmark's (lambda1, lambda2) = (0.05, 0.02)
    at s = 1, which has lambda1 < lambda2 for s < 0.16."""
    m_data = make_rng(seed).uniform(0.1, 1.0, shape)
    s = r * r
    params = {
        "gnmf": {"mu0": 0.1 * s, "laplacian": build_knn_laplacian(m_data, 3)},
        "wcmf": {"lambda1": 0.1 * s * r, "lambda2": 2e-5 * s},
        "wcmf-bench": {"lambda1": 0.05 * s * r, "lambda2": 0.02 * s},
        "ssnmf": {"s1": shape[0] // 2, "s2": shape[1] // 2},
    }
    return build_problem(kind.removesuffix("-bench"), s * m_data, rank, **params[kind])


_STOCHASTIC_VARIANTS = [
    {"algorithm": "bpsg", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "sarah"},
    {"algorithm": "bpsge", "estimator": "saga", "beta_mode": "safeguarded"},
]


def _scaled_run(kind, variant, r, epochs):
    problem = scaled_problem(kind, (30, 24), 4, 62, r)
    x0 = start_point(problem)
    x0 = FactorPair(r * x0.u, r * x0.v)
    cfg = SolverConfig(
        max_epochs=epochs, stop_tol=0.0, keep_iterates=True, seed=9, **variant
    )
    res = run(problem, cfg, x0)
    assert not res.failed and len(res.trace) == epochs + 1
    return res


_UNSCALED_RUNS = {}


def _check_scale_covariance(kind, variant, k, epochs):
    # With s = 4^k, mu0 s, lambda1 s^(3/2) and lambda2 s, the kernel's b
    # scales by s, so Phi and D_psi at 2^k x are s^2 times their values at x
    # and every step, 1/L_bar or c_b/L_bar, is scale-free: the run from
    # 2^k x0 is 2^k times the unscaled one.  Powers of 2 make every product
    # exact, so bit for bit.
    key = (kind, tuple(variant.items()))
    if key not in _UNSCALED_RUNS:
        _UNSCALED_RUNS[key] = _scaled_run(kind, variant, 1.0, epochs)
    base = _UNSCALED_RUNS[key]
    r = 2.0**k
    s = r * r
    res = _scaled_run(kind, variant, r, epochs)
    assert len(res.iterates) == len(base.iterates)
    for x, x_s in zip(base.iterates, res.iterates):
        assert (r * x.u).tobytes() == x_s.u.tobytes()
        assert (r * x.v).tobytes() == x_s.v.tobytes()
    for t, t_s in zip(base.trace, res.trace):
        assert t_s.objective == s * s * t.objective
        assert t_s.bregman_step == s * s * t.bregman_step
        assert (t_s.eta, t_s.beta) == (t.eta, t.beta)


_SCALED_KINDS = ["gnmf", "wcmf", "wcmf-bench", "ssnmf"]


@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(_SCALED_KINDS),
    variant=st.sampled_from(range(len(_FULL_VARIANTS))),
    k=st.integers(-10, 10),
)
def test_full_gradient_runs_are_scale_covariant(kind, variant, k):
    _check_scale_covariance(kind, _FULL_VARIANTS[variant], k, 40)


@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(_SCALED_KINDS),
    variant=st.sampled_from(range(len(_STOCHASTIC_VARIANTS))),
    k=st.integers(-10, 10),
)
def test_stochastic_runs_are_scale_covariant(kind, variant, k):
    # 24 columns, so the default batch is b = 1 and c_b = sqrt(1/24); the
    # estimator's draws follow the fixed solver seed, not the data.
    _check_scale_covariance(kind, _STOCHASTIC_VARIANTS[variant], k, 20)


@pytest.mark.parametrize("k", [-10, 10])
def test_wcmf_at_the_benchmark_weights_is_scale_covariant(k):
    # s = 4^-10 puts lambda1 about 400 times below lambda2, s = 4^10 about
    # 2,500 times above it.
    for variant in _FULL_VARIANTS:
        _check_scale_covariance("wcmf-bench", variant, k, 40)
    for variant in _STOCHASTIC_VARIANTS:
        _check_scale_covariance("wcmf-bench", variant, k, 20)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bpg_epoch_objective_never_rises(kind, seed):
    # With eta = 1/L_bar and an exact prox, the descent lemma gives
    # Phi(x+) <= Phi(x) - (1/eta - L_bar) D(x, x+) = Phi(x).
    problem = scaled_problem(kind, (60, 40), 5, seed)
    res = run(problem, SolverConfig(algorithm="bpg", max_epochs=60), start_point(problem))
    objs = [t.objective for t in res.trace]
    assert not res.failed and len(objs) == 61
    assert all(b <= a for a, b in zip(objs, objs[1:]))


# objective / (|M|^2 / 2) after 40 epochs of ``scaled_problem(kind, (30, 24),
# 4, 62)`` from ``start_point``: 1.2 times the value measured with the step
# 1/L_bar, rounded up.  Under the earlier cap min(eta_prev, 1/L_k) every case
# ended above its bound (values in brackets).
_PROGRESS_BOUNDS = {
    ("gnmf", "bpg"): 0.21,  # 0.1717 [0.3784]
    ("gnmf", "bpge"): 0.21,  # 0.1713 [0.2611]
    ("wcmf", "bpg"): 0.25,  # 0.2018 [0.3702]
    ("wcmf", "bpge"): 0.24,  # 0.2000 [0.2728]
    ("ssnmf", "bpg"): 0.62,  # 0.5086 [0.6656]
    ("ssnmf", "bpge"): 0.57,  # 0.4722 [0.5882]
}


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
@pytest.mark.parametrize("variant", _FULL_VARIANTS, ids=lambda v: "-".join(v.values()))
def test_full_gradient_progress_after_40_epochs(kind, variant):
    problem = scaled_problem(kind, (30, 24), 4, 62)
    res = run(problem, SolverConfig(max_epochs=40, **variant), start_point(problem))
    assert not res.failed and len(res.trace) == 41
    ratio = res.trace[-1].objective / (0.5 * np.linalg.norm(problem.m_data) ** 2)
    assert ratio < _PROGRESS_BOUNDS[kind, variant["algorithm"]]


# -- stochastic step c_b/L_bar: progress and batch-size stability ------------

_DESK_PARAMS = {
    "gnmf": {"mu0": 0.1},
    "wcmf": {"lambda1": 0.05, "lambda2": 0.02},
    "ssnmf": {"s1": 30, "s2": 20},
}


def desk_problem(kind, seed):
    """kind's problem on 60x40 synthetic data of rank 5 in 3 clusters (gnmf
    with a 5-NN graph), rank 5, and a uniform(0, 0.1) start point."""
    rng = make_rng(seed)
    spec = SyntheticSpec(m=60, d=40, r_true=5, cluster_count=3, noise_sigma=0.05)
    m_data, _ = generate_synthetic(spec, rng)
    params = dict(_DESK_PARAMS[kind])
    if kind == "gnmf":
        params["laplacian"] = build_knn_laplacian(m_data, 5)
    return build_problem(kind, m_data, 5, **params), init_point(60, 5, 40, rng)


# objective / (|M|^2 / 2) after 30 epochs of ``desk_problem(kind, 1)`` at the
# default batch (b = 2 of 40 columns, c_b = sqrt(1/20)) and solver seed 9:
# 1.2 times the value measured with the step c_b/L_bar, rounded up to two
# digits.  The data is low-rank, as in the benchmark's desk workload; on the
# structureless data of ``scaled_problem`` both rules end within 20% of each
# other.  Under the earlier cap min(eta_prev, 1/L_k) every gnmf and wcmf case
# ended above its bound (values in brackets); on ssnmf, whose hard-thresholded
# prox keeps both rules near the same level, the earlier cap meets each bound.
_STOCHASTIC_PROGRESS_BOUNDS = {
    ("gnmf", "bpsg", "saga"): 0.088,  # 0.0730 [0.1014]
    ("gnmf", "bpsg", "sarah"): 0.092,  # 0.0762 [0.1016]
    ("gnmf", "bpsge", "saga"): 0.0069,  # 0.0057 [0.0966]
    ("gnmf", "bpsge", "sarah"): 0.0078,  # 0.0065 [0.0966]
    ("wcmf", "bpsg", "saga"): 0.094,  # 0.0778 [0.1080]
    ("wcmf", "bpsg", "sarah"): 0.098,  # 0.0814 [0.1084]
    ("wcmf", "bpsge", "saga"): 0.013,  # 0.0106 [0.1041]
    ("wcmf", "bpsge", "sarah"): 0.015,  # 0.0119 [0.1042]
    ("ssnmf", "bpsg", "saga"): 0.37,  # 0.3032 [0.3696]
    ("ssnmf", "bpsg", "sarah"): 0.41,  # 0.3402 [0.3496]
    ("ssnmf", "bpsge", "saga"): 0.37,  # 0.3014 [0.3177]
    ("ssnmf", "bpsge", "sarah"): 0.42,  # 0.3417 [0.3034]
}


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
@pytest.mark.parametrize("algorithm", ["bpsg", "bpsge"])
@pytest.mark.parametrize("estimator", ["saga", "sarah"])
def test_stochastic_progress_after_30_epochs(kind, algorithm, estimator):
    problem, x0 = desk_problem(kind, 1)
    cfg = SolverConfig(algorithm=algorithm, estimator=estimator, max_epochs=30, seed=9)
    res = run(problem, cfg, x0)
    assert not res.failed and len(res.trace) == 31
    ratio = res.trace[-1].objective / (0.5 * np.linalg.norm(problem.m_data) ** 2)
    assert ratio < _STOCHASTIC_PROGRESS_BOUNDS[kind, algorithm, estimator]


def _single_column_runs():
    """wcmf and ssnmf bpsge saga/sarah at b = 1 on 60x40 data, 30 epochs,
    over 5 seeds."""
    for kind, estimator, seed in itertools.product(
        ["wcmf", "ssnmf"], ["saga", "sarah"], range(1, 6)
    ):
        problem = scaled_problem(kind, (60, 40), 5, seed)
        cfg = SolverConfig(
            algorithm="bpsge", estimator=estimator, batch_size=1, max_epochs=30, seed=seed
        )
        yield run(problem, cfg, start_point(problem))


def _stable(res):
    """Completed every epoch, and ended finite below the epoch-1 objective."""
    final = res.trace[-1].objective
    return len(res.trace) == 31 and math.isfinite(final) and final < res.trace[1].objective


def test_stochastic_step_is_stable_at_batch_one():
    # At b = 1 of n = 40 columns c_b = sqrt(1/40).
    for res in _single_column_runs():
        assert not res.failed and _stable(res)


def test_fixed_half_step_is_unstable_at_batch_one(monkeypatch):
    # Negative control for the test above: a constant c = 1/2, ignoring the
    # batch share, ended 8 of these 20 runs above their epoch-1 objective,
    # 6 of them wcmf runs blown up to finite values of 1e26-1e58 |M|^2/2.
    def half_step(problem, cfg):
        return 0.5, 2.0, False

    monkeypatch.setattr(solver, "step_size", half_step)
    assert not all(_stable(res) for res in _single_column_runs())


def test_run_early_stop_on_quiet_epochs():
    # A problem solved exactly from the start: x0 at a global minimizer of
    # the interior, so steps collapse immediately.
    prob = build_problem("gnmf", [[1.0]], 1)
    cfg = SolverConfig(
        algorithm="bpg", max_epochs=200, stop_tol=1e-10, seed=2
    )
    res = run(prob, cfg, FactorPair([[1.0]], [[1.0]]))
    assert not res.failed
    assert len(res.trace) < 201


def test_run_max_epochs_zero_returns_start(small_gnmf):
    x0 = start_point(small_gnmf)
    res = run(small_gnmf, SolverConfig(max_epochs=0), x0)
    assert len(res.trace) == 1
    assert res.x is x0


def test_run_rejects_bad_start(small_gnmf):
    bad = FactorPair(-np.ones((8, 2)), np.ones((2, 10)))
    with pytest.raises(ValueError, match="nonnegative"):
        run(small_gnmf, SolverConfig(), bad)
    wrong = FactorPair(np.ones((3, 2)), np.ones((2, 10)))
    with pytest.raises(ValueError, match="shape"):
        run(small_gnmf, SolverConfig(), wrong)


_RULE_M, _RULE_R, _RULE_D = 4, 2, 5
_RULE_DATA = make_rng(61).uniform(0.1, 1.0, (_RULE_M, _RULE_D))


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_nonnegativity_rule_of_every_kind(data):
    # Entries sit on either side of -tol and of the budgets' tol, so the
    # property pins where each check draws its line.
    kind = data.draw(st.sampled_from(["gnmf", "wcmf", "ssnmf"]), label="kind")
    tol = data.draw(st.sampled_from([1e-12, 1e-3]), label="tol")
    # A drawn subset of the levels, so that starts with no entry below -tol
    # are as common as the others.
    every_level = [0.0, tol / 2, -tol / 2, 2 * tol, -2 * tol]
    levels = sorted(data.draw(st.sets(st.sampled_from(every_level), min_size=1)))
    n_u, n_v = _RULE_M * _RULE_R, _RULE_R * _RULE_D
    size = n_u + n_v
    entries = data.draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    u = np.reshape(entries[:n_u], (_RULE_M, _RULE_R))
    v = np.reshape(entries[n_u:], (_RULE_R, _RULE_D))
    s1 = data.draw(st.integers(1, _RULE_M), label="s1")
    s2 = data.draw(st.integers(1, _RULE_D), label="s2")
    params = {"wcmf": {"lambda1": 0.1, "lambda2": 0.05}, "ssnmf": {"s1": s1, "s2": s2}}
    prob = build_problem(kind, _RULE_DATA, _RULE_R, **params.get(kind, {}))
    x = FactorPair(u, v)

    signs_ok = u.min() >= -tol and v.min() >= -tol
    budgets_ok = (np.abs(u) > tol).sum(axis=0).max() <= s1
    budgets_ok &= (np.abs(v) > tol).sum(axis=1).max() <= s2
    want = {"gnmf": signs_ok, "wcmf": True, "ssnmf": signs_ok and budgets_ok}[kind]
    assert prob.is_feasible(x, tol) is bool(want)

    if kind != "wcmf":
        # A NaN entry in either factor reads infeasible.
        flat = np.array(entries)
        flat[data.draw(st.integers(0, size - 1), label="NaN at")] = math.nan
        bad_u, bad_v = flat[:n_u].reshape(u.shape), flat[n_u:].reshape(v.shape)
        assert not prob.is_feasible(FactorPair._unchecked(bad_u, bad_v), tol)

    # ``run`` checks the sign rule at its own tol, 1e-12, and not the budgets.
    cfg = SolverConfig(max_epochs=0)
    if kind != "wcmf" and min(u.min(), v.min()) < -1e-12:
        message = f"^{kind} requires a nonnegative start point$"
        with pytest.raises(ValueError, match=message):
            run(prob, cfg, x)
    else:
        assert run(prob, cfg, x).x is x


def test_run_ssnmf_accepts_dense_start_and_lands_feasible():
    rng = make_rng(60)
    m_data = rng.uniform(0.1, 1.0, (6, 8))
    prob = build_problem("ssnmf", m_data, 2, s1=3, s2=4)
    x0 = FactorPair(rng.uniform(0, 0.1, (6, 2)), rng.uniform(0, 0.1, (2, 8)))
    assert not prob.is_feasible(x0)  # dense start violates the budgets
    res = run(prob, SolverConfig(algorithm="bpsge", batch_size=2, max_epochs=5), x0)
    assert not res.failed
    assert not res.trace[0].feasible
    assert all(t.feasible for t in res.trace[1:])
    assert prob.is_feasible(res.x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_reports_failure_with_partial_trace(small_gnmf):
    # An absurdly large start overflows the objective after the first step
    # evaluation; the run must flag failure instead of raising.
    x0 = FactorPair(np.full((8, 2), 1e160), np.full((2, 10), 1e160))
    res = run(small_gnmf, SolverConfig(algorithm="bpg", max_epochs=5), x0)
    assert res.failed
    assert "iteration 0" in res.message
    assert len(res.trace) >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["bpg", "bpsge"])
def test_run_fails_cleanly_when_curvature_overflows(small_gnmf, algorithm):
    # V = 0 keeps the gradient finite while U^T U overflows to inf, so the
    # curvature overflows.  No variant takes it: each fails in the prox,
    # whose gradient step overflows.
    x0 = FactorPair(np.full((8, 2), 1e155), np.zeros((2, 10)))
    with pytest.raises(ValueError, match="non-finite"):
        small_gnmf.local_lipschitz(x0)
    res = run(small_gnmf, SolverConfig(algorithm=algorithm, max_epochs=5), x0)
    assert res.failed
    assert res.message.startswith(
        "iteration 0: prox_step: the gradient step has non-finite"
    )


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_no_iterate_leaves_the_prox_unchecked(kind):
    # At entries near 1e51 the gradient step is finite (about 1e155) but
    # |A|^2 + |B|^2 overflows, so the prox must refuse the point instead of
    # returning an unchecked one.  At 1e50 everything stays finite.
    problem = kind_problem(kind)
    m, r, d = problem.shape

    def start(scale):
        return FactorPair(np.full((m, r), scale), np.full((r, d), scale))

    huge = start(1e51)
    with pytest.raises(ValueError):
        problem.prox_step(problem.full_gradient(huge), huge, 0.1)
    for algorithm in ("bpg", "bpsge"):
        cfg = SolverConfig(algorithm=algorithm, batch_size=3, max_epochs=2, seed=2)
        failed, ran = run(problem, cfg, huge), run(problem, cfg, start(1e50))
        assert failed.failed and failed.message.startswith("iteration 0: ")
        assert [t.epoch for t in failed.trace] == [0]
        assert not ran.failed and [t.epoch for t in ran.trace] == [0, 1, 2]
        assert 1e198 < ran.trace[-1].objective < 1e204
        for res in (failed, ran):
            rows = [astuple(t) for t in res.trace]
            assert np.isfinite(np.array(rows, dtype=float)).all()
            assert np.isfinite(res.x.u).all() and np.isfinite(res.x.v).all()
    # A kernel without the quartic does not bound t sqrt(|A|^2 + |B|^2);
    # the explicit check refuses what would overflow.
    x = start(0.01)
    flat = KernelSpec(0.0, 1e-308)  # t = 1e308
    with pytest.raises(ValueError, match="new iterate has non-finite"):
        problem.prox_step(problem.full_gradient(x), x, 1e3, kernel=flat)


# -- rate check -------------------------------------------------------------


def test_rate_check_passes_on_conforming_sequence():
    psi1, eps = 3.0, 0.01
    k = np.arange(1, 101)
    d = 3.0 * psi1 / (eps * k) * 0.5  # safely inside the bound
    rep = rate_check(d, psi1, eps)
    assert rep.passed
    assert rep.first_violation is None
    assert rep.worst_ratio <= 0.5 + 1e-12


def test_rate_check_flags_violations():
    d = np.full(50, 10.0)  # flat sequence cannot satisfy a 1/K bound forever
    rep = rate_check(d, psi1=0.001, epsilon=0.5)
    assert not rep.passed
    assert rep.first_violation == 1


def test_rate_check_extends_past_recorded_length():
    d = np.array([1.0, 0.5, 1e-9])
    rep = rate_check(d, psi1=1.0, epsilon=0.1, k_max=10**4)
    assert rep.passed  # the final min carries forward


def test_rate_check_validation():
    with pytest.raises(ValueError):
        rate_check([], 1.0, 0.1)
    with pytest.raises(ValueError):
        rate_check([1.0], math.nan, 0.1)
    with pytest.raises(ValueError, match="epsilon positive"):
        rate_check([1.0], 1.0, 0.0)


def rate_check_loop(bregman_steps, psi1, epsilon, k_max=None):
    """``rate_check`` as the per-K loop it was before it became one array
    reduction.  It divides Python floats, which give IEEE results (inf on
    overflow) with no warning, as ``rate_check``'s ``np.errstate`` does."""
    d = np.asarray(bregman_steps, dtype=np.float64)
    if k_max is None:
        k_max = d.size
    running = np.minimum.accumulate(d)
    passed = True
    first_violation = None
    worst = 0.0
    for k in range(1, k_max + 1):
        cur = float(running[min(k, d.size) - 1])
        bound = 3.0 * psi1 / (epsilon * k)
        ratio = cur / bound if bound > 0 else math.inf if cur > 0 else 0.0
        worst = max(worst, ratio)
        if cur > bound * (1.0 + 0.1):
            passed = False
            if first_violation is None:
                first_violation = k
    return RateCheckReport(passed, k_max, first_violation, worst)


rate_steps = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])


@settings(max_examples=400, deadline=None, database=None)
@example(d=[1.0, 0.5, 1e-9], psi1=1.0, epsilon=0.1, k_max=0)
@example(d=[3.0, -1e-13, 2.0, 1.0], psi1=0.5, epsilon=0.01, k_max=2)
@example(d=[3.0, -1e-13, 2.0, 1.0], psi1=0.5, epsilon=0.01, k_max=50)
@example(d=[1.0, 2.0, -0.0], psi1=0.0, epsilon=0.5, k_max=None)
@example(d=[1.0, 0.0, -0.0], psi1=-2.0, epsilon=0.5, k_max=9)
@example(d=[-0.0, -1.0], psi1=1.0, epsilon=0.5, k_max=None)
@example(d=[5.0] * 12, psi1=1e3, epsilon=0.3, k_max=None)
@example(d=[1.0], psi1=2.225073858507e-311, epsilon=0.5, k_max=None)
@example(d=[1.0], psi1=5e-324, epsilon=0.5, k_max=None)
@given(
    d=st.lists(rate_steps, min_size=1, max_size=40),
    psi1=st.floats(-10.0, 1e4) | st.sampled_from([0.0, -0.0]),
    epsilon=st.floats(1e-3, 0.99),
    k_max=st.none() | st.integers(0, 80),
)
def test_rate_check_matches_the_loop(d, psi1, epsilon, k_max):
    # k_max 0, inside and past the record; psi1 <= 0; negative and signed-zero
    # steps, whose ratios the running max from 0.0 reads as 0.0; a subnormal
    # psi1, whose bound's reciprocal overflows to an inf ratio.
    got = rate_check(d, psi1, epsilon, k_max)
    want = rate_check_loop(d, psi1, epsilon, k_max)
    assert got == want
    assert repr(float(got.worst_ratio)) == repr(float(want.worst_ratio))
