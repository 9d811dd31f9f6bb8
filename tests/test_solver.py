"""Solver loop: schedules, step sizes, traces, audits, failure handling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bregopt.kernels import FactorPair, bregman_distance
from bregopt.numeric import make_rng
from bregopt.problems import build_problem
from bregopt.solver import (
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
        SolverConfig(epsilon=0.5, delta=0.4)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eta0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eta_floor=2.0, eta0=1.0)
    with pytest.raises(ValueError):
        SolverConfig(restart_prob=1.5)
    with pytest.warns(UserWarning, match="sqrt"):
        SolverConfig(beta_scale=0.9)


def test_config_resolution_forces_variant_restrictions():
    cfg = SolverConfig(algorithm="bpg", estimator="saga").resolved()
    assert cfg.estimator == "full" and cfg.beta_mode == "off"
    cfg = SolverConfig(algorithm="bpge", estimator="sarah").resolved()
    assert cfg.estimator == "full" and cfg.beta_mode != "off"
    cfg = SolverConfig(algorithm="bpsg", beta_mode="scheduled").resolved()
    assert cfg.beta_mode == "off" and cfg.estimator == "saga"
    cfg = SolverConfig(algorithm="bpsge").resolved()
    assert cfg.estimator == "saga" and cfg.beta_mode == "scheduled"


# -- extrapolation ----------------------------------------------------------


def test_beta_schedule_values(small_gnmf):
    cfg = SolverConfig(beta_mode="scheduled", beta_scale=0.6)
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    y = start_point(small_gnmf, seed=52)
    _, beta1 = extrapolate(x, y, 1, cfg, kern, 1.0, 0.0)
    assert beta1 == 0.0  # (k-1)/(k+2) vanishes at k = 1
    _, beta4 = extrapolate(x, y, 4, cfg, kern, 1.0, 0.0)
    assert beta4 == pytest.approx(0.3)  # 0.6 * 3/6
    _, beta0 = extrapolate(x, y, 0, cfg, kern, 1.0, 0.0)
    assert beta0 == 0.0


def test_extrapolate_off_and_no_movement(small_gnmf):
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    cfg = SolverConfig(beta_mode="off")
    x_bar, beta = extrapolate(x, start_point(small_gnmf, 52), 5, cfg, kern, 1.0, 0.0)
    assert beta == 0.0 and x_bar is x
    cfg = SolverConfig(beta_mode="scheduled")
    x_bar, beta = extrapolate(x, x.copy(), 5, cfg, kern, 1.0, 0.0)
    assert beta == 0.0  # identical iterates give nothing to extrapolate


def test_extrapolated_point_formula(small_gnmf):
    cfg = SolverConfig(beta_mode="scheduled", beta_scale=0.5)
    kern = small_gnmf.kernel(1.0)
    x = start_point(small_gnmf)
    y = start_point(small_gnmf, 52)
    x_bar, beta = extrapolate(x, y, 10, cfg, kern, 1.0, 0.0)
    assert np.allclose(x_bar.u, x.u + beta * (x.u - y.u))
    assert np.allclose(x_bar.v, x.v + beta * (x.v - y.v))


def test_safeguarded_beta_respects_distance_inequality(small_gnmf):
    cfg = SolverConfig(beta_mode="safeguarded", delta=0.9, epsilon=0.1)
    kern = small_gnmf.kernel(1.0)
    rng = make_rng(53)
    for k in (2, 5, 20):
        x = random_pair(rng, 8, 2, 10, 0.0, 1.0)
        y = random_pair(rng, 8, 2, 10, 0.0, 1.0)
        l_under, eta_prev = 2.0, 0.25
        x_bar, beta = extrapolate(x, y, k, cfg, kern, eta_prev, l_under)
        bound = (0.9 - 0.1) / (1.0 + l_under * eta_prev) * max(
            bregman_distance(kern, y, x), 0.0
        )
        assert bregman_distance(kern, x, x_bar) <= bound + 1e-12
        assert 0.0 <= beta <= 0.6 * (k - 1) / (k + 2)


# -- step size --------------------------------------------------------------


def test_step_size_inverse_curvature(small_gnmf):
    cfg = SolverConfig()
    x = start_point(small_gnmf)
    l_k = small_gnmf.local_lipschitz(x)
    eta, l_eff, floored = step_size(small_gnmf, x, 1e6, cfg)
    assert eta == pytest.approx(1.0 / l_k, rel=1e-6)
    assert l_eff == pytest.approx(l_k, rel=1e-6)
    assert not floored
    # Never exceeds the previous step.
    eta2, _, _ = step_size(small_gnmf, x, eta / 2, cfg)
    assert eta2 == eta / 2


def test_step_size_strict_mode_caps(small_gnmf):
    cfg = SolverConfig(strict_theory_stepsize=True, l_bar=5.0, delta=0.99)
    x = start_point(small_gnmf)  # tiny factors, so local curvature << 5
    eta, l_eff, _ = step_size(small_gnmf, x, 10.0, cfg)
    assert eta == pytest.approx(0.2)
    assert l_eff == 5.0
    # A weakly convex problem additionally caps by (1 - delta)/alpha.
    wprob = build_problem("wcmf", small_gnmf.m_data, 2, lambda1=0.5, lambda2=0.1)
    eta, _, _ = step_size(wprob, x, 10.0, cfg)
    assert eta <= (1.0 - 0.99) / 0.1 + 1e-12


def test_step_size_floor(small_gnmf):
    cfg = SolverConfig(eta0=1.0, eta_floor=0.5)
    x = start_point(small_gnmf)
    eta, _, floored = step_size(small_gnmf, x, 1e-3, cfg)
    assert eta == 0.5 and floored


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


def test_stationarity_witness_zero_at_fixed_point(small_gnmf):
    # If the prox returns x_bar itself and the gradient is the true one, the
    # witness collapses to the zero vector.
    x = start_point(small_gnmf)
    g = small_gnmf.full_gradient(x)
    kern = small_gnmf.kernel(0.5)
    w = stationarity_witness(small_gnmf, x, x, g, 0.5, kern)
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
    x_next = small_gnmf.prox_step(kern, g, x_bar, eta)
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
    assert math.isnan(res.trace[0].lyapunov)


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
    # Trace boundary columns mirror the last audit of each epoch.
    assert res.trace[-1].lyapunov == res.audits[-1].lyapunov


def test_run_audit_every_epoch_boundaries(small_gnmf):
    cfg = SolverConfig(
        algorithm="bpsg", batch_size=5, max_epochs=6, audit_every=2, seed=10
    )
    res = run(small_gnmf, cfg, start_point(small_gnmf))
    assert [a.epoch for a in res.audits] == [2, 4, 6]
    assert math.isnan(res.trace[1].lyapunov)
    assert math.isfinite(res.trace[2].lyapunov)


def test_run_early_stop_on_quiet_epochs():
    # A problem solved exactly from the start: x0 at a global minimizer of
    # the interior, so steps collapse immediately.
    prob = build_problem("gnmf", [[1.0]], 1)
    cfg = SolverConfig(
        algorithm="bpg", max_epochs=200, stop_tol=1e-10, stop_window=3, seed=2
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
def test_run_fails_cleanly_when_curvature_overflows(small_gnmf):
    # V = 0 keeps the gradient finite while U^T U overflows to inf.
    x0 = FactorPair(np.full((8, 2), 1e155), np.zeros((2, 10)))
    with pytest.raises(ValueError, match="non-finite"):
        small_gnmf.local_lipschitz(x0)
    res = run(small_gnmf, SolverConfig(algorithm="bpg", max_epochs=5), x0)
    assert res.failed
    assert res.message.startswith("iteration 0: spectral_norm")


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
