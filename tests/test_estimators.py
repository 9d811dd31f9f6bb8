"""Gradient estimators: identities, audits, variance trackers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregopt import estimators
from bregopt.estimators import (
    SAGA,
    SARAH,
    DecayReport,
    FullGradient,
    MinibatchSGD,
    check_geometric_decay,
    estimate_sample_lipschitz,
    make_estimator,
)
from bregopt.kernels import FactorPair
from bregopt.numeric import make_rng
from bregopt.problems import (
    GraphRegularizedNMF,
    Problem,
    build_knn_laplacian,
    build_problem,
    factored_sq_diffs,
)
from bregopt.solver import SolverConfig, run

from .test_kernels import random_pair


@pytest.fixture
def gnmf_problem():
    rng = make_rng(100)
    m_data = rng.uniform(0.1, 1.0, (6, 20))
    return build_problem("gnmf", m_data, 3)


def random_walk(problem, rng, steps=10, scale=0.05):
    m, r, d = problem.shape
    x = random_pair(rng, m, r, d, 0.1, 1.0)
    points = [x]
    for _ in range(steps):
        x = FactorPair(
            np.abs(x.u + scale * rng.standard_normal(x.u.shape)),
            np.abs(x.v + scale * rng.standard_normal(x.v.shape)),
        )
        points.append(x)
    return points


# -- construction -----------------------------------------------------------


def test_make_estimator_names_and_defaults(gnmf_problem):
    est = make_estimator("full", gnmf_problem)
    assert isinstance(est, FullGradient) and est.batch_size == 20
    est = make_estimator("sgd", gnmf_problem, rng=make_rng(0))
    assert isinstance(est, MinibatchSGD) and est.batch_size == 1  # 5% of 20
    est = make_estimator("saga", gnmf_problem, batch_size=4, rng=make_rng(0))
    assert isinstance(est, SAGA)
    est = make_estimator("sarah", gnmf_problem, batch_size=4, rng=make_rng(0))
    assert isinstance(est, SARAH)
    assert est.restart_prob == pytest.approx(1.0 / 5.0)  # ceil(20/4) steps
    with pytest.raises(ValueError, match="rng"):
        make_estimator("sgd", gnmf_problem)
    with pytest.raises(ValueError, match="unknown"):
        make_estimator("svrg", gnmf_problem, rng=make_rng(0))


def test_batch_size_bounds(gnmf_problem):
    with pytest.raises(ValueError):
        MinibatchSGD(gnmf_problem, 21, make_rng(0))
    with pytest.raises(ValueError):
        SAGA(gnmf_problem, 0, make_rng(0))
    with pytest.raises(ValueError):
        SARAH(gnmf_problem, 2, 0.0, make_rng(0))


# -- exact identities -------------------------------------------------------


def test_saga_full_batch_is_bitwise_full_gradient(gnmf_problem):
    rng = make_rng(7)
    est = SAGA(gnmf_problem, gnmf_problem.n_samples, make_rng(1))
    points = random_walk(gnmf_problem, rng, steps=25)
    est.initialize(points[0])
    for x in points:
        g = est.estimate(x)
        full = gnmf_problem.full_gradient(x)
        assert np.array_equal(g.u, full.u)
        assert np.array_equal(g.v, full.v)


def test_saga_lazy_start_is_bitwise_an_explicit_initialize(gnmf_problem):
    # ``run`` leaves the table to the first estimate, at x_bar = x0; a table
    # built by ``initialize(x0)`` gives the same estimates, bit for bit.
    points = random_walk(gnmf_problem, make_rng(18), steps=8)
    lazy = SAGA(gnmf_problem, 3, make_rng(19))
    eager = SAGA(gnmf_problem, 3, make_rng(19))
    eager.initialize(points[0])
    for x in points:
        g_lazy, g_eager = lazy.estimate(x), eager.estimate(x)
        assert np.array_equal(g_lazy.u, g_eager.u)
        assert np.array_equal(g_lazy.v, g_eager.v)


def test_saga_full_batch_builds_its_table_once_per_step(monkeypatch):
    # The lazy start must not build a table that the full-batch branch
    # rebuilds at once: one ``gradient_table`` pass per step.
    rng = make_rng(20)
    prob = build_problem("wcmf", rng.uniform(0.1, 1.0, (12, 10)), 3, lambda1=0.05,
                         lambda2=0.02)
    calls = []
    table = prob.gradient_table

    def counted(x):
        calls.append(x)
        return table(x)

    monkeypatch.setattr(prob, "gradient_table", counted)
    x0 = random_pair(rng, 12, 3, 10, 0.0, 0.1)
    g = SAGA(prob, 10, make_rng(21)).estimate(x0)
    full = prob.full_gradient(x0)
    assert np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)
    assert len(calls) == 1
    calls.clear()
    cfg = SolverConfig(algorithm="bpsg", estimator="saga", batch_size=10,
                       max_epochs=3, seed=22)
    res = run(prob, cfg, x0)
    assert res.iterations_run == 3
    assert len(calls) == 3


def test_sarah_always_restart_is_bitwise_full_gradient(gnmf_problem):
    rng = make_rng(8)
    est = SARAH(gnmf_problem, 3, 1.0, make_rng(1))
    for x in random_walk(gnmf_problem, rng, steps=25):
        g = est.estimate(x)
        full = gnmf_problem.full_gradient(x)
        assert np.array_equal(g.u, full.u)
        assert np.array_equal(g.v, full.v)


def test_identities_hold_with_graph_term():
    rng = make_rng(9)
    m_data = rng.uniform(0.1, 1.0, (5, 8))
    lap = np.diag([1.0, 2.0, 1.0, 2.0, 2.0]).copy()
    lap[0, 1] = lap[1, 0] = -1.0
    lap[1, 2] = lap[2, 1] = -1.0
    lap[3, 4] = lap[4, 3] = -2.0
    prob = GraphRegularizedNMF(m_data, 2, mu0=0.4, laplacian=lap)
    x = random_pair(rng, 5, 2, 8, 0.1, 1.0)
    full = prob.full_gradient(x)
    saga = SAGA(prob, 8, make_rng(2))
    saga.initialize(x)
    g = saga.estimate(x)
    assert np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)
    sarah = SARAH(prob, 2, 1.0, make_rng(2))
    g = sarah.estimate(x)
    assert np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)


@settings(max_examples=60, deadline=None, database=None)
@example(m=4, d=1, rank=1, b=1, kind="gnmf", seed=0)
@example(m=5, d=6, rank=5, b=6, kind="wcmf", seed=1)
@example(m=1, d=3, rank=1, b=3, kind="ssnmf", seed=2)
@given(
    m=st.integers(1, 8),
    d=st.integers(1, 8),
    rank=st.integers(1, 8),
    b=st.integers(1, 8),
    kind=st.sampled_from(["gnmf", "wcmf", "ssnmf"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tables_and_full_batch_saga_on_edge_shapes(m, d, rank, b, kind, seed):
    # Clamping pulls rank = min(m, d) and b = n into many draws.
    rank, b = min(rank, m, d), min(b, d)
    rng = make_rng(seed)
    m_data = rng.uniform(0.1, 1.0, (m, d))
    lap = build_knn_laplacian(m_data, p_neighbors=1) if m >= 2 else np.zeros((1, 1))
    params = {
        "gnmf": {"mu0": 0.3, "laplacian": lap},
        "wcmf": {"lambda1": 0.1, "lambda2": 0.05},
        "ssnmf": {"s1": 1, "s2": 1},
    }[kind]
    prob = build_problem(kind, m_data, rank, **params)
    x0, x1 = random_pair(rng, m, rank, d), random_pair(rng, m, rank, d)

    idx = np.sort(rng.choice(d, size=b, replace=False))
    full_table = prob.gradient_table(x1)
    for got, whole in zip(prob.batch_table(x1, idx), full_table):
        want = whole[:, idx]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    saga = SAGA(prob, d, make_rng(seed))
    saga.initialize(x0)
    for x in (x1, x0):
        g, full = saga.estimate(x), prob.full_gradient(x)
        assert np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)


def test_saga_table_stays_sample_major(gnmf_problem):
    points = random_walk(gnmf_problem, make_rng(12), steps=4)
    est = SAGA(gnmf_problem, 4, make_rng(3))
    est.initialize(points[0])
    assert est._a.flags.f_contiguous
    for x in points[1:4]:
        est.estimate(x)
    assert est._a.flags.f_contiguous
    est.audit(points[3])
    assert est._a.flags.f_contiguous
    full = SAGA(gnmf_problem, gnmf_problem.n_samples, make_rng(3))
    full.estimate(points[4])
    assert full._a.flags.f_contiguous


def test_minibatch_exhaustive_mean_is_unbiased(gnmf_problem):
    # All size-2 batches of a 6-column restriction average to the full
    # data gradient.
    rng = make_rng(10)
    m_small = gnmf_problem.m_data[:, :6]
    prob = build_problem("gnmf", m_small, 3)
    x = random_pair(rng, 6, 3, 6, 0.1, 1.0)
    acc = FactorPair(np.zeros_like(x.u), np.zeros_like(x.v))
    combos = list(itertools.combinations(range(6), 2))
    for idx in combos:
        acc = acc + prob.minibatch_data_gradient(x, np.array(idx))
    acc = acc.scale(1.0 / len(combos))
    full = prob.data_gradient(x)
    assert np.allclose(acc.u, full.u, atol=1e-12)
    assert np.allclose(acc.v, full.v, atol=1e-12)


# -- audits -----------------------------------------------------------------


def test_full_gradient_audit_is_zero(gnmf_problem, monkeypatch):
    est = FullGradient(gnmf_problem)
    x = random_pair(make_rng(11), 6, 3, 20, 0.1, 1.0)
    g = est.estimate(x)
    passes = []
    monkeypatch.setattr(gnmf_problem, "data_gradient", lambda *a: passes.append(a))
    aud = est.audit(x, g)
    assert aud.gamma == 0.0 and aud.upsilon == 0.0
    assert aud.realized_sq_error == 0.0
    assert passes == []  # the estimate is the full gradient: no data pass


def test_sgd_audit_reports_realized_error_only(gnmf_problem):
    est = MinibatchSGD(gnmf_problem, 2, make_rng(3))
    x = random_pair(make_rng(12), 6, 3, 20, 0.1, 1.0)
    g = est.estimate(x)
    aud = est.audit(x, g)
    assert math.isnan(aud.gamma) and math.isnan(aud.upsilon)
    assert aud.realized_sq_error > 0.0


def test_saga_audit_zero_when_table_fresh(gnmf_problem):
    est = SAGA(gnmf_problem, gnmf_problem.n_samples, make_rng(4))
    x = random_pair(make_rng(13), 6, 3, 20, 0.1, 1.0)
    est.initialize(x)
    g = est.estimate(x)
    aud = est.audit(x, g)
    assert aud.gamma == 0.0 and aud.upsilon == 0.0 and aud.realized_sq_error == 0.0


def test_saga_audit_positive_when_table_stale(gnmf_problem):
    est = SAGA(gnmf_problem, 2, make_rng(5))
    points = random_walk(gnmf_problem, make_rng(14), steps=5)
    est.initialize(points[0])
    for x in points[1:]:
        est.estimate(x)
    aud = est.audit(points[-1], None)
    assert aud.gamma > 0.0
    assert aud.upsilon > 0.0
    assert math.isnan(aud.realized_sq_error)
    # Cauchy-Schwarz ties the two trackers: upsilon^2 <= n/b * gamma... the
    # cheap direction that must always hold is upsilon^2 <= n * gamma / 1.
    assert aud.upsilon**2 <= gnmf_problem.n_samples * aud.gamma + 1e-9


def test_saga_audit_requires_initialization(gnmf_problem):
    est = SAGA(gnmf_problem, 2, make_rng(6))
    with pytest.raises(RuntimeError):
        est.audit(random_pair(make_rng(15), 6, 3, 20))


def test_saga_running_average_stays_synced(gnmf_problem, monkeypatch):
    monkeypatch.setattr(estimators, "_SAGA_RESYNC_EVERY", 10**9)
    est = SAGA(gnmf_problem, 3, make_rng(16))
    points = random_walk(gnmf_problem, make_rng(17), steps=40)
    est.initialize(points[0])
    for x in points[1:]:
        est.estimate(x)
    assert est.average_drift() < 1e-8


def test_saga_matches_dense_reference_implementation(gnmf_problem):
    # Replay the same batch draws against a dense per-sample table.
    n = gnmf_problem.n_samples
    b = 4
    est = SAGA(gnmf_problem, b, make_rng(18))
    points = random_walk(gnmf_problem, make_rng(19), steps=12)
    est.initialize(points[0])

    ref_rng = make_rng(18)
    table = [gnmf_problem.minibatch_data_gradient(points[0], [i]) for i in range(n)]
    for x in points[1:]:
        got = est.estimate(x)
        idx = np.sort(ref_rng.choice(n, size=b, replace=False, shuffle=False))
        avg = FactorPair(
            np.mean([t.u for t in table], axis=0),
            np.mean([t.v for t in table], axis=0),
        )
        fresh = {i: gnmf_problem.minibatch_data_gradient(x, [i]) for i in idx}
        corr = FactorPair(np.zeros_like(x.u), np.zeros_like(x.v))
        for i in idx:
            corr = corr + (fresh[i] - table[i])
        want = corr.scale(1.0 / b) + avg
        assert np.allclose(got.u, want.u, rtol=1e-10, atol=1e-12)
        assert np.allclose(got.v, want.v, rtol=1e-10, atol=1e-12)
        for i in idx:
            table[i] = fresh[i]


def test_sarah_recursion_matches_dense_reference(gnmf_problem):
    n = gnmf_problem.n_samples
    b = 5
    est = SARAH(gnmf_problem, b, 0.5, make_rng(20))
    points = random_walk(gnmf_problem, make_rng(21), steps=15)

    ref_rng = make_rng(20)
    prev_est = None
    prev_x = None
    for x in points:
        got = est.estimate(x)
        coin = ref_rng.random()
        if prev_est is None or coin < 0.5:
            want = gnmf_problem.data_gradient(x)
        else:
            idx = np.sort(ref_rng.choice(n, size=b, replace=False, shuffle=False))
            # (1/b) sum_{i in B} (grad f_i(x) - grad f_i(x_prev)) is exactly
            # the difference of the two n/b-scaled minibatch gradients.
            diff = gnmf_problem.minibatch_data_gradient(
                x, idx
            ) - gnmf_problem.minibatch_data_gradient(prev_x, idx)
            want = prev_est + diff
        assert np.allclose(got.u, want.u, rtol=1e-10, atol=1e-12)
        assert np.allclose(got.v, want.v, rtol=1e-10, atol=1e-12)
        prev_est, prev_x = want, x


def test_sarah_audit_takes_one_data_pass(monkeypatch):
    rng = make_rng(25)
    m_data = rng.uniform(0.1, 1.0, (8, 12))
    lap = build_knn_laplacian(m_data, p_neighbors=3)
    prob = build_problem("gnmf", m_data, 2, mu0=0.4, laplacian=lap)
    est = SARAH(prob, 3, 0.5, make_rng(26))
    x = random_pair(rng, 8, 2, 12, 0.1, 1.0)
    est.estimate(x)
    y = random_pair(rng, 8, 2, 12, 0.1, 1.0)
    g = est.estimate(y)
    passes = []
    data_gradient = prob.data_gradient
    monkeypatch.setattr(
        prob, "data_gradient", lambda z: passes.append(z) or data_gradient(z)
    )
    aud = est.audit(y, g)
    assert len(passes) == 1
    monkeypatch.undo()
    assert aud.realized_sq_error == (g - prob.full_gradient(y)).norm_sq()
    assert aud.gamma == (est._prev_est - prob.data_gradient(y)).norm_sq()


def test_sarah_audit_zero_after_restart(gnmf_problem):
    est = SARAH(gnmf_problem, 2, 1.0, make_rng(22))
    x = random_pair(make_rng(23), 6, 3, 20, 0.1, 1.0)
    est.estimate(x)
    aud = est.audit(x, None)
    assert aud.gamma == 0.0
    # Query at a different point: the stored estimate no longer matches.
    y = random_pair(make_rng(24), 6, 3, 20, 0.1, 1.0)
    assert est.audit(y, None).gamma > 0.0


def two_table_difference(problem, x, y, idx):
    """SARAH's correction from the two batch tables, and its fresh term:
    ((fa fv^T - oa ov^T) / b, (fw - ow) / b) and (fa fv^T / b, fw / b)."""
    fa, fv, fw = problem.batch_table(x, idx)
    oa, ov, ow = problem.batch_table(y, idx)
    b = idx.size
    fresh = (fa @ fv.T / b, fw / b)
    return ((fa @ fv.T - oa @ ov.T) / b, (fw - ow) / b), fresh


@pytest.mark.parametrize(
    "m, d, r, b",
    [
        (6, 20, 3, 5),
        (60, 40, 5, 1),
        (60, 40, 5, 2),
        (60, 40, 5, 40),  # b = n
        (8, 5, 5, 2),  # rank = d
        (30, 1, 1, 1),
        (500, 1000, 10, 50),
    ],
)
def test_sarah_gram_correction_matches_the_two_tables(m, d, r, b):
    # The n M_I parts of the two tables cancel exactly, so the Gram form
    # differs from the tables only by rounding, at any scale of M and any
    # distance between the two points.
    rng = make_rng(40)
    for scale in (1e-6, 1.0, 1e6):
        prob = build_problem("wcmf", scale * rng.uniform(0.1, 1.0, (m, d)), r,
                             lambda1=0.0, lambda2=0.0)
        x = random_pair(rng, m, r, d, 0.0, math.sqrt(scale))
        step = random_pair(rng, m, r, d, -1.0, 1.0)
        for rel in (1.0, 1e-2, 1e-4, 1e-6, 1e-8):
            t = rel * x.norm() / step.norm()
            y = FactorPair(x.u + t * step.u, x.v + t * step.v)
            idx = np.sort(rng.choice(d, size=b, replace=False))
            gu, gv = prob._batch_difference(
                x, x.u.T @ x.u, y, y.u.T @ y.u, idx
            )
            want, fresh = two_table_difference(prob, x, y, idx)
            for got, w, f in zip((gu, gv), want, fresh):
                assert got.shape == w.shape
                assert np.linalg.norm(got - w) <= 1e-14 * np.linalg.norm(f)


def test_sarah_minibatch_step_reads_no_batch_table(monkeypatch):
    rng = make_rng(41)
    prob = build_problem("gnmf", rng.uniform(0.1, 1.0, (12, 30)), 3)
    points = random_walk(prob, rng, steps=6)
    est = SARAH(prob, 4, 1e-300, make_rng(42))
    est.estimate(points[0])  # the first call restarts

    def no_table(*args):
        raise AssertionError("batch_table called")

    monkeypatch.setattr(Problem, "batch_table", no_table)
    for x in points[1:]:
        est.estimate(x)


def test_sarah_minibatch_step_memory_holds_one_gather():
    rng = make_rng(43)
    m, r, d, b = 500, 10, 1000, 50
    m_data = rng.uniform(0.1, 1.0, (m, d))
    prob = build_problem("gnmf", m_data, r, mu0=0.1,
                         laplacian=build_knn_laplacian(m_data, 5))
    x, y = (random_pair(rng, m, r, d, 0.0, 1.0) for _ in range(2))
    est = SARAH(prob, b, 1e-300, make_rng(44))
    est.estimate(x)
    est.estimate(y)  # warm up
    tracemalloc.start()
    try:
        est.estimate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The gather M_I takes 0.19 MiB; the two batch tables took 0.59 MiB.
    assert peak < 0.45 * 2**20


def test_sarah_carried_gram_follows_restarts(gnmf_problem):
    n, b = gnmf_problem.n_samples, 5
    est = SARAH(gnmf_problem, b, 1.0, make_rng(45))
    ref_rng = make_rng(45)
    points = random_walk(gnmf_problem, make_rng(46), steps=5, scale=0.3)
    prev_est = prev_x = None
    # restart, step, restart, step, restart, step
    for j, x in enumerate(points):
        est.restart_prob = 1.0 if j % 2 == 0 else 1e-300
        got = est.estimate(x)
        ref_rng.random()
        if j % 2 == 0:
            want = gnmf_problem.data_gradient(x)
        else:
            idx = np.sort(ref_rng.choice(n, size=b, replace=False, shuffle=False))
            (du, dv), fresh = two_table_difference(gnmf_problem, x, prev_x, idx)
            want_v = prev_est.v.copy()
            want_v[:, idx] += dv
            want = FactorPair(prev_est.u + du, want_v)
            tol = 1e-14 * (FactorPair(*fresh).norm() + prev_est.norm())
            assert (got - gnmf_problem._with_graph(want, x)).norm() <= tol
        prev_est, prev_x = want, x


# -- decay check ------------------------------------------------------------


def synthetic_records(n_seeds, length, tau, v, rng, noise=0.0):
    """Records that satisfy the decay recursion with equality in the mean."""
    records = []
    for _ in range(n_seeds):
        step_sq = rng.uniform(0.5, 1.0, size=length)
        gamma = np.empty(length)
        gamma[0] = 10.0
        for j in range(1, length):
            clean = (1.0 - tau) * gamma[j - 1] + v * (
                step_sq[j - 1] + (step_sq[j - 2] if j >= 2 else 0.0)
            )
            gamma[j] = clean * (1.0 + noise * rng.uniform(-1.0, 1.0))
        records.append((gamma, step_sq))
    return records


def test_decay_check_passes_on_conforming_records():
    rng = make_rng(30)
    records = synthetic_records(8, 40, tau=0.2, v=1.0, rng=rng, noise=0.02)
    rep = check_geometric_decay(records, tau=0.2, v_gamma=1.0)
    assert rep.passed
    assert rep.checked == 38


def test_decay_check_fails_on_slower_decay():
    # Records built for tau = 0.05 but tested against tau = 0.9: the claimed
    # contraction is far too strong and the mean violates it everywhere.
    rng = make_rng(31)
    records = synthetic_records(8, 40, tau=0.05, v=1.0, rng=rng, noise=0.02)
    rep = check_geometric_decay(records, tau=0.9, v_gamma=1.0)
    assert not rep.passed
    assert rep.violation_fraction > 0.5


def test_decay_check_validation():
    rng = make_rng(32)
    records = synthetic_records(2, 10, 0.2, 1.0, rng)
    with pytest.raises(ValueError):
        check_geometric_decay(records, tau=0.0, v_gamma=1.0)
    with pytest.raises(ValueError):
        check_geometric_decay(records, tau=0.5, v_gamma=-1.0)
    with pytest.raises(ValueError):
        check_geometric_decay([], tau=0.5, v_gamma=1.0)
    short = [(np.ones(2), np.ones(2))]
    with pytest.raises(ValueError):
        check_geometric_decay(short, tau=0.5, v_gamma=1.0)


@pytest.mark.parametrize("extra", [-2, -1, 1])
def test_decay_check_rejects_unequal_record_lengths(extra):
    # A step_sq shorter by 2 used to raise IndexError inside the loop, and a
    # longer one was silently cut; either names its record now.
    rng = make_rng(34)
    records = synthetic_records(3, 6, 0.2, 1.0, rng)
    gamma, step_sq = records[1]
    records[1] = (gamma, np.ones(len(step_sq) + extra))
    with pytest.raises(ValueError, match="record 1: 6 gamma values"):
        check_geometric_decay(records, tau=0.2, v_gamma=1.0)
    with pytest.raises(ValueError, match="record 0"):
        check_geometric_decay([(np.ones(5), np.ones(3))], tau=0.2, v_gamma=1.0)


def decay_check_loop(records, tau, v_gamma):
    """``check_geometric_decay`` as the per-iteration, per-seed loop it was
    before it became one array reduction."""
    length = min(len(g) for g, _ in records)
    violations = 0
    checked = length - 2
    n_seeds = len(records)
    for j in range(2, length):
        diffs = np.empty(n_seeds)
        for s, (gamma, step_sq) in enumerate(records):
            rhs = (1.0 - tau) * gamma[j - 1] + v_gamma * (
                step_sq[j - 1] + step_sq[j - 2]
            )
            diffs[s] = gamma[j] - rhs
        mean = diffs.mean()
        se = diffs.std(ddof=1) / math.sqrt(n_seeds) if n_seeds > 1 else 0.0
        if mean > 2.0 * se:
            violations += 1
    return DecayReport(violations / checked, checked, 0.05, tau, v_gamma)


@settings(max_examples=300, deadline=None, database=None)
@example(n_seeds=1, length=3, spread=0, tau=1.0, v=0.0, noise=0.0, seed=0)
@example(n_seeds=9, length=12, spread=3, tau=0.2, v=1.0, noise=0.5, seed=1)
@example(n_seeds=24, length=30, spread=5, tau=0.05, v=2.0, noise=2.0, seed=2)
@given(
    n_seeds=st.integers(1, 24),
    length=st.integers(3, 30),
    spread=st.integers(0, 5),
    tau=st.floats(0.01, 1.0),
    v=st.floats(0.0, 2.0),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_decay_check_matches_the_loop(n_seeds, length, spread, tau, v, noise, seed):
    # Seeds past 8 cross numpy's 8-wide pairwise summation; records of
    # unequal length are cut to the shortest; noise up to 2 flips verdicts.
    rng = make_rng(seed)
    records = [
        (g[:n], q[:n])
        for (g, q), n in zip(
            synthetic_records(n_seeds, length + spread, tau, v, rng, noise),
            length + rng.integers(0, spread + 1, size=n_seeds),
        )
    ]
    got = check_geometric_decay(records, tau, v)
    want = decay_check_loop(records, tau, v)
    assert got == want
    assert repr(float(got.violation_fraction)) == repr(float(want.violation_fraction))


# -- empirical lipschitz ----------------------------------------------------


def test_estimate_sample_lipschitz_bounds_observed_ratios(gnmf_problem):
    points = random_walk(gnmf_problem, make_rng(33), steps=8)
    m1 = estimate_sample_lipschitz(gnmf_problem, points)
    assert m1 > 0.0
    # The estimate must dominate every consecutive per-sample ratio it saw.
    for x, y in zip(points, points[1:]):
        dist = (y - x).norm()
        for i in range(gnmf_problem.n_samples):
            gx = gnmf_problem.minibatch_data_gradient(x, [i])
            gy = gnmf_problem.minibatch_data_gradient(y, [i])
            assert (gy - gx).norm() <= m1 * dist + 1e-8


def test_estimate_sample_lipschitz_needs_two_points(gnmf_problem):
    with pytest.raises(ValueError):
        estimate_sample_lipschitz(
            gnmf_problem, [random_pair(make_rng(34), 6, 3, 20)]
        )


def pairwise_sample_lipschitz(problem, points):
    """Reference: one pair at a time, two tables per pair."""
    best = 0.0
    for prev, cur in zip(points, points[1:]):
        dist = (cur - prev).norm()
        if dist > 1e-14:
            sq = factored_sq_diffs(
                problem.gradient_table(cur), problem.gradient_table(prev)
            )
            best = max(best, math.sqrt(float(sq.max())) / dist)
    return best


@pytest.mark.parametrize(
    "kind, m, d, rank",
    [("gnmf", 6, 20, 3), ("wcmf", 7, 9, 3), ("ssnmf", 5, 8, 2), ("wcmf", 4, 1, 1)],
)
def test_estimate_sample_lipschitz_equals_pairwise_loop(kind, m, d, rank, monkeypatch):
    params = {
        "gnmf": {"mu0": 0.3, "laplacian": None},
        "wcmf": {"lambda1": 0.2, "lambda2": 0.1},
        "ssnmf": {"s1": 2, "s2": 3},
    }[kind]
    rng = make_rng(35)
    m_data = rng.uniform(0.1, 1.0, (m, d))
    if kind == "gnmf":
        params["laplacian"] = build_knn_laplacian(m_data, p_neighbors=2)
    prob = build_problem(kind, m_data, rank, **params)
    points = [
        FactorPair(rng.standard_normal((m, rank)), rng.standard_normal((rank, d)))
        for _ in range(9)
    ]
    points[4] = points[3]  # a repeated point: the pair is skipped
    chunk = 3
    for budget in (estimators._SWEEP_CHUNK_BYTES, chunk * 8 * m * d):
        monkeypatch.setattr(estimators, "_SWEEP_CHUNK_BYTES", budget)
        # 3 and 4 points sit on either side of the first chunk boundary.
        for length in (2, 3, chunk, chunk + 1, 5, 9):
            got = estimate_sample_lipschitz(prob, points[:length])
            assert got == pairwise_sample_lipschitz(prob, points[:length])
        assert estimate_sample_lipschitz(prob, points[3:5]) == 0.0
    wrong = FactorPair(np.ones((m + 1, rank)), np.ones((rank, d)))
    for bad in ([wrong, points[0]], [points[0], points[1], wrong]):
        with pytest.raises(ValueError, match="point shape"):
            estimate_sample_lipschitz(prob, bad)


def test_estimate_sample_lipschitz_memory_is_bounded_by_the_chunk(monkeypatch):
    rng = make_rng(36)
    m, r, d = 200, 5, 300
    prob = build_problem("gnmf", rng.uniform(0.1, 1.0, (m, d)), r)
    points = [random_pair(rng, m, r, d, 0.0, 1.0) for _ in range(12)]
    md_bytes = m * d * 8
    want = pairwise_sample_lipschitz(prob, points)
    for budget in (estimators._SWEEP_CHUNK_BYTES, 4 * md_bytes):
        monkeypatch.setattr(estimators, "_SWEEP_CHUNK_BYTES", budget)
        estimate_sample_lipschitz(prob, points)  # warm up
        tracemalloc.start()
        try:
            got = estimate_sample_lipschitz(prob, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        # At most two chunks are alive, the one being built and the one
        # before it (its last table is a view into it), plus their factors;
        # the 12 tables together take 12 * md_bytes.
        assert peak < 2 * max(budget, md_bytes) + md_bytes
