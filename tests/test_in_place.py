"""A step writes only into arrays it made: no input is changed or aliased,
and the allocation peaks of the prox and the extrapolation stay bounded."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from bregopt import problems, solver
from bregopt.estimators import SAGA, SARAH, MinibatchSGD
from bregopt.kernels import FactorPair, kernel_gradient
from bregopt.numeric import make_rng, project_nonneg, soft_threshold
from bregopt.problems import build_knn_laplacian, build_problem, hard_threshold_axis
from bregopt.solver import SolverConfig, extrapolate, run

from .test_kernels import random_pair

CASES = ("gnmf-dense", "gnmf-csr", "wcmf", "ssnmf")


def case_problem(case, seed=70):
    """The problem of a case: gnmf on a 5-NN graph stored dense (m = 60) or
    as CSR (m = 200), wcmf and ssnmf."""
    rng = make_rng(seed)
    m = 200 if case == "gnmf-csr" else 60
    m_data = rng.uniform(0.1, 1.0, (m, 40))
    if case.startswith("gnmf"):
        lap = build_knn_laplacian(m_data, 5)
        prob = build_problem("gnmf", m_data, 4, mu0=0.3, laplacian=lap)
        assert scipy.sparse.issparse(prob.laplacian) == (case == "gnmf-csr")
        return prob
    params = {"wcmf": {"lambda1": 0.3, "lambda2": 0.1}, "ssnmf": {"s1": 20, "s2": 10}}
    return build_problem(case, m_data, 4, **params[case])


def arrays(*objs):
    """The arrays in ``objs``: arrays, factor pairs and tuples of them."""
    out = []
    for obj in objs:
        if isinstance(obj, FactorPair):
            out += [obj.u, obj.v]
        elif isinstance(obj, (tuple, list)):
            out += arrays(*obj)
        else:
            out.append(obj)
    return out


def assert_untouched(call, inputs, fresh):
    """``call()`` keeps the bytes of every input array, and no array that
    ``fresh`` picks from its result shares memory with one."""
    before = [a.tobytes() for a in inputs]
    result = call()
    assert [a.tobytes() for a in inputs] == before
    for out in fresh(result):
        assert not any(np.shares_memory(out, a) for a in inputs)
    return result


@pytest.mark.parametrize("case", CASES)
def test_prox_step_writes_no_input(case):
    prob = case_problem(case)
    m, r, d = prob.shape
    rng = make_rng(71)
    x_bar = random_pair(rng, m, r, d, 0.0, 1.0)
    grad = random_pair(rng, m, r, d, -1.0, 1.0)
    kern = prob.kernel(0.3)
    for sq_norm in (None, x_bar.norm_sq()):
        assert_untouched(
            lambda: prob.prox_step(grad, x_bar, 0.3, kernel=kern, sq_norm=sq_norm),
            arrays(grad, x_bar),
            arrays,
        )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("beta_mode", ["scheduled", "safeguarded"])
def test_extrapolate_writes_no_input(case, beta_mode):
    prob = case_problem(case)
    m, r, d = prob.shape
    rng = make_rng(72)
    x_k, x_km1 = (random_pair(rng, m, r, d, 0.0, 1.0) for _ in range(2))
    kern = prob.kernel(0.5)
    cfg = SolverConfig(algorithm="bpsge", beta_mode=beta_mode)
    d_prev = solver.bregman_distance(kern, x_km1, x_k)
    # A loose and a tight bound: the safeguard takes the first trial point,
    # or halves beta before it takes one.
    betas = set()
    for scale in (1e6, 0.05):
        x_bar, beta = assert_untouched(
            lambda: extrapolate(x_k, x_km1, 10, cfg, kern, 0.5, 2.0, scale * d_prev),
            arrays(x_k, x_km1),
            lambda res: arrays(res[0]),
        )
        assert beta > 0.0
        betas.add(beta)
        assert np.allclose(x_bar.u, x_k.u + beta * (x_k.u - x_km1.u))
    assert len(betas) == (2 if beta_mode == "safeguarded" else 1)


def test_extrapolated_products_write_no_input():
    prob = case_problem("wcmf")
    rng = make_rng(73)
    m, r, d = prob.shape
    prods, prev = (prob.data_products(random_pair(rng, m, r, d)) for _ in range(2))
    got = assert_untouched(
        lambda: solver._extrapolated(prods, prev, 0.4), arrays(prods, prev), arrays
    )
    for g, p, q in zip(got, prods, prev):
        assert g.tobytes() == (p + 0.4 * (p - q)).tobytes()
    assert solver._extrapolated(prods, prev, 0.0) is prods


@pytest.mark.parametrize("case", CASES)
def test_graph_term_writes_no_input(case):
    # The graph term makes its own U-block; the V-block of the data gradient
    # passes through as it is, and without a graph so does the whole pair.
    prob = case_problem(case)
    m, r, d = prob.shape
    rng = make_rng(74)
    x = random_pair(rng, m, r, d, 0.0, 1.0)
    g_data = random_pair(rng, m, r, d)
    graph = case.startswith("gnmf")
    for call in (
        lambda: prob._with_graph(g_data, x),
        lambda: prob._graph_terms(g_data, x)[1],
    ):
        got = assert_untouched(
            call, arrays(g_data, x), lambda res: [res.u] if graph else []
        )
        assert got.v is g_data.v
        assert graph or got is g_data
    value, grad = prob._graph_terms(g_data, x)
    assert value == prob._graph_value(x.u)
    want = prob._with_graph(g_data, x)
    assert grad.u.tobytes() == want.u.tobytes()
    if graph:
        lu = prob.laplacian @ x.u
        assert want.u.tobytes() == (g_data.u + prob.mu0 * lu).tobytes()


@pytest.mark.parametrize("case", ["gnmf-dense", "gnmf-csr"])
@pytest.mark.parametrize("estimator", ["saga", "sarah"])
def test_graph_term_leaves_the_estimators_state(case, estimator, monkeypatch):
    # SARAH carries the data part of its estimate and SAGA its table means;
    # adding the graph term to the estimate changes neither.
    prob = case_problem(case)
    m, r, d = prob.shape
    rng = make_rng(75)
    est = (SAGA(prob, 5, make_rng(76)) if estimator == "saga"
           else SARAH(prob, 5, 0.3, make_rng(76)))
    states = []
    with_graph = prob._with_graph

    def state():
        if estimator == "saga":
            return [est._avg_u, est._w]
        return arrays(est._prev_est)

    def recorded(g_data, x):
        states.append([a.tobytes() for a in state()])
        return with_graph(g_data, x)

    monkeypatch.setattr(prob, "_with_graph", recorded)
    for _ in range(8):
        g = est.estimate(random_pair(rng, m, r, d, 0.0, 1.0))
        assert [a.tobytes() for a in state()] == states[-1]
        assert not any(np.shares_memory(g.u, a) for a in state())
    assert len(states) == 8


def test_public_operators_do_not_mutate():
    rng = make_rng(77)
    y = rng.standard_normal((6, 5))
    y_f = np.asfortranarray(rng.standard_normal((6, 5)))
    for a in (y, y_f):
        for op in (lambda: soft_threshold(a, 0.4), lambda: project_nonneg(a)):
            got = assert_untouched(op, [a], lambda res: [res])
            assert got.flags.f_contiguous == a.flags.f_contiguous
        want = np.sign(a) * np.maximum(np.abs(a) - 0.4, 0.0)
        assert soft_threshold(a, 0.4).tobytes() == want.tobytes()
    x = random_pair(rng, 6, 2, 5)
    prob = case_problem("wcmf")
    assert_untouched(lambda: kernel_gradient(prob.kernel(0.5), x), arrays(x), arrays)
    # Ties, signed zeros and every budget along both axes, against the rank
    # form it replaced.
    ties = np.array([[1.0, -1.0, 0.0, -0.0, 2.0], [0.5, 0.5, -0.5, 3.0, 0.0]])
    for a in (y, y_f, ties, np.round(y)):
        for axis in (0, 1):
            for s in range(a.shape[axis] + 1):
                got = assert_untouched(
                    lambda: hard_threshold_axis(a, s, axis), [a], lambda res: [res]
                )
                order = np.argsort(-np.abs(a), axis=axis, kind="stable")
                rank = order.argsort(axis=axis, kind="stable")
                assert got.tobytes() == np.where(rank < s, a, 0.0).tobytes()


def test_sgd_estimate_takes_its_own_draw_unchecked(monkeypatch):
    prob = case_problem("gnmf-dense")
    m, r, d = prob.shape
    x = random_pair(make_rng(78), m, r, d, 0.0, 1.0)
    idx = np.array([3, 7, 8, 30])
    public = prob.minibatch_data_gradient(x, idx)
    private = prob._minibatch_gradient(x, idx)
    assert public.u.tobytes() == private.u.tobytes()
    assert public.v.tobytes() == private.v.tobytes()

    def refused(*args):
        raise AssertionError("validate_indices called")

    monkeypatch.setattr(problems, "validate_indices", refused)
    est, ref = MinibatchSGD(prob, 4, make_rng(79)), make_rng(79)
    for _ in range(3):
        drawn = np.sort(ref.choice(d, size=4, replace=False, shuffle=False))
        g = est.estimate(x)
        want = prob._with_graph(prob._minibatch_gradient(x, drawn), x)
        assert g.u.tobytes() == want.u.tobytes() and g.v.tobytes() == want.v.tobytes()


class CountingLaplacian:
    """A graph operator that counts its products L @ U."""

    def __init__(self, lap):
        self.lap = lap
        self.calls = 0

    def __matmul__(self, other):
        self.calls += 1
        return self.lap @ other


@pytest.mark.parametrize("estimator", ["sgd", "saga", "sarah", "full"])
def test_one_graph_product_per_point(estimator):
    # 32 steps: of 3 columns over 4 epochs, or one bpge step an epoch.
    # Unaudited: the start's objective, one product per estimate and one per
    # epoch's objective.  Audited: the estimate at x_bar, one product at
    # x_{k+1} for the objective and the witness, and for a stochastic
    # estimator the realized error's graph term at x_bar.
    m_data = make_rng(80).uniform(0.1, 1.0, (30, 24))
    prob = build_problem(
        "gnmf", m_data, 3, mu0=0.2, laplacian=build_knn_laplacian(m_data, 5)
    )
    counter = prob.laplacian = CountingLaplacian(prob.laplacian)
    x0 = random_pair(make_rng(81), 30, 3, 24, 0.1, 1.0)
    if estimator == "full":
        cfg = SolverConfig(algorithm="bpge", max_epochs=32, stop_tol=0.0)
        wants = (65, 65)
    else:
        cfg = SolverConfig(estimator=estimator, batch_size=3, max_epochs=4, stop_tol=0.0)
        wants = (37, 97)
    for audited, want in zip((False, True), wants):
        counter.calls = 0
        res = run(prob, replace(cfg, audit_per_iteration=audited), x0)
        assert not res.failed and res.iterations_run == 32
        assert counter.calls == want


# -- allocation peaks at 500 x 1000, rank 10 ----------------------------------


def traced_peak(call):
    call()  # warm up
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def blas_scale():
    rng = make_rng(82)
    m, r, d = 500, 10, 1000
    m_data = rng.uniform(0.1, 1.0, (m, d))
    x, y = (random_pair(rng, m, r, d, 0.0, 1.0) for _ in range(2))
    grad = random_pair(rng, m, r, d, -1.0, 1.0)
    return m_data, x, y, grad, (m * r + r * d) * 8


@pytest.mark.parametrize("kind, bound", [("gnmf", 2), ("wcmf", 2), ("ssnmf", 3)])
def test_prox_step_peak_is_bounded(kind, bound, blas_scale):
    # -P and -Q in the kernel gradient plus one block of eta grad: 1.67
    # pairs, where fresh arrays for each operation took 4.01.  ssnmf's
    # selection adds -|a| and its argsort for one block: 2.45 pairs, where
    # a rank argsort and a new array for the result took 3.44.
    m_data, x, _, grad, pair = blas_scale
    params = {
        "gnmf": {},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 50, "s2": 100},
    }[kind]
    prob = build_problem(kind, m_data, 10, **params)
    kern = prob.kernel(0.2)
    assert traced_peak(lambda: prob.prox_step(grad, x, 0.2, kernel=kern)) < bound * pair


def test_extrapolate_peak_is_under_one_and_a_quarter_pairs(blas_scale):
    # Delta becomes x_bar in place: 1.05 pairs, where it took 2.67.
    m_data, x, y, _, pair = blas_scale
    prob = build_problem("wcmf", m_data, 10, lambda1=0.3, lambda2=0.1)
    cfg = SolverConfig(algorithm="bpsge", beta_mode="scheduled")
    kern = prob.kernel(0.2)
    peak = traced_peak(lambda: extrapolate(x, y, 5, cfg, kern, 0.2, 5.0, 1.0))
    assert peak < 1.25 * pair
