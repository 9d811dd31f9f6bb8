"""Problem kinds: objectives, gradients, kernels, and the closed-form prox."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregopt import problems
from bregopt.estimators import SAGA, SARAH
from bregopt.kernels import FactorPair, KernelSpec
from bregopt.numeric import make_rng
from bregopt.problems import (
    GraphRegularizedNMF,
    SparseNMF,
    WeaklyConvexMF,
    build_knn_laplacian,
    build_problem,
    factored_sq_diffs,
    hard_threshold_axis,
    validate_indices,
)

from .test_kernels import fd_gradient, random_pair


def make_laplacian_path_graph():
    # Path graph 0 - 1 - 2 with unit weights.
    return np.array(
        [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )


# -- helpers ----------------------------------------------------------------


def test_validate_indices():
    out = validate_indices([3, 1, 2], 5)
    assert np.array_equal(out, [1, 2, 3])
    with pytest.raises(ValueError):
        validate_indices([], 5)
    with pytest.raises(ValueError):
        validate_indices([0, 0], 5)
    with pytest.raises(ValueError):
        validate_indices([5], 5)
    with pytest.raises(ValueError):
        validate_indices([-1], 5)


def hard_threshold_1d(y, s):
    """Oracle: keep the s largest-magnitude entries of a 1-D array, the
    lowest index first among equal magnitudes."""
    out = np.zeros_like(y)
    keep = np.argsort(-np.abs(y), kind="stable")[:s]
    out[keep] = y[keep]
    return out


def test_hard_threshold_axis_matches_1d_rule():
    rng = make_rng(2)
    a = rng.standard_normal((5, 4))
    for s in (1, 2, 5):
        got = hard_threshold_axis(a, s, axis=0)
        for j in range(a.shape[1]):
            assert np.array_equal(got[:, j], hard_threshold_1d(a[:, j], s))
    got = hard_threshold_axis(a, 2, axis=1)
    for i in range(a.shape[0]):
        assert np.array_equal(got[i], hard_threshold_1d(a[i], 2))


def test_hard_threshold_axis_exhaustive_oracle():
    # Best s-sparse approximation of one row in squared error, checked
    # against every support of size s (rows short enough to enumerate).
    rng = make_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = int(rng.integers(0, n + 1))
        y = rng.standard_normal((1, n))
        z = hard_threshold_axis(y, s, axis=1)
        assert np.count_nonzero(z) <= s
        err = np.sum((y - z) ** 2)
        best = min(
            np.sum(np.delete(y, list(keep)) ** 2)
            for keep in itertools.combinations(range(n), s)
        )
        assert err <= best + 1e-12


def test_hard_threshold_axis_tie_rule():
    a = np.array([[1.0, 1.0, 1.0]])
    assert np.array_equal(hard_threshold_axis(a, 2, axis=1), [[1.0, 1.0, 0.0]])
    a = np.array([[-2.0, 2.0, 2.0]]).T
    assert np.array_equal(hard_threshold_axis(a, 2, axis=0), [[-2.0], [2.0], [0.0]])


def test_hard_threshold_axis_validation():
    with pytest.raises(ValueError):
        hard_threshold_axis(np.ones((1, 3)), 4, axis=1)
    with pytest.raises(ValueError):
        hard_threshold_axis(np.ones((1, 3)), -1, axis=1)
    with pytest.raises(ValueError):
        hard_threshold_axis(np.ones((1, 3)), 2, axis=0)
    for a in (np.ones(3), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match="2-D"):
            hard_threshold_axis(a, 1, axis=0)


def test_factored_sq_diffs_against_dense():
    rng = make_rng(6)
    m_data = rng.uniform(0.1, 1.0, (4, 5))
    prob = build_problem("gnmf", m_data, 2)
    x = random_pair(rng, 4, 2, 5, 0.0, 1.0)
    y = random_pair(rng, 4, 2, 5, 0.0, 1.0)
    tx, ty = prob.gradient_table(x), prob.gradient_table(y)
    sq = factored_sq_diffs(tx, ty)
    n = prob.n_samples
    for i in range(n):
        gx = prob.minibatch_data_gradient(x, [i])
        gy = prob.minibatch_data_gradient(y, [i])
        dense = (gx - gy).norm_sq()
        assert sq[i] == pytest.approx(dense, rel=1e-10, abs=1e-10)


# -- construction and validation --------------------------------------------


def test_build_problem_dispatch_and_unknown_kind():
    m_data = np.ones((3, 3))
    assert isinstance(build_problem("gnmf", m_data, 1), GraphRegularizedNMF)
    assert isinstance(
        build_problem("wcmf", m_data, 1, lambda1=0.1, lambda2=0.0), WeaklyConvexMF
    )
    assert isinstance(build_problem("ssnmf", m_data, 1, s1=1, s2=1), SparseNMF)
    with pytest.raises(ValueError, match="unknown problem kind"):
        build_problem("nmf", m_data, 1)


def test_problem_rejects_bad_rank_and_zero_data():
    with pytest.raises(ValueError):
        build_problem("gnmf", np.ones((3, 3)), 4)
    with pytest.raises(ValueError):
        build_problem("gnmf", np.ones((3, 3)), 0)
    with pytest.raises(ValueError):
        build_problem("gnmf", np.zeros((3, 3)), 1)


def test_gnmf_requires_laplacian_when_weighted():
    m_data = np.ones((3, 4))
    with pytest.raises(ValueError, match="laplacian"):
        GraphRegularizedNMF(m_data, 2, mu0=0.5)
    bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="sum to zero"):
        GraphRegularizedNMF(m_data, 2, mu0=0.5, laplacian=bad)
    asym = make_laplacian_path_graph()
    asym[0, 1] = -2.0
    with pytest.raises(ValueError, match="symmetric"):
        GraphRegularizedNMF(m_data, 2, mu0=0.5, laplacian=asym)


def test_wcmf_weights_need_only_be_nonnegative():
    # lambda2 >= lambda1 is accepted: the kernel's c = eta lambda2 keeps the
    # prox convex (see WeaklyConvexMF).
    m_data = np.ones((2, 2))
    for lambda1, lambda2 in ((0.1, 0.2), (0.1, 0.1), (0.0, 0.3), (0.1, 0.0)):
        prob = WeaklyConvexMF(m_data, 1, lambda1=lambda1, lambda2=lambda2)
        assert (prob.lambda1, prob.weak_convexity) == (lambda1, lambda2)
    for lambda1, lambda2 in ((-0.1, 0.0), (0.1, -0.2)):
        with pytest.raises(ValueError, match="must be >= 0"):
            WeaklyConvexMF(m_data, 1, lambda1=lambda1, lambda2=lambda2)


def test_ssnmf_budget_validation():
    m_data = np.ones((3, 4))
    with pytest.raises(ValueError):
        SparseNMF(m_data, 2, s1=0, s2=1)
    with pytest.raises(ValueError):
        SparseNMF(m_data, 2, s1=1, s2=5)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_rank_and_budgets_reject_non_integers_instead_of_truncating(bad):
    m_data = np.ones((3, 4))
    with pytest.raises(ValueError, match="rank must be an integer"):
        GraphRegularizedNMF(m_data, bad)
    with pytest.raises(ValueError, match="rank must be an integer"):
        build_problem("wcmf", m_data, bad, lambda1=0.1, lambda2=0.0)
    with pytest.raises(ValueError, match="s1 must be an integer"):
        SparseNMF(m_data, 2, s1=bad, s2=1)
    with pytest.raises(ValueError, match="s2 must be an integer"):
        SparseNMF(m_data, 2, s1=1, s2=bad)


def test_rank_and_budgets_accept_numpy_integers():
    prob = SparseNMF(np.ones((3, 4)), np.int64(2), s1=np.int64(2), s2=np.int32(3))
    assert (prob.rank, prob.s1, prob.s2) == (2, 2, 3)
    assert all(type(v) is int for v in (prob.rank, prob.s1, prob.s2))


# -- objective values -------------------------------------------------------


def test_gnmf_objective_hand_value():
    prob = build_problem("gnmf", [[2.0]], 1)
    x = FactorPair([[1.0]], [[1.0]])
    assert prob.smooth_value(x) == pytest.approx(0.5)  # (2 - 1)^2 / 2
    assert prob.objective(x) == pytest.approx(0.5)
    assert prob.objective(FactorPair([[-1.0]], [[1.0]])) == math.inf


def test_gnmf_graph_term_hand_value():
    lap = make_laplacian_path_graph()
    m_data = np.ones((3, 2))
    prob = GraphRegularizedNMF(m_data, 1, mu0=2.0, laplacian=lap)
    u = np.array([[1.0], [0.0], [0.0]])
    x = FactorPair(u, np.ones((1, 2)))
    # tr(u^T L u) = 1 for this u; graph value = mu0/2 * 1.
    data = 0.5 * np.sum((u @ np.ones((1, 2)) - m_data) ** 2)
    assert prob.smooth_value(x) == pytest.approx(data + 1.0)


def test_wcmf_objective_hand_value():
    prob = build_problem("wcmf", [[1.0]], 1, lambda1=0.5, lambda2=0.25)
    x = FactorPair([[-2.0]], [[1.0]])
    # data (1 - (-2))^2/2 = 4.5, h = 0.5*2 - 0.125*4 = 0.5
    assert prob.objective(x) == pytest.approx(5.0)
    assert prob.weak_convexity == 0.25


def test_ssnmf_objective_infinite_off_budget():
    prob = build_problem("ssnmf", np.ones((3, 3)), 2, s1=1, s2=3)
    u = np.zeros((3, 2))
    u[0, 0] = u[1, 0] = 1.0  # two nonzeros in column 0 > s1
    x = FactorPair(u, np.zeros((2, 3)))
    assert not prob.is_feasible(x)
    assert prob.objective(x) == math.inf
    u2 = np.zeros((3, 2))
    u2[0, 0] = 1.0
    assert prob.is_feasible(FactorPair(u2, np.zeros((2, 3))))


# -- gradients --------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,params",
    [
        ("gnmf", {}),
        ("wcmf", {"lambda1": 0.3, "lambda2": 0.1}),
        ("ssnmf", {"s1": 2, "s2": 3}),
    ],
)
def test_full_gradient_matches_finite_differences(kind, params):
    rng = make_rng(17)
    m_data = rng.uniform(0.1, 1.0, (4, 5))
    prob = build_problem(kind, m_data, 2, **params)
    for _ in range(5):
        x = random_pair(rng, 4, 2, 5, 0.1, 1.0)
        got = prob.full_gradient(x)
        want = fd_gradient(prob.smooth_value, x)
        assert np.allclose(got.u, want.u, rtol=1e-5, atol=1e-6)
        assert np.allclose(got.v, want.v, rtol=1e-5, atol=1e-6)


def test_graph_gradient_matches_finite_differences():
    rng = make_rng(18)
    m_data = rng.uniform(0.1, 1.0, (3, 4))
    lap = make_laplacian_path_graph()
    prob = GraphRegularizedNMF(m_data, 2, mu0=0.7, laplacian=lap)
    x = random_pair(rng, 3, 2, 4, 0.1, 1.0)
    got = prob.full_gradient(x)
    want = fd_gradient(prob.smooth_value, x)
    assert np.allclose(got.u, want.u, rtol=1e-5, atol=1e-6)
    assert np.allclose(got.v, want.v, rtol=1e-5, atol=1e-6)


def test_minibatch_gradient_full_batch_equals_data_gradient():
    rng = make_rng(19)
    m_data = rng.uniform(0.1, 1.0, (4, 6))
    prob = build_problem("gnmf", m_data, 2)
    x = random_pair(rng, 4, 2, 6, 0.0, 1.0)
    full = prob.data_gradient(x)
    batch = prob.minibatch_data_gradient(x, np.arange(6))
    assert np.allclose(batch.u, full.u, rtol=1e-12, atol=1e-12)
    assert np.allclose(batch.v, full.v, rtol=1e-12, atol=1e-12)


def test_gradient_tables_match_minibatch_gradients():
    rng = make_rng(20)
    m_data = rng.uniform(0.1, 1.0, (4, 6))
    prob = build_problem("gnmf", m_data, 2)
    x = random_pair(rng, 4, 2, 6, 0.0, 1.0)
    a, v, w = prob.gradient_table(x)
    for i in range(6):
        g = prob.minibatch_data_gradient(x, [i])
        assert np.allclose(np.outer(a[:, i], v[:, i]), g.u, atol=1e-12)
        assert np.allclose(w[:, i], g.v[:, i], atol=1e-12)
    idx = np.array([1, 4])
    ab, vb, wb = prob.batch_table(x, idx)
    assert np.array_equal(ab, a[:, idx])
    assert np.array_equal(wb, w[:, idx])


def _reference_pairs(rng, m, r, d):
    """Random, signed, rank-deficient, U = 0 and V = 0 points."""
    u, v = rng.uniform(0, 1, (m, r)), rng.uniform(0, 1, (r, d))
    su, sv = rng.standard_normal((m, r)), rng.standard_normal((r, d))
    low_u = np.outer(rng.standard_normal(m), np.ones(r))
    low_v = np.outer(np.ones(r), rng.standard_normal(d))
    return [
        FactorPair(u, v),
        FactorPair(su, sv),
        FactorPair(low_u, low_v),
        FactorPair(np.zeros((m, r)), sv),
        FactorPair(su, np.zeros((r, d))),
    ]


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_gradient_and_value_match_residual_form(kind):
    rng = make_rng(21)
    m, r, d = 9, 3, 11
    m_data = rng.uniform(0.1, 1.0, (m, d))
    lap = build_knn_laplacian(m_data, p_neighbors=3)
    params = {
        "gnmf": {"mu0": 0.4, "laplacian": lap},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 2, "s2": 3},
    }[kind]
    prob = build_problem(kind, m_data, r, **params)
    mu0 = params.get("mu0", 0.0)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for x in _reference_pairs(rng, m, r, d):
        res = x.u @ x.v - m_data
        g = prob.data_gradient(x)
        assert close(g.u, res @ x.v.T) and close(g.v, x.u.T @ res)
        full = prob.full_gradient(x)
        assert close(full.u, res @ x.v.T + mu0 * (lap @ x.u))
        assert close(full.v, x.u.T @ res)
        want = 0.5 * np.sum(res**2) + 0.5 * mu0 * np.trace(x.u.T @ lap @ x.u)
        assert prob.smooth_value(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_full_passes_allocate_at_most_one_data_sized_array(kind):
    rng = make_rng(22)
    m, r, d = 200, 5, 300
    params = {
        "gnmf": {},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 20, "s2": 30},
    }[kind]
    prob = build_problem(kind, rng.uniform(0.1, 1.0, (m, d)), r, **params)
    x = random_pair(rng, m, r, d, 0.0, 1.0)
    md_bytes = m * d * 8

    def peak(fn):
        fn(x)  # warm up
        tracemalloc.start()
        try:
            fn(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(prob.data_gradient) < md_bytes / 4
    assert peak(prob.smooth_value) < 1.5 * md_bytes


# -- data products ------------------------------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_gradient_given_the_products_is_bit_identical(kind):
    rng = make_rng(24)
    m, r, d = 220, 4, 30
    m_data = rng.uniform(0.1, 1.0, (m, d))
    params = {
        "gnmf": {"mu0": 0.4, "laplacian": build_knn_laplacian(m_data, 5)},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 20, "s2": 10},
    }[kind]
    prob = build_problem(kind, m_data, r, **params)
    if kind == "gnmf":
        assert scipy.sparse.issparse(prob.laplacian)
    for x in _reference_pairs(rng, m, r, d):
        products = prob.data_products(x)
        for grad in (prob.data_gradient, prob.full_gradient):
            direct, given = grad(x), grad(x, products)
            assert _same_bits(direct.u, given.u) and _same_bits(direct.v, given.v)


def _gram_bound(prob, x):
    """The documented bound on |Gram form - residual form|: 4 eps (|M|^2 +
    |UV|^2)."""
    uv = x.u @ x.v
    sq = np.linalg.norm(prob.m_data) ** 2 + float(np.vdot(uv, uv))
    return 4.0 * np.finfo(float).eps * sq


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_gram_form_value_matches_residual_form(scale, monkeypatch):
    rng = make_rng(25)
    m, r, d = 30, 4, 20
    u0, v0 = rng.standard_normal((m, r)), rng.standard_normal((r, d))
    noise = rng.standard_normal((m, d))
    root = math.sqrt(scale)
    prob = WeaklyConvexMF(scale * (u0 @ v0 + 0.1 * noise), r, 0.0, 0.0)
    floor = 1e-3 * 0.5 * np.linalg.norm(prob.m_data) ** 2
    passes = []
    residual_value = prob._residual_value
    monkeypatch.setattr(
        prob, "_residual_value", lambda x: passes.append(x) or residual_value(x)
    )
    points = [
        FactorPair(root * x.u, root * x.v) for x in _reference_pairs(rng, m, r, d)
    ]
    points.append(FactorPair(root * u0, root * v0))  # a fit to 0.3% of |M|^2
    for x in points:
        want = prob.smooth_value(x)  # the residual form
        passes.clear()
        got = prob.smooth_value(x, prob.data_products(x))
        assert want >= floor and not passes  # the Gram form was taken
        assert abs(got - want) <= _gram_bound(prob, x)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_gram_form_falls_back_to_the_residual_form_near_a_fit(scale):
    rng = make_rng(26)
    m, r, d = 30, 4, 20
    u0 = rng.integers(-3, 4, (m, r)).astype(float)
    v0 = rng.integers(-3, 4, (r, d)).astype(float)
    root = math.sqrt(scale)
    exact = WeaklyConvexMF(u0 @ v0, r, 0.0, 0.0)
    x = FactorPair(u0, v0)
    assert exact.smooth_value(x, exact.data_products(x)) == 0.0
    # Off the integers the fit is exact only to rounding, where the Gram
    # form alone could come out negative.
    prob = WeaklyConvexMF(scale * (u0 @ v0), r, 0.0, 0.0)
    x = FactorPair(root * u0, root * v0)
    got = prob.smooth_value(x, prob.data_products(x))
    assert got == prob.smooth_value(x) and got >= 0.0


# -- column blocks of M -------------------------------------------------------


def _kind_problem(kind, m_data, r):
    params = {
        "gnmf": {"mu0": 0.4, "laplacian": build_knn_laplacian(m_data, 3)},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 2, "s2": 3},
    }[kind]
    return build_problem(kind, m_data, r, **params)


def _products_in_one_pass(prob, x):
    """The data products as two whole-matrix GEMMs."""
    return x.u.T @ prob.m_data, (x.v @ prob.m_data.T).T


def _residual_in_one_array(prob, x):
    """|UV - M|^2 / 2 from the whole d x m transposed residual."""
    rt = x.v.T @ x.u.T
    rt -= prob.m_data.T
    return 0.5 * float(np.vdot(rt, rt))


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
@pytest.mark.parametrize("shape", [(60, 40), (120, 200)])
def test_one_block_passes_are_the_whole_matrix_expressions(kind, shape):
    # M fits in one column block at every desk, audit, acceptance and digest
    # grid shape: the blocked loop must give the whole-matrix bits there.
    m, d = shape
    rng = make_rng(30)
    prob = _kind_problem(kind, rng.uniform(0.1, 1.0, shape), 5)
    assert prob._col_blocks == [(0, d)]
    for x in _reference_pairs(rng, m, 5, d):
        got, want = prob.data_products(x), _products_in_one_pass(prob, x)
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        assert got[0].flags.c_contiguous and got[1].flags.f_contiguous
        want = _residual_in_one_array(prob, x) + prob._graph_value(x.u)
        assert prob.smooth_value(x) == want


@pytest.mark.parametrize(
    "shape, r, block_bytes, widths",
    [
        ((500, 1000), 10, None, [65] * 15 + [25]),  # an uneven last block
        ((60, 40), 4, 8 * 60 * 7, [7] * 5 + [5]),
        ((33_000, 5), 2, None, [1] * 5),  # a column is above the block size
        ((33_000, 1), 1, None, [1]),  # d = 1
    ],
)
def test_blocked_passes_match_the_whole_matrix_expressions(
    shape, r, block_bytes, widths, monkeypatch
):
    if block_bytes is not None:
        monkeypatch.setattr(problems, "_BLOCK_BYTES", block_bytes)
    m, d = shape
    rng = make_rng(31)
    prob = build_problem("wcmf", rng.uniform(0.1, 1.0, shape), r, lambda1=0.1, lambda2=0.05)
    assert prob._col_blocks == [(s, s + w) for s, w in zip(np.cumsum([0] + widths), widths)]

    def close(got, want, tol):
        return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    for x in _reference_pairs(rng, m, r, d):
        got, want = prob.data_products(x), _products_in_one_pass(prob, x)
        assert close(got[0], want[0], 1e-14) and close(got[1], want[1], 1e-14)
        want = _residual_in_one_array(prob, x)
        assert prob.smooth_value(x) == pytest.approx(want, rel=1e-13)


def test_residual_value_holds_one_block_of_the_residual():
    rng = make_rng(32)
    m, r, d = 500, 10, 1000
    prob = build_problem("wcmf", rng.uniform(0.1, 1.0, (m, d)), r, lambda1=0.1, lambda2=0.05)
    x = random_pair(rng, m, r, d, 0.0, 1.0)
    prob.smooth_value(x)  # warm up
    tracemalloc.start()
    try:
        prob.smooth_value(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * problems._BLOCK_BYTES + 8 * r * (m + d)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
@pytest.mark.parametrize("shape", [(60, 40), (400, 600)])
def test_residual_pass_gives_the_value_and_the_data_gradient(kind, shape):
    # One block at 60 x 40, eight at 400 x 600.  The value keeps the bits
    # of the value-only pass; the gradient is the Gram form's to rounding.
    m, d = shape
    rng = make_rng(36)
    prob = _kind_problem(kind, rng.uniform(0.1, 1.0, shape), 5)
    assert len(prob._col_blocks) == (1 if shape == (60, 40) else 8)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    for x in _reference_pairs(rng, m, 5, d):
        value, g = prob._residual_pass(x, gradient=True)
        assert value == prob._residual_value(x)
        assert prob._residual_pass(x) == (value, None)
        want = prob.data_gradient(x)
        assert close(g.u, want.u) and close(g.v, want.v)
        # On a feasible point: the objective's bits and the full gradient.
        x = FactorPair(
            hard_threshold_axis(np.abs(x.u), 2, axis=0),
            hard_threshold_axis(np.abs(x.v), 3, axis=1),
        )
        value, g = prob._objective_and_gradient(x)
        assert value == prob.objective(x)
        want = prob.full_gradient(x)
        assert close(g.u, want.u) and close(g.v, want.v)


@pytest.mark.parametrize("kind", ["gnmf", "wcmf", "ssnmf"])
def test_objective_and_gradient_given_the_products(kind):
    # The objective and the full gradient from the same products, bit for
    # bit, in the Gram form and, at a near fit, the residual form.
    rng = make_rng(38)
    m, r, d = 12, 2, 9
    u, v = np.zeros((m, r)), np.zeros((r, d))
    u[:2], v[:, :3] = rng.uniform(0.1, 1.0, (2, r)), rng.uniform(0.1, 1.0, (r, 3))
    prob = _kind_problem(kind, u @ v + 1e-3, r)  # ssnmf: budgets 2 and 3
    near, far = FactorPair(u, v), FactorPair(2.0 * u, v)
    floor = problems._GRAM_MIN_SHARE * 0.5 * prob._sq_norm_m
    assert prob._residual_value(near) < floor < prob._residual_value(far)
    for x in (near, far):
        products = prob.data_products(x)
        value, g = prob._objective_and_gradient(x, products)
        assert value == prob.objective(x, products)
        want = prob.full_gradient(x, products)
        assert _same_bits(g.u, want.u) and _same_bits(g.v, want.v)


def test_objective_and_gradient_is_inf_off_the_feasible_set():
    rng = make_rng(37)
    prob = _kind_problem("ssnmf", rng.uniform(0.1, 1.0, (9, 11)), 3)
    x = random_pair(rng, 9, 3, 11, 0.1, 1.0)  # dense: over the budgets
    assert prob.objective(x) == math.inf
    assert prob._objective_and_gradient(x) == (math.inf, None)


def test_full_batch_estimators_are_the_full_gradient_over_several_blocks():
    # SAGA at b = n and SARAH restarting at every step take the full
    # gradient by its own path; over several column blocks the bits agree.
    rng = make_rng(33)
    m, r, d = 300, 4, 200
    prob = _kind_problem("gnmf", rng.uniform(0.1, 1.0, (m, d)), r)
    assert len(prob._col_blocks) > 1
    saga = SAGA(prob, d, make_rng(34))
    sarah = SARAH(prob, 10, 1.0, make_rng(35))
    for _ in range(4):
        x = random_pair(rng, m, r, d, 0.0, 1.0)
        full = prob.full_gradient(x)
        for est in (saga, sarah):
            g = est.estimate(x)
            assert _same_bits(g.u, full.u) and _same_bits(g.v, full.v)


# -- kernels per kind -------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (60, 40), (500, 1000)])
def test_norm_m_is_np_linalg_norm_bit_for_bit(shape):
    # |M|_F is the square root of the one |M|^2 pass over the stored M, the
    # bits of np.linalg.norm over the same memory.
    rng = make_rng(24)
    for scale in (1e-6, 1.0, 1e6):
        prob = build_problem("gnmf", scale * rng.uniform(0.1, 1.0, shape), 1)
        assert prob.norm_m == np.linalg.norm(prob.m_data)
        assert prob.norm_m**2 == pytest.approx(prob._sq_norm_m, rel=1e-15)


def test_prescribed_kernels():
    rng = make_rng(23)
    m_data = rng.uniform(0.1, 1.0, (4, 5))
    norm_m = np.linalg.norm(m_data)

    k = build_problem("gnmf", m_data, 2).kernel()
    assert (k.quartic, k.u_quadratic) == (3.0, 0.0)
    assert k.quadratic == pytest.approx(norm_m)

    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    prob = GraphRegularizedNMF(m_data[:2], 1, mu0=0.5, laplacian=lap)
    assert prob.kernel().quadratic == pytest.approx(
        np.linalg.norm(m_data[:2]) + 0.5 * np.linalg.norm(lap)
    )

    wcmf = build_problem("wcmf", m_data, 2, lambda1=0.4, lambda2=0.2)
    k = wcmf.kernel(0.3)
    assert k.quadratic == wcmf.norm_m == pytest.approx(norm_m)
    assert k.u_quadratic == pytest.approx(0.3 * 0.2)
    assert wcmf.kernel(0.7) != k

    k = build_problem("ssnmf", m_data, 2, s1=1, s2=1).kernel(0.7)
    assert k.u_quadratic == 0.0

    # One rule for every kind: c = eta * alpha, so the indicator kinds'
    # kernel is the same spec at every eta.
    for fixed in (
        prob,
        build_problem("gnmf", m_data, 2),
        build_problem("ssnmf", m_data, 2, s1=1, s2=1),
    ):
        assert fixed.kernel(0.1) == fixed.kernel(0.7)
    for problem in (prob, wcmf, build_problem("ssnmf", m_data, 2, s1=1, s2=1)):
        for eta in (0.1, 0.3, 0.7, 2.5):
            assert problem.kernel(eta).u_quadratic == eta * problem.weak_convexity


def test_local_lipschitz_matches_direct_norms():
    rng = make_rng(24)
    m_data = rng.uniform(0.1, 1.0, (4, 5))
    prob = build_problem("gnmf", m_data, 2)
    zeros = np.zeros
    cases = {
        "random": random_pair(rng, 4, 2, 5, 0.0, 1.0),
        "random_signed": random_pair(rng, 4, 2, 5),
        "rank_deficient": FactorPair(
            np.outer([1.0, 2.0, 0.0, 1.0], [3.0, 4.0]),
            np.outer([1.0, 0.0], [3.0, 0.0, 4.0, 0.0, 1.0]),
        ),
        "v_zero": FactorPair(rng.uniform(0.0, 1.0, (4, 2)), zeros((2, 5))),
        "zero": FactorPair(zeros((4, 2)), zeros((2, 5))),
        # Sign-indefinite diagonal factors: both Grams are diag(1, 49).
        "symmetric": FactorPair(
            np.eye(4, 2) * [1.0, -7.0], np.eye(2, 5) * [[1.0], [-7.0]]
        ),
    }
    for name, x in cases.items():
        want = max(
            np.linalg.norm(x.v @ x.v.T, 2), np.linalg.norm(x.u.T @ x.u, 2)
        )
        assert prob.local_lipschitz(x) == pytest.approx(want, rel=1e-6), name
    with pytest.raises(ValueError, match="shape"):
        prob.local_lipschitz(random_pair(rng, 3, 2, 5))


def test_gnmf_laplacian_norm_is_the_spectral_norm():
    # At U = 0, V = 0 only the graph term mu0 |L|_2 is left.
    pts = make_rng(27).uniform(0.0, 1.0, (30, 4))
    for lap in (make_laplacian_path_graph(), build_knn_laplacian(pts, 4).toarray()):
        m = lap.shape[0]
        prob = GraphRegularizedNMF(np.ones((m, 3)), 1, mu0=0.5, laplacian=lap)
        x = FactorPair(np.zeros((m, 1)), np.zeros((1, 3)))
        want = 0.5 * np.linalg.norm(lap, 2)
        assert prob.local_lipschitz(x) == pytest.approx(want, rel=1e-12)


def test_m_data_is_held_once_sample_major():
    rng = make_rng(28)
    m_data = rng.uniform(0.1, 1.0, (7, 9))
    params = {
        "gnmf": {},
        "wcmf": {"lambda1": 0.3, "lambda2": 0.1},
        "ssnmf": {"s1": 2, "s2": 3},
    }
    for kind, kw in params.items():
        prob = build_problem(kind, m_data, 3, **kw)
        assert prob.m_data.flags.f_contiguous
        assert np.array_equal(prob.m_data, m_data)
        x = random_pair(rng, 7, 3, 9)
        assert prob.gradient_table(x)[0].flags.f_contiguous
        assert prob.batch_table(x, np.array([0, 4, 5]))[0].flags.f_contiguous
    # Input already in the stored layout is kept, not copied.
    f_data = np.asfortranarray(m_data)
    assert np.shares_memory(build_problem("gnmf", f_data, 3).m_data, f_data)


@pytest.mark.parametrize("m,sparse", [(60, False), (200, True)])
def test_graph_operator_is_chosen_by_density(m, sparse):
    # A 5-NN Laplacian has about 8 nonzeros per row: 13% of the entries at
    # m = 60, under the 5% rule at m = 200.
    rng = make_rng(29)
    m_data = rng.uniform(0.1, 1.0, (m, 40))
    lap = build_knn_laplacian(m_data, p_neighbors=5)
    prob = GraphRegularizedNMF(m_data, 3, mu0=0.4, laplacian=lap)
    assert scipy.sparse.issparse(prob.laplacian) == sparse
    u = rng.uniform(0.0, 1.0, (m, 3))
    want = 0.4 * (lap @ u)
    zero = FactorPair(np.zeros((m, 3)), np.zeros((3, 40)))
    got = prob._with_graph(zero, FactorPair(u, np.zeros((3, 40)))).u
    assert isinstance(got, np.ndarray)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert prob._graph_value(u) == pytest.approx(0.5 * np.vdot(u, want), rel=1e-12)
    want = 0.4 * np.linalg.norm(lap.toarray(), 2)
    assert prob._graph_operator_norm() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [60, 200])
def test_building_a_gnmf_problem_takes_no_spectral_norm(m, monkeypatch):
    # |L|_2 is an O(m^3) eigensolve that only ``local_lipschitz`` reads, so
    # it is taken when asked for, not when the problem is built.
    shapes = []
    spectral_norm = problems.spectral_norm

    def counted(a):
        shapes.append(a.shape)
        return spectral_norm(a)

    monkeypatch.setattr(problems, "spectral_norm", counted)
    m_data = make_rng(30).uniform(0.1, 1.0, (m, 40))
    lap = build_knn_laplacian(m_data, p_neighbors=5)
    prob = build_problem("gnmf", m_data, 3, mu0=0.4, laplacian=lap)
    assert shapes == []
    prob._graph_operator_norm()
    assert shapes == [(m, m)]


# -- proximal step ----------------------------------------------------------
#
# The frozen expectations below were produced by an out-of-band oracle:
# bisection (bracket width 1e-15) for the cubic radius and a dense grid /
# support search over the subproblem objective confirming the minimizer.


def test_prox_gnmf_frozen_instance():
    prob = build_problem("gnmf", [[1.0]], 1)
    kern = prob.kernel(1.0)
    assert kern == KernelSpec(3.0, 1.0, 0.0)
    x_bar = FactorPair([[1.0]], [[1.0]])
    g = FactorPair([[6.0]], [[6.0]])
    out = prob.prox_step(g, x_bar, 1.0)
    t = 0.4506988250302091  # root of 6 t^3 + t = 1
    assert out.u[0, 0] == pytest.approx(t, abs=1e-12)
    assert out.v[0, 0] == pytest.approx(t, abs=1e-12)


def test_prox_wcmf_frozen_instance():
    prob = build_problem("wcmf", [[1.0]], 1, lambda1=0.5, lambda2=0.25)
    kern = prob.kernel(1.0)
    assert kern.u_quadratic == pytest.approx(0.25)
    x_bar = FactorPair([[1.0]], [[1.0]])
    g = FactorPair([[6.85]], [[6.0]])
    out = prob.prox_step(g, x_bar, 1.0)
    # U lands inside the soft-threshold dead zone; V solves 3 t^3 + t = 1.
    assert out.u[0, 0] == 0.0
    assert out.v[0, 0] == pytest.approx(0.5365651646722234, abs=1e-12)


def test_prox_ssnmf_frozen_instance():
    prob = build_problem("ssnmf", [[1.0, 0.0], [0.0, 0.0]], 1, s1=1, s2=1)
    x_bar = FactorPair([[1.0], [1.0]], [[1.0, 1.0]])
    g = FactorPair([[12.2], [12.5]], [[12.4, 12.1]])
    out = prob.prox_step(g, x_bar, 1.0)
    # Shapes (0.8, 0) and (0, 0.9) scaled by the root of 4.35 t^3 + t = 1.
    assert out.u[0, 0] == pytest.approx(0.3916565793194554, abs=1e-12)
    assert out.u[1, 0] == 0.0
    assert out.v[0, 0] == 0.0
    assert out.v[0, 1] == pytest.approx(0.4406136517343873, abs=1e-12)


def batched_model_values(prob, kern, g, x_bar, eta, cands):
    return np.array(
        [prob.prox_model_value(kern, g, x_bar, eta, c) for c in cands]
    )


@pytest.mark.parametrize(
    "kind,params",
    [
        ("gnmf", {}),
        ("wcmf", {"lambda1": 0.2, "lambda2": 0.05}),
        ("ssnmf", {"s1": 2, "s2": 3}),
    ],
)
def test_prox_beats_random_candidates(kind, params):
    rng = make_rng(29)
    m_data = rng.uniform(0.1, 1.0, (3, 4))
    prob = build_problem(kind, m_data, 2, **params)
    for trial in range(3):
        x_bar = random_pair(rng, 3, 2, 4, 0.05, 1.0)
        eta = float(rng.uniform(0.1, 1.0))
        kern = prob.kernel(eta)
        g = prob.full_gradient(x_bar)
        out = prob.prox_step(g, x_bar, eta)
        assert prob.is_feasible(out)
        val = prob.prox_model_value(kern, g, x_bar, eta, out)
        cands = [
            FactorPair(
                np.abs(out.u + 0.1 * rng.standard_normal(out.u.shape)),
                np.abs(out.v + 0.1 * rng.standard_normal(out.v.shape)),
            )
            for _ in range(200)
        ]
        cands += [x_bar, out.scale(0.9), out.scale(1.1)]
        vals = batched_model_values(prob, kern, g, x_bar, eta, cands)
        assert val <= vals.min() + 1e-8


def test_prox_ssnmf_output_meets_budgets_exactly():
    rng = make_rng(33)
    m_data = rng.uniform(0.1, 1.0, (5, 6))
    prob = build_problem("ssnmf", m_data, 3, s1=2, s2=3)
    for _ in range(10):
        x_bar = random_pair(rng, 5, 3, 6, 0.0, 1.0)
        g = prob.full_gradient(x_bar)
        out = prob.prox_step(g, x_bar, 0.5)
        assert out.u.min() >= 0.0 and out.v.min() >= 0.0
        assert (out.u != 0).sum(axis=0).max() <= 2
        assert (out.v != 0).sum(axis=1).max() <= 3


def test_prox_rejects_wrong_kernel_and_eta():
    prob = build_problem("wcmf", [[1.0]], 1, lambda1=0.5, lambda2=0.25)
    x = FactorPair([[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="eta"):
        prob.prox_step(x, x, 0.0)


# -- knn laplacian ----------------------------------------------------------


def test_knn_laplacian_hand_case():
    # Three collinear points; each connects to its single nearest neighbor,
    # symmetrized: edges {0,1} and {1,2}.
    pts = np.array([[0.0], [1.0], [3.0]])
    lap = build_knn_laplacian(pts, p_neighbors=1)
    assert np.array_equal(lap.toarray(), make_laplacian_path_graph())


def test_knn_laplacian_is_a_valid_laplacian():
    rng = make_rng(41)
    pts = rng.standard_normal((10, 3))
    for weighting in ("binary", "heat"):
        lap = build_knn_laplacian(pts, p_neighbors=3, weighting=weighting).toarray()
        assert np.allclose(lap, lap.T)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        off = lap - np.diag(np.diag(lap))
        assert off.max() <= 0.0
        # Positive semidefinite up to roundoff.
        assert np.linalg.eigvalsh(lap).min() >= -1e-10


def test_knn_laplacian_heat_weights():
    pts = np.array([[0.0], [1.0], [3.0]])
    lap = build_knn_laplacian(pts, p_neighbors=1, weighting="heat", sigma=2.0)
    lap = lap.toarray()
    w01 = np.exp(-1.0 / 2.0)  # squared distance 1
    w12 = np.exp(-4.0 / 2.0)  # squared distance 4
    assert -lap[0, 1] == pytest.approx(w01)
    assert -lap[1, 2] == pytest.approx(w12)
    assert lap[1, 1] == pytest.approx(w01 + w12)


def test_knn_laplacian_validation():
    pts = np.ones((3, 2))
    with pytest.raises(ValueError):
        build_knn_laplacian(pts, p_neighbors=3)
    with pytest.raises(ValueError):
        build_knn_laplacian(pts, p_neighbors=1, weighting="gauss")
    with pytest.raises(ValueError):
        build_knn_laplacian(pts, p_neighbors=1, weighting="heat", sigma=-1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weighting", ["binary", "heat"])
def test_knn_laplacian_rejects_overflowing_distances(weighting):
    # Squares of 1e155 overflow: the distances would be NaN.
    pts = make_rng(44).choice([-1e155, 1e155], size=(6, 2))
    with pytest.raises(ValueError, match="squared distances .* overflow"):
        build_knn_laplacian(pts, p_neighbors=2, weighting=weighting)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_knn_laplacian_rejects_an_overflowing_default_sigma():
    # A hexagon of radius 6.3e153: each squared distance, 4e307, is finite,
    # but their sum, and with it the default sigma, is not.
    angles = np.arange(6) * np.pi / 3.0
    pts = 6.3e153 * np.column_stack([np.cos(angles), np.sin(angles)])
    lap = build_knn_laplacian(pts, p_neighbors=2, weighting="heat", sigma=1e308)
    assert np.isfinite(lap.toarray()).all()
    with pytest.raises(ValueError, match="mean squared neighbor distance overflows"):
        build_knn_laplacian(pts, p_neighbors=2, weighting="heat")


def knn_laplacian_oracle(x, p, weighting, sigma):
    """The kNN Laplacian with each row's neighbors from a stable argsort of
    the whole row of squared distances, nearest first."""
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :p]
    rows = np.repeat(np.arange(n), p)
    cols = nearest.ravel()
    w = np.zeros((n, n))
    if weighting == "binary":
        w[rows, cols] = 1.0
    else:
        dsel = d2[rows, cols]
        if sigma is None:
            sigma = float(dsel.mean()) or 1.0
        w[rows, cols] = np.exp(-dsel / sigma)
    w = np.maximum(w, w.T)
    return np.diag(w.sum(axis=1)) - w


def assert_same_csr(got, dense):
    """``got`` is the canonical CSR array of ``dense``, entry order and
    bits included."""
    want = scipy.sparse.csr_array(dense)
    assert isinstance(got, scipy.sparse.csr_array) and got.has_canonical_format
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@st.composite
def tie_heavy_knn_cases(draw):
    """(points, p, weighting, sigma): rows drawn from a small pool of
    small-integer points, so equal distances and duplicate rows are common.
    A scale of 0.1 or 1/3 makes the distances inexact, so a default sigma
    summed in another order than the oracle's takes other bits."""
    m = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    pool = draw(st.lists(coords, min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    p = draw(st.sampled_from([1, m - 1]) | st.integers(1, m - 1))
    weighting = draw(st.sampled_from(["binary", "heat"]))
    sigma = draw(st.none() | st.floats(0.1, 10.0))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    return scale * np.array([pool[i] for i in picks]), p, weighting, sigma


@settings(max_examples=300, deadline=None, database=None)
@example(case=(np.zeros((4, 2)), 1, "heat", None))
@example(case=(np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]]), 4, "heat", None))
@example(case=(np.array([[0.0], [1.0], [-1.0], [1.0], [0.0]]), 2, "binary", None))
@given(case=tie_heavy_knn_cases())
def test_knn_selection_matches_a_stable_full_sort(case):
    x, p, weighting, sigma = case
    got = build_knn_laplacian(x, p, weighting, sigma)
    assert_same_csr(got, knn_laplacian_oracle(x, p, weighting, sigma))


@pytest.mark.parametrize("m,sparse", [(60, False), (200, True)])
@pytest.mark.parametrize("ties", [False, True])
def test_knn_selection_matches_a_stable_full_sort_at_scale(m, sparse, ties):
    rng = make_rng(45)
    x = rng.integers(0, 3, (m, 4)) / 3.0 if ties else rng.uniform(0.1, 1.0, (m, 40))
    for weighting, sigma in (("binary", None), ("heat", None), ("heat", 0.5)):
        lap = build_knn_laplacian(x, 5, weighting, sigma)
        assert_same_csr(lap, knn_laplacian_oracle(x, 5, weighting, sigma))
        prob = build_problem("gnmf", x, 3, mu0=0.4, laplacian=lap)
        assert scipy.sparse.issparse(prob.laplacian) == sparse


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("ties", [False, True])
def test_knn_graph_does_not_depend_on_the_row_blocks(rows, ties, monkeypatch):
    # Blocks of 1 and 7 rows of the 60 x 60 distances, and the default one
    # block: the same CSR array as the dense oracle, for every weighting.
    if rows is not None:
        monkeypatch.setattr(problems, "_BLOCK_BYTES", 8 * 60 * rows)
    rng = make_rng(49)
    x = rng.integers(0, 3, (60, 4)) / 3.0 if ties else rng.uniform(0.1, 1.0, (60, 40))
    for weighting, sigma in (("binary", None), ("heat", None), ("heat", 0.5)):
        got = build_knn_laplacian(x, 5, weighting, sigma)
        assert_same_csr(got, knn_laplacian_oracle(x, 5, weighting, sigma))


def test_gnmf_accepts_its_own_knn_laplacian():
    rng = make_rng(43)
    m_data = rng.uniform(0.0, 1.0, (8, 6))
    lap = build_knn_laplacian(m_data, p_neighbors=2)
    prob = GraphRegularizedNMF(m_data, 2, mu0=0.3, laplacian=lap)
    assert prob.kernel().quadratic > np.linalg.norm(m_data)


def test_knn_graph_at_benchmark_scale_is_the_dense_graph_as_csr():
    # 500 x 1000 with a binary 5-NN graph, the benchmark's gnmf set-up: the
    # operator is the CSR array of the dense oracle, and |L|_F, a sum of
    # small integers, is the dense norm exactly.
    x = make_rng(46).uniform(0.0, 1.0, (500, 1000))
    want = knn_laplacian_oracle(x, 5, "binary", None)
    prob = build_problem("gnmf", x, 10, mu0=0.1, laplacian=build_knn_laplacian(x, 5))
    assert_same_csr(prob.laplacian, want)
    assert prob.norm_l_fro == np.linalg.norm(want)


# -- the Laplacian at the gnmf boundary --------------------------------------


def _bad_laplacians():
    path = make_laplacian_path_graph()
    cases = {"shape": (np.zeros((3, 4)), "laplacian must be 3x3, got \\(3, 4\\)")}
    for name, (i, j), value, message in (
        ("nan", (0, 0), np.nan, "non-finite"),
        ("inf", (1, 2), np.inf, "non-finite"),
        ("asymmetric", (0, 1), -2.0, "must be symmetric"),
        ("row sum", (1, 1), 3.0, "rows must sum to zero"),
    ):
        lap = path.copy()
        lap[i, j] = value
        cases[name] = (lap, message)
    cases["positive off-diagonal"] = (-path, "off-diagonal entries must be <= 0")
    return cases


@pytest.mark.parametrize("case", sorted(_bad_laplacians()))
def test_dense_and_sparse_laplacians_fail_alike(case):
    dense, message = _bad_laplacians()[case]
    m_data = np.ones((3, 4))
    errors = []
    for lap in (dense, scipy.sparse.csr_array(dense)):
        with pytest.raises(ValueError, match=message) as err:
            GraphRegularizedNMF(m_data, 2, mu0=0.5, laplacian=lap)
        assert isinstance(err.value, problems.LaplacianError)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("m,sparse", [(60, False), (200, True)])
def test_dense_and_sparse_laplacians_give_the_same_operator(m, sparse):
    x = make_rng(47).uniform(0.1, 1.0, (m, 40))
    for weighting in ("binary", "heat"):
        csr = build_knn_laplacian(x, 5, weighting)
        built = [
            build_problem("gnmf", x, 3, mu0=0.4, laplacian=lap)
            for lap in (csr, csr.toarray(), scipy.sparse.coo_array(csr))
        ]
        for prob in built:
            assert scipy.sparse.issparse(prob.laplacian) == sparse
            assert prob.kernel().quadratic == built[0].kernel().quadratic
            if sparse:
                assert_same_csr(prob.laplacian, csr.toarray())
            else:
                assert np.array_equal(prob.laplacian, csr.toarray())


def test_sparse_laplacian_duplicates_are_summed_and_the_input_is_kept():
    # The path graph's (1, 1) entry 2 given as 1 + 1, in COO and in CSR.
    path = make_laplacian_path_graph()
    rows, cols = np.nonzero(path)
    vals = path[rows, cols]
    at = np.flatnonzero((rows == 1) & (cols == 1))
    rows, cols = np.append(rows, 1), np.append(cols, 1)
    vals = np.append(vals, 1.0)
    vals[at] = 1.0
    coo = scipy.sparse.coo_array((vals, (rows, cols)), shape=(3, 3))
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(4))
    csr = scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=(3, 3))
    assert not csr.has_canonical_format
    kept = csr.data.copy(), csr.indices.copy(), csr.indptr.copy()
    m_data = make_rng(48).uniform(0.1, 1.0, (3, 4))
    want = GraphRegularizedNMF(m_data, 2, mu0=0.5, laplacian=path)
    for lap in (coo, csr):
        prob = GraphRegularizedNMF(m_data, 2, mu0=0.5, laplacian=lap)
        assert np.array_equal(prob.laplacian, path)
        assert prob.norm_l_fro == want.norm_l_fro
    assert all(np.array_equal(a, b) for a, b in zip(kept, (csr.data, csr.indices, csr.indptr)))


def test_mu0_zero_reads_no_laplacian():
    m_data = np.ones((3, 4))
    for lap in (None, np.full((2, 5), np.nan), "not a matrix"):
        prob = GraphRegularizedNMF(m_data, 2, mu0=0.0, laplacian=lap)
        assert prob.laplacian is None and prob.norm_l_fro == 0.0
