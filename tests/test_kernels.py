"""Kernel family: values, gradients, Bregman distances, adaptability check."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregopt.kernels import (
    FactorPair,
    KernelSpec,
    bregman_distance,
    check_smooth_adaptable,
    kernel_gradient,
    kernel_value,
)
from bregopt.numeric import make_rng
from bregopt.problems import build_problem


def random_pair(rng, m=3, r=2, d=4, low=-1.0, high=1.0):
    return FactorPair(
        rng.uniform(low, high, (m, r)), rng.uniform(low, high, (r, d))
    )


def fd_gradient(fn, x, h=1e-6):
    """Central finite differences of a scalar function of a FactorPair."""
    gu = np.zeros_like(x.u)
    gv = np.zeros_like(x.v)
    for arr, out in ((x.u, gu), (x.v, gv)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = FactorPair(x.u.copy(), x.v.copy())
            dn = FactorPair(x.u.copy(), x.v.copy())
            (up.u if arr is x.u else up.v)[idx] += h
            (dn.u if arr is x.u else dn.v)[idx] -= h
            out[idx] = (fn(up) - fn(dn)) / (2 * h)
    return FactorPair(gu, gv)


# -- FactorPair -------------------------------------------------------------


def test_factor_pair_shape_and_arithmetic():
    x = FactorPair([[1.0, 2.0]], [[3.0], [4.0]])
    assert x.shape == (1, 2, 1)
    assert x.rank == 2
    assert x.norm_sq() == pytest.approx(1 + 4 + 9 + 16)
    y = x + x
    assert np.array_equal(y.u, [[2.0, 4.0]])
    z = y - x
    assert np.array_equal(z.v, x.v)
    assert x.scale(2.0).norm() == pytest.approx(2 * x.norm())
    assert x.dot(x) == pytest.approx(x.norm_sq())


def test_factor_pair_rejects_mismatched_inner_dim():
    with pytest.raises(ValueError):
        FactorPair(np.ones((2, 3)), np.ones((2, 4)))


def test_factor_pair_rejects_non_finite():
    with pytest.raises(ValueError):
        FactorPair(np.array([[np.nan]]), np.ones((1, 1)))


def test_factor_pair_copy_is_deep():
    x = FactorPair(np.ones((1, 1)), np.ones((1, 1)))
    y = x.copy()
    y.u[0, 0] = 5.0
    assert x.u[0, 0] == 1.0


# -- KernelSpec and values --------------------------------------------------


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(0.0, 0.0, 0.0)
    with pytest.warns(UserWarning):
        KernelSpec(1.0, 0.0, 0.0)


def test_kernel_value_hand_case():
    # s = 1 for a unit U and zero V: a*(1/2)^2 + b*(1/2) + c/2.
    x = FactorPair([[1.0]], [[0.0]])
    assert kernel_value(KernelSpec(1.0, 1.0, 0.0), x) == pytest.approx(0.75)
    assert kernel_value(KernelSpec(4.0, 2.0, 6.0), x) == pytest.approx(
        4 * 0.25 + 2 * 0.5 + 3.0
    )


def test_kernel_gradient_closed_form():
    spec = KernelSpec(3.0, 2.0, 0.5)
    x = FactorPair([[1.0, -1.0]], [[2.0], [0.0]])
    s = 1 + 1 + 4
    g = kernel_gradient(spec, x)
    assert np.allclose(g.u, (3 * s + 2 + 0.5) * x.u)
    assert np.allclose(g.v, (3 * s + 2) * x.v)


def test_kernel_gradient_matches_finite_differences():
    rng = make_rng(21)
    for _ in range(10):
        spec = KernelSpec(
            float(rng.uniform(0.1, 5.0)),
            float(rng.uniform(0.1, 5.0)),
            float(rng.uniform(0.0, 2.0)),
        )
        x = random_pair(rng)
        got = kernel_gradient(spec, x)
        want = fd_gradient(lambda p: kernel_value(spec, p), x)
        assert np.allclose(got.u, want.u, rtol=1e-5, atol=1e-7)
        assert np.allclose(got.v, want.v, rtol=1e-5, atol=1e-7)


# -- Bregman distance -------------------------------------------------------


def test_bregman_distance_nonnegative_and_zero_at_equal_points():
    rng = make_rng(4)
    spec = KernelSpec(3.0, 1.5, 0.25)
    for _ in range(100):
        x, y = random_pair(rng), random_pair(rng)
        assert bregman_distance(spec, x, y) > 0.0
    x = random_pair(rng)
    assert bregman_distance(spec, x, x) == 0.0


def test_bregman_distance_strong_convexity_lower_bound():
    # The quartic part is convex, so D >= (b/2) |x - y|^2 entrywise plus the
    # U-only quadratic's contribution; check the simpler b/2 bound.
    rng = make_rng(8)
    spec = KernelSpec(2.0, 3.0, 0.0)
    for _ in range(50):
        x, y = random_pair(rng), random_pair(rng)
        d = bregman_distance(spec, x, y)
        assert d >= 0.5 * spec.quadratic * (x - y).norm_sq() - 1e-10


def test_bregman_three_point_identity():
    # D(x, z) = D(x, y) + D(y, z) + <dpsi(y) - dpsi(z), x - y>
    rng = make_rng(13)
    spec = KernelSpec(1.0, 2.0, 0.5)
    for _ in range(20):
        x, y, z = random_pair(rng), random_pair(rng), random_pair(rng)
        lhs = bregman_distance(spec, x, z)
        gy = kernel_gradient(spec, y)
        gz = kernel_gradient(spec, z)
        rhs = (
            bregman_distance(spec, x, y)
            + bregman_distance(spec, y, z)
            + (gy - gz).dot(x - y)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_bregman_distance_shape_mismatch():
    spec = KernelSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        bregman_distance(
            spec,
            FactorPair(np.ones((2, 1)), np.ones((1, 2))),
            FactorPair(np.ones((3, 1)), np.ones((1, 2))),
        )


def gradient_form_distance(spec, x, y):
    """D_psi(x, y) as psi(x) - psi(y) - <grad psi(y), x - y>, the gradient
    form: an oracle that shares no arithmetic with ``bregman_distance``, whose
    own rounding error is about eps * psi."""
    gy = kernel_gradient(spec, y)
    return kernel_value(spec, x) - kernel_value(spec, y) - gy.dot(x - y)


def pair_of_norm(rng, shape, norm):
    m, r, d = shape
    x = FactorPair(rng.standard_normal((m, r)), rng.standard_normal((r, d)))
    return x.scale(norm / x.norm())


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 6)),
    log_norms=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    gap=st.sampled_from([None, 1e-12, 1e-8, 1e-4, 1e-1]),
    b=st.floats(1e-3, 1e3),
    c=st.sampled_from([0.0, 1e-3, 0.4, 50.0]),
)
def test_bregman_distance_matches_the_gradient_form(seed, shape, log_norms, gap, b, c):
    # |x| from 1e-3 to 1e3; y is far (an independent norm and direction) when
    # gap is None, else within gap |x| of x.
    rng = make_rng(seed)
    spec = KernelSpec(3.0, b, c)
    x = pair_of_norm(rng, shape, 10.0 ** log_norms[0])
    if gap is None:
        y = pair_of_norm(rng, shape, 10.0 ** log_norms[1])
    else:
        y = x + pair_of_norm(rng, shape, gap * x.norm())
    psi = kernel_value(spec, x) + kernel_value(spec, y)
    want = gradient_form_distance(spec, x, y)
    assert abs(bregman_distance(spec, x, y) - want) <= 1e-14 * psi
    assert bregman_distance(spec, x, x) == 0.0


def exact_distance(spec, x, y):
    """D_psi(x, y) from its definition, in exact rational arithmetic over the
    float entries of x and y."""
    a, b, c = (Fraction(t) for t in (spec.quartic, spec.quadratic, spec.u_quadratic))
    xu, xv, yu, yv = ([Fraction(t) for t in arr.ravel().tolist()] for arr in (x.u, x.v, y.u, y.v))

    def sq(vals):
        return sum(t * t for t in vals)

    def psi(u, v):
        s = sq(u) + sq(v)
        return a * s * s / 4 + b * s / 2 + c * sq(u) / 2

    g = a * (sq(yu) + sq(yv)) + b  # grad psi(y) = (g + c) U_y, g V_y
    lin = sum((g + c) * q * (p - q) for p, q in zip(xu, yu))
    lin += sum(g * q * (p - q) for p, q in zip(xv, yv))
    return psi(xu, xv) - psi(yu, yv) - lin


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 6)),
    log_norm=st.floats(-6.0, 6.0),
    log_gap=st.floats(-12.0, 0.0),
    direction=st.sampled_from(["random", "out", "in"]),
    a=st.floats(0.1, 10.0),
    b=st.floats(1e-3, 1e3),
    c=st.sampled_from([0.0, 1e-3, 0.4, 50.0]),
)
# the worst of 1.1e5 random draws: 3.4 eps, at D(y, x)
@example(
    seed=3548043194,
    shape=(4, 3, 4),
    log_norm=1.4098032707341766,
    log_gap=-1.1890643885938932,
    direction="in",
    a=1.597423125159478,
    b=0.0014232737013099882,
    c=0.4,
)
def test_bregman_distance_is_exact_to_a_few_ulps(
    seed, shape, log_norm, log_gap, direction, a, b, c
):
    # |x| from 1e-6 to 1e6, and y within gap |x| of x, gap from 1e-12 to 1:
    # in a random direction, or radially out of or into x, where |y|^2 - |x|^2
    # is largest next to |y - x|^2.  A difference of kernel values,
    # psi(x) - psi(y) - <grad psi(y), x - y>, was off by up to 3e8 relative
    # on such draws and read D <= 0 on a fifth of them.
    rng = make_rng(seed)
    spec = KernelSpec(a, b, c)
    x = pair_of_norm(rng, shape, 10.0**log_norm)
    gap = 10.0**log_gap
    if direction == "random":
        y = x + pair_of_norm(rng, shape, gap * x.norm())
    else:
        y = x.scale(1.0 + gap if direction == "out" else 1.0 - 0.5 * gap)
    for p, q in ((x, y), (y, x)):
        d = bregman_distance(spec, p, q)
        want = exact_distance(spec, p, q)
        assert d > 0.0
        assert abs(Fraction(d) - want) <= 8 * Fraction(np.finfo(float).eps) * want
        assert bregman_distance(spec, p, p) == 0.0


# -- smooth adaptability ----------------------------------------------------


def test_smooth_adaptable_accepts_the_prescribed_envelope():
    rng = make_rng(31)
    m_data = rng.uniform(0.0, 1.0, (3, 3))
    prob = build_problem("gnmf", m_data, 2)
    rep = check_smooth_adaptable(
        lambda x: (prob.smooth_value(x), prob.full_gradient(x)),
        prob.kernel(),
        1.0,
        1.0,
        (3, 2),
        (2, 3),
        samples=300,
        rng=make_rng(0),
    )
    assert rep.passed
    assert rep.upper_excess <= 1e-8 and rep.lower_excess <= 1e-8


def test_smooth_adaptable_refutes_an_undersized_constant():
    rng = make_rng(32)
    m_data = rng.uniform(0.5, 1.0, (3, 3))
    prob = build_problem("gnmf", m_data, 2)
    rep = check_smooth_adaptable(
        lambda x: (prob.smooth_value(x), prob.full_gradient(x)),
        prob.kernel(),
        1e-4,
        1e-4,
        (3, 2),
        (2, 3),
        samples=300,
        rng=make_rng(0),
    )
    assert not rep.passed
    assert rep.upper_excess > 1e-8


def test_smooth_adaptable_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        check_smooth_adaptable(
            lambda x: (0.0, x), KernelSpec(1.0, 1.0), 1.0, 1.0, (3, 2), (3, 3)
        )
