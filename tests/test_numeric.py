"""Low-level numeric helpers against independent oracles."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bregopt.numeric import (
    as_dense,
    cubic_root,
    make_rng,
    project_nonneg,
    soft_threshold,
    spawn_rngs,
    spectral_norm,
)
from bregopt.problems import hard_threshold_axis


def bisect_root(a, b, tol=1e-15):
    """Reference root of a t^3 + b t - 1 = 0 by plain bisection."""
    lo, hi = 0.0, 1.0 / b
    while a * hi**3 + b * hi - 1.0 < 0.0:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if a * mid**3 + b * mid - 1.0 <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- cubic_root -------------------------------------------------------------


def test_cubic_root_frozen_values():
    # Bisection oracle values at 1e-15 bracket width.
    assert cubic_root(1.0, 1.0) == pytest.approx(0.6823278038280196, abs=1e-12)
    assert cubic_root(6.0, 1.0) == pytest.approx(0.4506988250302091, abs=1e-12)


def test_cubic_root_linear_case():
    assert cubic_root(0.0, 4.0) == 0.25
    assert cubic_root(0.0, 0.5) == 2.0


def test_cubic_root_matches_bisection_sweep():
    rng = make_rng(11)
    for _ in range(300):
        a = float(rng.uniform(0.0, 100.0))
        b = float(rng.uniform(1e-4, 100.0))
        t = cubic_root(a, b)
        ref = bisect_root(a, b)
        assert abs(t - ref) <= 1e-11 * max(1.0, ref)
        assert abs(a * t**3 + b * t - 1.0) <= 1e-12


def test_cubic_root_extreme_coefficients():
    for a, b in [
        (1e8, 1e-4),
        (1e-8, 1e4),
        (100.0, 1e-6),
        (0.0, 1e-6),
        (5e-324, 1.0),
        (1e-300, 1e300),
    ]:
        t = cubic_root(a, b)
        assert t > 0.0
        assert abs(a * t**3 + b * t - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "a, b",
    [
        (1e150, 1.0),
        (1e200, 1.0),
        (1e250, 1.0),
        (1e300, 1.0),
        (1.7e308, 1.0),
        (1e300, 1e-10),  # a / b^3 overflows
        (1e-300, 1e-300),  # so does 1 / b^3 at t = 1/b
        (1e-300, 1e-140),
    ],
)
def test_cubic_root_huge_quartic_coefficient(a, b):
    # sqrt(3a/b^3) > 1e150 here, or a / b^3 overflows: the root comes from
    # the a t^3 = 1 branch, t ~ a^(-1/3).
    t = cubic_root(a, b)
    assert t > 0.0
    assert abs(a * t * t * t + b * t - 1.0) <= 1e-12
    assert t == pytest.approx(a ** (-1.0 / 3.0), rel=1e-6)


def decimal_root(a, b):
    """Root of a t^3 + b t - 1 = 0 by Newton in 60-digit decimal arithmetic.

    Starts at min(1/b, a^(-1/3)), an upper bound within a factor 1.5 of the
    root, so that the convex Newton iteration converges in a few steps.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(a), Decimal(b)
        t = 1 / b
        if a > 0:
            t = min(t, (-a.ln() / 3).exp())
        for _ in range(50):
            step = (a * t * t * t + b * t - 1) / (3 * a * t * t + b)
            t -= step
            if abs(step) <= t * Decimal("1e-50"):
                return t
    raise AssertionError(f"decimal Newton did not converge for a={a}, b={b}")


def test_cubic_root_matches_decimal_oracle():
    rng = make_rng(19)
    cases = list(
        zip(
            (10.0 ** rng.uniform(-300.0, 300.0, 5000)).tolist(),
            (10.0 ** rng.uniform(-150.0, 150.0, 5000)).tolist(),
        )
    )
    # Both sides of the regime switches at w = sqrt(3a)/b^1.5 = 1e-150, 1e150.
    for w in (1e-150, 1e150):
        for f in (0.5, 0.99, 1.0, 1.01, 2.0):
            for b in (1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150):
                s = f * w * b * math.sqrt(b)
                if 0.0 < s * s / 3.0 < math.inf:
                    cases.append((s * s / 3.0, b))
    for a, b in cases:
        t = cubic_root(a, b)
        ref = decimal_root(a, b)
        assert abs(Decimal(t) - ref) <= Decimal("5e-14") * ref, (a, b)
        assert abs(a * t * t * t + b * t - 1.0) <= 1e-12, (a, b)


def test_cubic_root_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        cubic_root(-1.0, 1.0)
    with pytest.raises(ValueError):
        cubic_root(1.0, 0.0)
    with pytest.raises(ValueError):
        cubic_root(np.inf, 1.0)


# -- thresholding -----------------------------------------------------------


def test_soft_threshold_hand_values():
    y = np.array([3.0, -2.0, 0.5, -0.5, 0.0])
    out = soft_threshold(y, 1.0)
    assert np.array_equal(out, [2.0, -1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(soft_threshold(y, 0.0), y)


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


def test_project_nonneg():
    out = project_nonneg(np.array([[1.0, -2.0], [-0.0, 3.0]]))
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 3.0]])
    assert out.min() == 0.0


def test_hard_threshold_tie_keeps_lowest_index():
    # Equal magnitudes keep the lowest index first; one-row inputs of
    # hard_threshold_axis, the one hard-thresholding rule.
    out = hard_threshold_axis(np.array([[1.0, 1.0, 1.0]]), 2, axis=1)
    assert np.array_equal(out, [[1.0, 1.0, 0.0]])
    out = hard_threshold_axis(np.array([[-2.0, 2.0, 2.0]]), 2, axis=1)
    assert np.array_equal(out, [[-2.0, 2.0, 0.0]])


# -- spectral norm ----------------------------------------------------------


def test_spectral_norm_matches_svd():
    rng = make_rng(5)
    for _ in range(30):
        m, n = rng.integers(1, 8, size=2)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, n))
        for sym in (a.T @ a, b + b.T):  # positive semidefinite, indefinite
            got = spectral_norm(sym)
            want = np.linalg.norm(sym, 2)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_spectral_norm_rank_deficient_and_zero():
    a = np.outer([1.0, 2.0, 0.0], [3.0, 0.0, 4.0, 0.0])
    assert spectral_norm(a.T @ a) == pytest.approx(
        np.linalg.norm(a, 2) ** 2, rel=1e-8
    )
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_symmetric_case():
    # A symmetric indefinite input must give the largest singular value, not
    # the largest eigenvalue.
    a = np.diag([1.0, -7.0, 3.0])
    assert spectral_norm(a) == pytest.approx(7.0, rel=1e-9)


def test_spectral_norm_validation():
    with pytest.raises(ValueError):
        spectral_norm(np.ones(3))
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(np.full((2, 2), np.inf))


# -- validation and rng -----------------------------------------------------


def test_as_dense_accepts_lists_and_casts():
    out = as_dense([[1, 2], [3, 4]], "x")
    assert out.dtype == np.float64
    assert out.flags.c_contiguous
    assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


def test_as_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        as_dense(np.ones(3), "x")
    with pytest.raises(ValueError):
        as_dense(np.array([[np.nan, 1.0]]), "x")
    with pytest.raises(ValueError):
        as_dense(np.array([[np.inf, 1.0]]), "x")


def test_make_rng_deterministic():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert np.array_equal(a, b)
    c = make_rng(43).standard_normal(5)
    assert not np.array_equal(a, c)


def test_make_rng_accepts_tuple_seed():
    a = make_rng((7, 3)).standard_normal(4)
    b = make_rng((7, 3)).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng((7, 4)).standard_normal(4))


def test_spawn_rngs_are_independent_and_stable():
    r1, r2 = spawn_rngs(0, 2)
    s1, s2 = spawn_rngs(0, 2)
    assert np.array_equal(r1.standard_normal(4), s1.standard_normal(4))
    assert not np.array_equal(
        spawn_rngs(0, 2)[0].standard_normal(4),
        spawn_rngs(0, 2)[1].standard_normal(4),
    )
