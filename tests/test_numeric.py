"""Low-level numeric helpers against independent oracles."""

import numpy as np
import pytest

from bregopt.numeric import (
    as_dense,
    cubic_root,
    hard_threshold,
    make_rng,
    project_nonneg,
    soft_threshold,
    spawn_rngs,
    spectral_norm,
)


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
    for a, b in [(1e8, 1e-4), (1e-8, 1e4), (100.0, 1e-6), (0.0, 1e-6)]:
        t = cubic_root(a, b)
        assert t > 0.0
        assert abs(a * t**3 + b * t - 1.0) <= 1e-12


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


def test_hard_threshold_exhaustive_oracle():
    # Best s-sparse approximation in squared error, checked against every
    # support of size s (vectors short enough to enumerate).
    import itertools

    rng = make_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = int(rng.integers(0, n + 1))
        y = rng.standard_normal(n)
        z = hard_threshold(y, s)
        assert np.count_nonzero(z) <= s
        err = np.sum((y - z) ** 2)
        best = min(
            np.sum(np.delete(y, list(keep)) ** 2) if keep else np.sum(y**2)
            for keep in itertools.combinations(range(n), s)
        ) if s > 0 else np.sum(y**2)
        assert err <= best + 1e-12


def test_hard_threshold_tie_keeps_lowest_index():
    out = hard_threshold(np.array([1.0, 1.0, 1.0]), 2)
    assert np.array_equal(out, [1.0, 1.0, 0.0])
    out = hard_threshold(np.array([-2.0, 2.0, 2.0]), 2)
    assert np.array_equal(out, [-2.0, 2.0, 0.0])


def test_hard_threshold_validation():
    with pytest.raises(ValueError):
        hard_threshold(np.ones((2, 2)), 1)
    with pytest.raises(ValueError):
        hard_threshold(np.ones(3), 4)


def test_project_nonneg():
    out = project_nonneg(np.array([[1.0, -2.0], [-0.0, 3.0]]))
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 3.0]])
    assert out.min() == 0.0


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
