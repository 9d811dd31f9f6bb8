"""Low-level numerical primitives: dense-matrix validation, deterministic
random streams, the scalar cubic solve used by every proximal update, and
elementwise shrinkage/projection operators.

All array code is float64 numpy.  Randomness goes through ``numpy``'s PCG64
generator; sub-streams for independent trials are derived with
``numpy.random.SeedSequence.spawn``, which is the documented, collision-free
way to split a seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_dense",
    "make_rng",
    "spawn_rngs",
    "cubic_root",
    "soft_threshold",
    "project_nonneg",
    "spectral_norm",
]


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D, C-contiguous float64 array.

    Rejects non-2-D input and NaN/Inf entries.  A copy is made only when the
    input is not already in the canonical layout.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def make_rng(seed) -> np.random.Generator:
    """A PCG64 generator.  Identical seeds yield bit-identical streams."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """``n`` statistically independent child generators of ``seed``.

    Uses ``SeedSequence.spawn`` so the children are reproducible and do not
    overlap the parent stream.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def cubic_root(a: float, b: float, tol: float = 1e-13, max_iter: int = 200) -> float:
    """Unique nonnegative root of ``a*t**3 + b*t - 1 = 0``.

    Requires ``a >= 0`` and ``b > 0``; then g(t) = a t^3 + b t - 1 is strictly
    increasing with g(0) = -1 and g(1/b) >= 0, so the root is unique and lies
    in (0, 1/b].  Newton from t = 1/b converges monotonically (g is convex on
    t >= 0); a bisection bracket guards against any overshoot.

    Returns the root with residual |g(t)| <= 1e-12.  Where the loop ends
    above that residual, as for a >= 1e150 with b = 1 (Newton then needs
    more than ``max_iter`` steps down to t ~ a^(-1/3)), the root comes
    from ``_cubic_closed_form`` instead; every other input keeps Newton's
    result.
    """
    a = float(a)
    b = float(b)
    if not np.isfinite(a) or not np.isfinite(b):
        raise ValueError("cubic_root: coefficients must be finite")
    if a < 0.0:
        raise ValueError(f"cubic_root: a must be >= 0, got {a}")
    if b <= 0.0:
        raise ValueError(f"cubic_root: b must be > 0, got {b}")
    if a == 0.0:
        return 1.0 / b

    lo, hi = 0.0, 1.0 / b
    t = hi
    for _ in range(max_iter):
        g = a * t * t * t + b * t - 1.0
        if abs(g) <= tol:
            return t
        if g > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - g / (3.0 * a * t * t + b)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            return t
        t = t_new
    if abs(a * t * t * t + b * t - 1.0) > 1e-12:
        t = _cubic_closed_form(a, b)
        if abs(a * t * t * t + b * t - 1.0) > 1e-12:
            raise ArithmeticError(
                f"cubic_root failed to reach residual 1e-12 for a={a}, b={b}"
            )
    return t


def _cubic_closed_form(a: float, b: float) -> float:
    """Root of a t^3 + b t = 1 for a > 0, b > 0, without iteration.

    With t = s/b and c = a/b^3 the cubic is c s^3 + s = 1, whose real root
    is s = (2/sqrt(3c)) sinh(asinh(1.5 sqrt(3c)) / 3).  sqrt(3c) is formed
    as sqrt(3a)/b/sqrt(b) so that c itself is never formed.  Where
    sqrt(3c) > 1e150, so that c may overflow, the root is taken from
    a t^3 = 1 instead: with t0 = a^(-1/3) and e = b t0 = c^(-1/3) < 1e-99,
    t = t0 (1 - e/3 + O(e^3)), which is t0 (1 - e/3) to rounding.
    """
    w = math.sqrt(3.0 * a) / b / math.sqrt(b)
    if w <= 1e150:
        return 2.0 / w * math.sinh(math.asinh(1.5 * w) / 3.0) / b
    t0 = 1.0 / float(np.cbrt(a))
    return t0 * (1.0 - b * t0 / 3.0)


def soft_threshold(y, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(y) * max(|y| - tau, 0) with tau >= 0."""
    if tau < 0.0:
        raise ValueError(f"soft_threshold: tau must be >= 0, got {tau}")
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.maximum(np.abs(y) - tau, 0.0)


def project_nonneg(a) -> np.ndarray:
    """Elementwise projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(a, dtype=np.float64), 0.0)


def spectral_norm(a) -> float:
    """Spectral norm of a symmetric matrix, its largest eigenvalue magnitude.

    Exact up to rounding: one dense symmetric eigensolve, O(n^3) for n x n
    input, that reads only the lower triangle.  Raises ValueError for input
    that is not a square matrix and when the norm is not finite, as for a
    matrix product that overflowed.
    """
    w = np.linalg.eigvalsh(a)
    norm = float(max(w[-1], -w[0]))
    if not math.isfinite(norm):
        raise ValueError("spectral_norm: the matrix has non-finite entries")
    return norm
