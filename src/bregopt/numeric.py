"""Low-level numerical primitives: dense-matrix validation, deterministic
random streams, the closed-form cubic root used by every proximal update, and
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


def cubic_root(a: float, b: float) -> float:
    """Unique nonnegative root of ``a*t**3 + b*t - 1 = 0``, in closed form.

    Requires ``a >= 0`` and ``b > 0``; then g(t) = a t^3 + b t - 1 is strictly
    increasing with g(0) = -1 and g(1/b) >= 0, so the root is unique and lies
    in (0, 1/b].  With t = s/b and c = a/b^3 the cubic is c s^3 + s = 1, whose
    real root is s = (2/w) sinh(asinh(1.5 w) / 3) with w = sqrt(3c), formed as
    sqrt(3a)/b/sqrt(b) so that c itself is never formed.  Three regimes:

    - w < 1e-150 (a = 0 included): t = 1/b, since c = w^2/3 < 1e-300.
    - w <= 1e150: the sinh/asinh form above.
    - w > 1e150, where c may overflow: with t0 = a^(-1/3) and
      e = b t0 = c^(-1/3) < 1e-99, t = t0 (1 - e/3 + O(e^3)), which is
      t0 (1 - e/3) to rounding.

    Against a 60-digit reference over 120k log-uniform pairs, a in
    [1e-300, 1e300] and b in [1e-150, 1e150], the relative error was at
    most 1.8e-14 and the residual |g(t)| at most 5.3e-14.
    """
    a = float(a)
    b = float(b)
    if not math.isfinite(a) or not math.isfinite(b):
        raise ValueError("cubic_root: coefficients must be finite")
    if a < 0.0:
        raise ValueError(f"cubic_root: a must be >= 0, got {a}")
    if b <= 0.0:
        raise ValueError(f"cubic_root: b must be > 0, got {b}")
    w = math.sqrt(3.0 * a) / b / math.sqrt(b)
    if w < 1e-150:
        return 1.0 / b
    if w <= 1e150:
        return 2.0 / w * math.sinh(math.asinh(1.5 * w) / 3.0) / b
    t0 = 1.0 / float(np.cbrt(a))
    return t0 * (1.0 - b * t0 / 3.0)


def soft_threshold(y, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(y) * max(|y| - tau, 0) with tau >= 0, as
    a new array: ``y`` is not changed."""
    if tau < 0.0:
        raise ValueError(f"soft_threshold: tau must be >= 0, got {tau}")
    return _shrink(np.array(y, dtype=np.float64), tau)


def _shrink(y: np.ndarray, tau: float) -> np.ndarray:
    """``soft_threshold(y, tau)`` written into the float64 array ``y``, bit
    for bit: |y| - tau and its clip in one new array, sign(y) in y, then
    their product in y (IEEE multiplication commutes)."""
    mag = np.abs(y)
    mag -= tau
    np.maximum(mag, 0.0, out=mag)
    np.sign(y, out=y)
    y *= mag
    return y


def project_nonneg(a) -> np.ndarray:
    """Elementwise projection onto the nonnegative orthant, as a new array:
    ``a`` is not changed."""
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
