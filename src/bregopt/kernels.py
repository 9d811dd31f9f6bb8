"""Kernel (distance-generating) functions over factor pairs.

A factor pair x = (U, V) with U of shape (m, r) and V of shape (r, d) is the
variable of every factorization problem here.  The kernel family is

    psi(x) = a * ((|U|_F^2 + |V|_F^2) / 2)^2
           + b * (|U|_F^2 + |V|_F^2) / 2
           + (c / 2) * |U|_F^2

with a, b, c >= 0.  The quartic part matches the fourth-order growth of
|M - U V|_F^2, the quadratic part makes the kernel strongly convex, and the
optional U-only quadratic absorbs a concave regularizer when one is present.
The Bregman distance of psi is what every proximal step and every safeguard
inequality is measured in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numeric import as_dense

__all__ = [
    "FactorPair",
    "KernelSpec",
    "kernel_value",
    "kernel_gradient",
    "bregman_distance",
    "SmoothAdaptabilityReport",
    "check_smooth_adaptable",
]


@dataclass(frozen=True)
class FactorPair:
    """An (U, V) pair with matching inner dimension, stored as float64.

    ``FactorPair(u, v)`` checks input from outside the solver loop: it casts
    array-likes to C-contiguous float64 and rejects non-finite entries and
    mismatched inner dimensions.  Pairs computed from existing pairs
    (arithmetic, gradients, estimates, extrapolated points) come from
    ``_unchecked`` and may overflow; ``Problem.prox_step`` checks each iterate
    in O(1), through a finite bound on every entry, and returns it unchecked.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_dense(self.u, "u")
        v = as_dense(self.v, "v")
        if u.shape[1] != v.shape[0]:
            raise ValueError(
                f"inner dimensions differ: u is {u.shape}, v is {v.shape}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def _unchecked(cls, u: np.ndarray, v: np.ndarray) -> "FactorPair":
        """A pair of float64 arrays computed from existing pairs, unvalidated."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "u", u)
        object.__setattr__(pair, "v", v)
        return pair

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(m, r, d) for U of shape (m, r) and V of shape (r, d)."""
        return (self.u.shape[0], self.u.shape[1], self.v.shape[1])

    def copy(self) -> "FactorPair":
        return FactorPair._unchecked(self.u.copy(), self.v.copy())

    def norm_sq(self) -> float:
        """|U|_F^2 + |V|_F^2."""
        return float(np.vdot(self.u, self.u) + np.vdot(self.v, self.v))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def dot(self, other: "FactorPair") -> float:
        """Frobenius inner product over both blocks."""
        return float(np.vdot(self.u, other.u) + np.vdot(self.v, other.v))

    def __add__(self, other: "FactorPair") -> "FactorPair":
        return FactorPair._unchecked(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "FactorPair") -> "FactorPair":
        return FactorPair._unchecked(self.u - other.u, self.v - other.v)

    def scale(self, c: float) -> "FactorPair":
        return FactorPair._unchecked(c * self.u, c * self.v)


@dataclass(frozen=True)
class KernelSpec:
    """Coefficients (a, b, c) of the kernel family; see module docstring."""

    quartic: float
    quadratic: float
    u_quadratic: float = 0.0

    def __post_init__(self):
        for name in ("quartic", "quadratic", "u_quadratic"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"KernelSpec.{name} must be finite and >= 0")
            object.__setattr__(self, name, val)
        if self.quartic + self.quadratic + self.u_quadratic <= 0.0:
            raise ValueError("KernelSpec: at least one coefficient must be positive")
        if self.quadratic + self.u_quadratic == 0.0:
            warnings.warn(
                "KernelSpec has no quadratic part; the kernel is not strongly "
                "convex and proximal steps may be ill-conditioned",
                UserWarning,
                stacklevel=2,
            )


def kernel_value(spec: KernelSpec, x: FactorPair) -> float:
    u_sq = float(np.vdot(x.u, x.u))
    half = 0.5 * (u_sq + float(np.vdot(x.v, x.v)))
    return spec.quartic * half * half + spec.quadratic * half + 0.5 * spec.u_quadratic * u_sq


def kernel_gradient(spec: KernelSpec, x: FactorPair) -> FactorPair:
    """Gradient of the kernel: a radially scaled copy of x.

    With s = |U|_F^2 + |V|_F^2 the blocks are (a*s + b + c) U and (a*s + b) V.
    The result is not validated: for a huge x it can hold inf or NaN.
    """
    return _kernel_gradient(spec, x, x.norm_sq())


def _kernel_gradient(spec: KernelSpec, x: FactorPair, s: float) -> FactorPair:
    """grad psi(x) given s = ``x.norm_sq()``, in new arrays, which
    ``Problem.prox_step`` turns into its gradient step in place."""
    cu = spec.quartic * s + spec.quadratic + spec.u_quadratic
    cv = spec.quartic * s + spec.quadratic
    return FactorPair._unchecked(cu * x.u, cv * x.v)


def bregman_distance(spec: KernelSpec, x: FactorPair, y: FactorPair) -> float:
    """D_psi(x, y) = psi(x) - psi(y) - <grad psi(y), x - y>, as ``_distance``'s
    sum of nonnegative terms: D >= 0, D(x, x) == 0, and its rounding error is
    relative to D, however small D is next to psi(x).
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return _distance(spec, x, y)[0]


def _distance(spec: KernelSpec, x: FactorPair, y: FactorPair) -> tuple[float, float, float]:
    """(D_psi(x, y), |y|^2, |delta|^2) from delta = y - x, formed once.  With
    s = |y|^2, q = |delta|^2, q_U = |delta_U|^2 and p = <y, delta>, so that
    |x|^2 - s = q - 2p, D = (a s + b) q/2 + a (q - 2p)^2/4 + c q_U/2, and
    every term is nonnegative.  s and q have the bits of ``y.norm_sq()`` and
    ``(y - x).norm_sq()``."""
    du, dv = y.u - x.u, y.v - x.v
    q_u = float(np.vdot(du, du))
    q = q_u + float(np.vdot(dv, dv))
    t = q - 2.0 * (float(np.vdot(y.u, du)) + float(np.vdot(y.v, dv)))  # |x|^2 - s
    s, a = y.norm_sq(), spec.quartic
    d = 0.5 * (a * s + spec.quadratic) * q + 0.25 * a * t * t + 0.5 * spec.u_quadratic * q_u
    return d, s, q


@dataclass(frozen=True)
class SmoothAdaptabilityReport:
    """Worst observed violations of the two-sided descent inequalities.

    Violations are normalized by (1 + |f(x)|) per sampled pair; ``passed``
    holds when neither side exceeds ``tol``.
    """

    upper_excess: float
    lower_excess: float
    samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.upper_excess <= self.tol and self.lower_excess <= self.tol


def check_smooth_adaptable(
    f_value_grad,
    spec: KernelSpec,
    l_upper: float,
    l_lower: float,
    shape_u: tuple[int, int],
    shape_v: tuple[int, int],
    samples: int = 1000,
    rng: np.random.Generator | None = None,
    low: float = 0.0,
    high: float = 1.0,
    tol: float = 1e-8,
) -> SmoothAdaptabilityReport:
    """Empirically test the smooth-adaptability envelope of f against psi.

    For random pairs (x, y) drawn entrywise uniform from [low, high], checks

        f(x) - f(y) - <grad f(y), x - y>  <=  l_upper * D_psi(x, y)
        f(x) - f(y) - <grad f(y), x - y>  >= -l_lower * D_psi(x, y)

    ``f_value_grad`` maps a FactorPair to (value, gradient FactorPair).  This
    is a sampling check, not a proof: it can only ever refute the envelope.
    """
    if rng is None:
        rng = np.random.default_rng()
    if shape_u[1] != shape_v[0]:
        raise ValueError("shape_u and shape_v must share the inner dimension")

    worst_up = 0.0
    worst_lo = 0.0
    for _ in range(samples):
        x = FactorPair(
            rng.uniform(low, high, size=shape_u),
            rng.uniform(low, high, size=shape_v),
        )
        y = FactorPair(
            rng.uniform(low, high, size=shape_u),
            rng.uniform(low, high, size=shape_v),
        )
        fx, _ = f_value_grad(x)
        fy, gy = f_value_grad(y)
        lin_gap = fx - fy - gy.dot(x - y)
        d = bregman_distance(spec, x, y)
        denom = 1.0 + abs(fx)
        worst_up = max(worst_up, (lin_gap - l_upper * d) / denom)
        worst_lo = max(worst_lo, (-lin_gap - l_lower * d) / denom)
    return SmoothAdaptabilityReport(worst_up, worst_lo, samples, tol)
