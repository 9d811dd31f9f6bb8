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
    return _kernel_value(spec, u_sq + float(np.vdot(x.v, x.v)), u_sq)


def kernel_gradient(spec: KernelSpec, x: FactorPair) -> FactorPair:
    """Gradient of the kernel: a radially scaled copy of x.

    With s = |U|_F^2 + |V|_F^2 the blocks are (a*s + b + c) U and (a*s + b) V.
    The result is not validated: for a huge x it can hold inf or NaN.
    """
    return _kernel_gradient(spec, x, x.norm_sq())


def _kernel_value(spec: KernelSpec, s: float, u_sq: float) -> float:
    """psi(x) given s = ``x.norm_sq()`` and u_sq = |U|_F^2."""
    half = 0.5 * s
    return spec.quartic * half * half + spec.quadratic * half + 0.5 * spec.u_quadratic * u_sq


def _kernel_gradient(spec: KernelSpec, x: FactorPair, s: float) -> FactorPair:
    """grad psi(x) given s = ``x.norm_sq()``, in new arrays, which
    ``Problem.prox_step`` turns into its gradient step in place."""
    cu = spec.quartic * s + spec.quadratic + spec.u_quadratic
    cv = spec.quartic * s + spec.quadratic
    return FactorPair._unchecked(cu * x.u, cv * x.v)


def bregman_distance(spec: KernelSpec, x: FactorPair, y: FactorPair) -> float:
    """D_psi(x, y) = psi(x) - psi(y) - <grad psi(y), x - y>, from the block
    dots of ``_carried_distance``.  Nonnegative by convexity; roundoff may
    produce values as low as about -1e-12 on nearly equal arguments, which
    callers should treat as zero.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return _carried_distance(spec, x, kernel_value(spec, x), y)[0]


def _carried_distance(spec: KernelSpec, x: FactorPair, psi_x: float, y: FactorPair):
    """(D_psi(x, y), psi(y), s_y) given psi(x), from the block dots |U_y|^2,
    |V_y|^2, <U_x, U_y> and <V_x, V_y>, each taken once: D = psi(x) - psi(y)
    - [(a s_y + b)(<x, y> - s_y) + c (<U_x, U_y> - |U_y|^2)].  With psi(x)
    = ``kernel_value(spec, x)`` it is ``bregman_distance`` bit for bit."""
    uu, uxy = float(np.vdot(y.u, y.u)), float(np.vdot(x.u, y.u))
    s_y = uu + float(np.vdot(y.v, y.v))
    psi_y = _kernel_value(spec, s_y, uu)
    lin = (spec.quartic * s_y + spec.quadratic) * (uxy + float(np.vdot(x.v, y.v)) - s_y)
    if spec.u_quadratic:
        lin += spec.u_quadratic * (uxy - uu)
    return psi_x - psi_y - lin, psi_y, s_y


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
