"""Stochastic gradient estimators over the column-sampled objective.

All estimators target the full gradient of f at the query point.  The graph
term of the graph-regularized kind is identical in every per-column summand,
so it is deterministic: estimators subsample only the data-fitting part and
add the graph gradient exactly.  Consequently the estimator error equals the
error on the data part alone.

``SAGA`` keeps a factored table: per sample it stores an m-vector residual
and an r-vector V-column (the per-sample U-gradient is their rank-one outer
product) plus the r-vector V-block.  That is O(n (m + r)) memory where dense
per-sample gradients would cost O(n m r).

``SARAH`` keeps the previous estimate and the previous query point and
recursively corrects the estimate on a minibatch, restarting with a full
gradient with a configured probability.

Audit mode computes the mean-squared-error trackers used by the convergence
analysis; these sweeps cost a full pass over the samples and are intended
for desk-scale diagnosis, not production runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FactorPair
from .problems import Problem, factored_sq_diffs, validate_indices

__all__ = [
    "VarianceAudit",
    "GradientEstimator",
    "FullGradient",
    "MinibatchSGD",
    "SAGA",
    "SARAH",
    "effective_batch_size",
    "effective_restart_prob",
    "make_estimator",
    "DecayReport",
    "check_geometric_decay",
    "estimate_sample_lipschitz",
]


@dataclass(frozen=True)
class VarianceAudit:
    """MSE trackers for one estimate.

    ``gamma`` is the squared tracker of the estimator's analysis (None for
    plain minibatch SGD, which tracks nothing), ``upsilon`` its first-order
    companion, ``realized_sq_error`` the actual |estimate - full gradient|^2
    (None when no estimate was supplied).
    """

    gamma: float | None
    upsilon: float | None
    realized_sq_error: float | None


class GradientEstimator:
    """Common interface: ``estimate`` at a point, ``audit`` the last one."""

    name = "abstract"
    batch_size: int

    def __init__(self, problem: Problem):
        self.problem = problem

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        raise NotImplementedError

    def audit(self, x_bar: FactorPair, estimate: FactorPair | None = None) -> VarianceAudit:
        raise NotImplementedError

    def _with_graph(self, g_data: FactorPair, x_bar: FactorPair) -> FactorPair:
        gg = self.problem._graph_gradient(x_bar.u)
        if gg is None:
            return g_data
        return FactorPair(g_data.u + gg, g_data.v)

    def _realized(self, x_bar: FactorPair, estimate: FactorPair | None) -> float | None:
        if estimate is None:
            return None
        diff = estimate - self.problem.full_gradient(x_bar)
        return diff.norm_sq()


class FullGradient(GradientEstimator):
    name = "full"

    def __init__(self, problem: Problem):
        super().__init__(problem)
        self.batch_size = problem.n_samples

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        return self.problem.full_gradient(x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        realized = self._realized(x_bar, estimate)
        return VarianceAudit(0.0, 0.0, 0.0 if realized is None else realized)


def _draw_batch(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """Uniform minibatch without replacement, returned sorted for
    deterministic downstream arithmetic."""
    return np.sort(rng.choice(n, size=b, replace=False, shuffle=False))


def _check_batch_size(b: int, n: int) -> int:
    if not 1 <= b <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {b}")
    return int(b)


class MinibatchSGD(GradientEstimator):
    """Plain unbiased minibatch gradient; carries no variance tracker."""

    name = "sgd"

    def __init__(self, problem: Problem, batch_size: int, rng: np.random.Generator):
        super().__init__(problem)
        self.batch_size = _check_batch_size(batch_size, problem.n_samples)
        self.rng = rng

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        idx = _draw_batch(self.rng, self.problem.n_samples, self.batch_size)
        return self.problem.sample_gradient(x_bar, idx)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        return VarianceAudit(None, None, self._realized(x_bar, estimate))


class SAGA(GradientEstimator):
    """Variance reduction with a per-sample memory of factored gradients.

    The table is initialized by a full pass at one point; each estimate
    corrects a minibatch against its stored entries plus the running table
    average, then overwrites the sampled entries with the fresh values.  With
    batch_size == n every entry refreshes each step and the estimate reduces
    exactly to the full gradient (computed through the same code path, so the
    equality is bit-for-bit).
    """

    name = "saga"

    def __init__(
        self,
        problem: Problem,
        batch_size: int,
        rng: np.random.Generator,
        resync_every: int = 100,
    ):
        super().__init__(problem)
        self.batch_size = _check_batch_size(batch_size, problem.n_samples)
        self.rng = rng
        self.resync_every = int(resync_every)
        self._initialized = False
        self._estimates_since_resync = 0

    def initialize(self, x0: FactorPair):
        """Full table pass at x0; the running averages start exact."""
        self._a, self._v, self._w = self.problem.gradient_table(x0)
        self._resync()
        self._initialized = True

    def _resync(self):
        self._avg_u = (self._a @ self._v.T) / self.problem.n_samples
        self._avg_v = self._w / self.problem.n_samples
        self._estimates_since_resync = 0

    def average_drift(self) -> float:
        """Max deviation of the running averages from the exact table mean."""
        n = self.problem.n_samples
        du = np.abs(self._avg_u - (self._a @ self._v.T) / n).max()
        dv = np.abs(self._avg_v - self._w / n).max()
        return float(max(du, dv))

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        if not self._initialized:
            self.initialize(x_bar)
        n = self.problem.n_samples
        b = self.batch_size

        if b == n:
            # Every entry refreshes: correction - stored mean + average is
            # exactly zero, so take the full-gradient path and resync.
            g_data = self.problem.data_gradient(x_bar)
            self._a, self._v, self._w = self.problem.gradient_table(x_bar)
            self._resync()
            return self._with_graph(g_data, x_bar)

        idx = _draw_batch(self.rng, n, b)
        fresh_a, fresh_v, fresh_w = self.problem.batch_table(x_bar, idx)
        stored_a = self._a[:, idx]
        stored_v = self._v[:, idx]
        stored_w = self._w[:, idx]

        fresh_outer = fresh_a @ fresh_v.T
        stored_outer = stored_a @ stored_v.T
        gu = (fresh_outer - stored_outer) / b + self._avg_u
        gv = self._avg_v.copy()
        gv[:, idx] += (fresh_w - stored_w) / b

        self._avg_u += (fresh_outer - stored_outer) / n
        self._avg_v[:, idx] += (fresh_w - stored_w) / n
        self._a[:, idx] = fresh_a
        self._v[:, idx] = fresh_v
        self._w[:, idx] = fresh_w

        self._estimates_since_resync += 1
        if self._estimates_since_resync >= self.resync_every:
            self._resync()
        return self._with_graph(FactorPair(gu, gv), x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        """Trackers against the current table (post-update at this step).

        gamma = (1/(b n)) sum_i |grad_i(x_bar) - stored_i|^2 and upsilon its
        root-sum analogue; freshly refreshed entries contribute zero.  Also
        resynchronizes the running averages.
        """
        if not self._initialized:
            raise RuntimeError("SAGA table not initialized")
        n = self.problem.n_samples
        b = self.batch_size
        sq = factored_sq_diffs(
            self.problem.gradient_table(x_bar), (self._a, self._v, self._w)
        )
        gamma = float(sq.sum()) / (b * n)
        upsilon = float(np.sqrt(sq).sum()) / math.sqrt(b * n)
        self._resync()
        return VarianceAudit(gamma, upsilon, self._realized(x_bar, estimate))


class SARAH(GradientEstimator):
    """Recursive estimator with probabilistic full-gradient restarts."""

    name = "sarah"

    def __init__(
        self,
        problem: Problem,
        batch_size: int,
        restart_prob: float,
        rng: np.random.Generator,
    ):
        super().__init__(problem)
        self.batch_size = _check_batch_size(batch_size, problem.n_samples)
        if not 0.0 < restart_prob <= 1.0:
            raise ValueError(f"restart_prob must be in (0, 1], got {restart_prob}")
        self.restart_prob = float(restart_prob)
        self.rng = rng
        self._prev_est: FactorPair | None = None
        self._prev_point: FactorPair | None = None

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        # The coin is tossed every call (even when restart_prob == 1) so the
        # consumed stream does not depend on the branch taken.
        coin = self.rng.random()
        if self._prev_est is None or coin < self.restart_prob:
            g_data = self.problem.data_gradient(x_bar)
        else:
            idx = _draw_batch(self.rng, self.problem.n_samples, self.batch_size)
            fresh_a, fresh_v, fresh_w = self.problem.batch_table(x_bar, idx)
            old_a, old_v, old_w = self.problem.batch_table(self._prev_point, idx)
            b = self.batch_size
            gu = self._prev_est.u + (fresh_a @ fresh_v.T - old_a @ old_v.T) / b
            gv = self._prev_est.v.copy()
            gv[:, idx] += (fresh_w - old_w) / b
            g_data = FactorPair(gu, gv)
        self._prev_est = g_data
        self._prev_point = x_bar.copy()
        return self._with_graph(g_data, x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        """For this estimator the tracker is the realized squared error of
        the recursive estimate itself; it is exactly zero after a restart."""
        if self._prev_est is None:
            return VarianceAudit(0.0, 0.0, self._realized(x_bar, estimate))
        diff = self._prev_est - self.problem.data_gradient(x_bar)
        gamma = diff.norm_sq()
        return VarianceAudit(
            gamma, math.sqrt(gamma), self._realized(x_bar, estimate)
        )


def effective_batch_size(batch_size: int | None, n: int) -> int:
    """Minibatch size over ``n`` columns: ``batch_size`` clamped to n, or
    for None or 0 the default of 5% of the columns (at least 1)."""
    if batch_size:
        return min(batch_size, n)
    return max(1, round(0.05 * n))


def effective_restart_prob(
    restart_prob: float | None, n: int, batch_size: int
) -> float:
    """SARAH restart probability: ``restart_prob``, or for None one expected
    restart per epoch of ceil(n / batch_size) steps."""
    if restart_prob is not None:
        return restart_prob
    return 1.0 / math.ceil(n / batch_size)


def make_estimator(
    name: str,
    problem: Problem,
    batch_size: int | None = None,
    restart_prob: float | None = None,
    rng: np.random.Generator | None = None,
) -> GradientEstimator:
    """Build an estimator by name: full | sgd | saga | sarah.

    ``batch_size`` and ``restart_prob`` are resolved by
    ``effective_batch_size`` and ``effective_restart_prob``.
    """
    n = problem.n_samples
    batch_size = effective_batch_size(batch_size, n)
    if name == "full":
        return FullGradient(problem)
    if rng is None:
        raise ValueError(f"estimator {name!r} requires an rng")
    if name == "sgd":
        return MinibatchSGD(problem, batch_size, rng)
    if name == "saga":
        return SAGA(problem, batch_size, rng)
    if name == "sarah":
        restart_prob = effective_restart_prob(restart_prob, n, batch_size)
        return SARAH(problem, batch_size, restart_prob, rng)
    raise ValueError(f"unknown estimator {name!r}")


@dataclass(frozen=True)
class DecayReport:
    """Monte-Carlo verdict on the geometric-decay inequality of the tracker."""

    violation_fraction: float
    checked: int
    threshold: float
    tau: float
    v_gamma: float

    @property
    def passed(self) -> bool:
        return self.violation_fraction <= self.threshold


def check_geometric_decay(
    records,
    tau: float,
    v_gamma: float,
    se_factor: float = 2.0,
    threshold: float = 0.05,
) -> DecayReport:
    """Test E[Gamma_{k+1}] <= (1 - tau) Gamma_k + V (d_k^2 + d_{k-1}^2).

    ``records`` is a list over seeds of (gamma, step_sq) array pairs where
    gamma[j] is the tracker produced at iteration j and step_sq[j] the
    squared step length of that iteration.  For each iteration index the
    across-seed mean of lhs - rhs is compared to ``se_factor`` standard
    errors; an iteration violates when the mean is significantly positive.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if v_gamma < 0.0:
        raise ValueError(f"v_gamma must be >= 0, got {v_gamma}")
    if not records:
        raise ValueError("no records supplied")
    length = min(len(g) for g, _ in records)
    if length < 3:
        raise ValueError("need at least 3 recorded iterations")

    violations = 0
    checked = 0
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
        if mean > se_factor * se:
            violations += 1
        checked += 1
    return DecayReport(violations / checked, checked, threshold, tau, v_gamma)


def estimate_sample_lipschitz(problem: Problem, points) -> float:
    """Empirical Lipschitz bound of the per-sample data gradients.

    Scans consecutive pairs of ``points`` and returns the largest observed
    ratio max_i |grad_i(x) - grad_i(y)| / |x - y|.  This is the constant the
    decay inequality's variance terms are built from; an empirical estimate
    over the visited region is the honest desk-scale substitute for an a
    priori bound.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least two points")
    best = 0.0
    prev = points[0]
    prev_tab = problem.gradient_table(prev)
    for cur in points[1:]:
        dist = (cur - prev).norm()
        cur_tab = problem.gradient_table(cur)
        if dist > 1e-14:
            sq = factored_sq_diffs(cur_tab, prev_tab)
            best = max(best, math.sqrt(float(sq.max())) / dist)
        prev, prev_tab = cur, cur_tab
    return best
