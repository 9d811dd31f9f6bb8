"""Stochastic gradient estimators over the column-sampled objective.

All estimators target the full gradient of f at the query point.  The graph
term of the graph-regularized kind is identical in every per-column summand,
so it is deterministic: estimators subsample only the data-fitting part and
add the graph gradient exactly.  Consequently the estimator error equals the
error on the data part alone.

``SAGA`` keeps a factored table: per sample it stores an m-vector residual
and an r-vector V-column (the per-sample U-gradient is their rank-one outer
product) plus the r-vector V-block.  That is O(n (m + r)) memory where dense
per-sample gradients would cost O(n m r).  The table is stored sample-major,
like the data: the m x n residual block is Fortran-ordered, so the minibatch
gather and the overwrite of the sampled entries move contiguous columns.
Of the table's mean it keeps the U-block as a running sum; the V-block's
is read from the table, W / n, at each estimate.

``SARAH`` keeps the previous estimate and the previous query point and
recursively corrects the estimate on a minibatch, restarting with a full
gradient with a configured probability.  The correction is the batch mean
of grad_i(x_bar) - grad_i(p) at the previous point p, in which the n M_I
parts of the two batch tables cancel exactly.  With s = n/b and the sorted
batch I it is taken in Gram form:

    U-block        s [U (V_I V_I^T) - U_p (V_pI V_pI^T) - M_I (V_I - V_pI)^T]
    V-block, I     s [(U^T U) V_I - (U_p^T U_p) V_pI - (U - U_p)^T M_I]

U^T U is carried to the next step as U_p^T U_p, with the previous point;
a restart sets it too.  That is two m x r x b GEMMs on the gathered M_I,
the only m x b array, plus O(m r^2), where the two batch tables and their
outer products took about 12 m r b flops and five m x b arrays.  It agrees
with the two-table form to within 1.5e-15 of the fresh term's norm, over
M scaled by 1e-6 to 1e6 and points 1 to 1e-8 apart, relative.  One
minibatch step, one OpenBLAS thread on a 2-vCPU x86-64 VM, the median of
7 timed loops and the peak of ``tracemalloc``, two tables -> Gram form:

    m x d, r, b            time per step         peak
    60 x 40, 5, 2          35.0 -> 34.1 us       0.011 -> 0.008 MiB
    500 x 1000, 10, 50     195 -> 109 us         0.59 -> 0.29 MiB
    2000 x 3000, 10, 150   3.1 -> 1.2 ms         6.9 -> 2.6 MiB

Audit mode computes the mean-squared-error trackers used by the convergence
analysis, for desk-scale diagnosis rather than production runs.  An audit
only reads, so an audited run takes the unaudited run's steps bit for bit.
Each estimator's audit reads M once, at x_bar: SAGA builds the table there,
and its mean, A V^T / n and W / n, is also the gradient that the realized
error is measured against; SGD and SARAH take the data gradient.  With the
one residual pass at x_{k+1} that ``run`` takes for the objective and the
witness, an audited stochastic step reads M twice beyond its estimate;
it used to read it three times (SGD, SARAH) or four (SAGA).  The share of
an audited step that is audit work, gnmf on a 5-NN graph, bpsge at the 5%
batch, one OpenBLAS thread on a 2-vCPU x86-64 VM (``tools/audit_cost.py``):
with three or four reads and with two (two interleaved runs of 5
processes each), then with two reads and the in-place step arithmetic of
the ``problems`` and ``solver`` modules, which makes the plain step
cheaper (the median of three interleaved runs of 5 processes each, on a
noisy host where single runs spread by up to 0.09):

    m x d, r         estimator    3-4 reads    2 reads      2, in place
    60 x 40, 5       sgd          0.55         0.50-0.53    0.54
                     saga         0.63         0.57         0.54
                     sarah        0.56         0.53         0.51
    500 x 1000, 10   sgd          0.86-0.88    0.86         0.87
                     saga         0.91         0.91         0.91
                     sarah        0.86         0.84         0.86

At 500 x 1000 the GEMMs bound the pass at x_{k+1}: the fused pass took
1.22 ms against 1.27 for the objective and the full gradient apart, where
at 60 x 40 it took 23.5 us against 33.0 (best of 7 ``timeit`` loops).

``estimate_sample_lipschitz`` builds the gradient tables of consecutive
iterates in chunks whose m x d residual blocks take at most 512 KiB
(``_SWEEP_CHUNK_BYTES``; one iterate per chunk when a block is larger).
Measured against the pairwise loop, median of 15 interleaved runs, one
OpenBLAS thread on an x86-64 VM with 4 MiB of L2 per core, rank 5 unless
stated:

    60 x 40, 241 iterates:       loop 15.0 ms; 256 KiB 6.0, 512 KiB 5.3,
                                 1 MiB 5.1, 2 MiB 6.0
    120 x 100, 241 iterates:     loop 21.8 ms; 256 KiB 20.4, 512 KiB 14.4,
                                 1 MiB 13.0, 2 MiB 13.5
    200 x 300, 100 iterates:     loop 20.2 ms; 512 KiB (one per chunk)
                                 19.9, 1 MiB 24.7, 2 MiB 27.1
    500 x 1000 rank 10, 24:      loop 77 ms; 512 KiB 71, 2 MiB 69

Larger chunks gain nothing at desk scale and lose from 200 x 300 up, where
a chunk of several blocks no longer stays in cache; a whole 100-iterate
trajectory at 200 x 300 in one chunk took 67 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FactorPair
from .problems import Problem, _normed_sq_diffs, _with_norms, factored_sq_diffs

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

# Largest size of the stacked m x d residual blocks that one chunk of
# ``estimate_sample_lipschitz`` builds; see the module docstring.
_SWEEP_CHUNK_BYTES = 1 << 19

# SAGA recomputes its running U-block mean from the table after this many
# minibatch estimates, so that rounding in the updates cannot accumulate.
_SAGA_RESYNC_EVERY = 100

# Standard errors over which a decay-check iteration violates (2.3% one-sided).
_DECAY_SE_FACTOR = 2.0
# Share of violating iterations the decay check passes, over those false alarms.
_DECAY_THRESHOLD = 0.05


@dataclass(frozen=True)
class VarianceAudit:
    """MSE trackers for one estimate; NaN marks a quantity not tracked.

    ``gamma`` is the squared tracker of the estimator's analysis (NaN for
    plain minibatch SGD, which tracks nothing), ``upsilon`` its first-order
    companion, ``realized_sq_error`` the actual |estimate - full gradient|^2
    (NaN when no estimate was supplied).
    """

    gamma: float
    upsilon: float
    realized_sq_error: float


class GradientEstimator:
    """Common interface: ``estimate`` at a point, ``audit`` the last one."""

    batch_size: int

    def __init__(self, problem: Problem):
        self.problem = problem

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        raise NotImplementedError

    def audit(self, x_bar: FactorPair, estimate: FactorPair | None = None) -> VarianceAudit:
        raise NotImplementedError

    def _realized(
        self,
        x_bar: FactorPair,
        estimate: FactorPair | None,
        g_data: FactorPair | None = None,
    ) -> float:
        """|estimate - full gradient at x_bar|^2, NaN without an estimate.

        ``g_data`` is the data-term gradient at x_bar when the caller has
        already taken that pass.
        """
        if estimate is None:
            return math.nan
        if g_data is None:
            g_data = self.problem.data_gradient(x_bar)
        diff = estimate - self.problem._with_graph(g_data, x_bar)
        return diff.norm_sq()


class FullGradient(GradientEstimator):
    def __init__(self, problem: Problem):
        super().__init__(problem)
        self.batch_size = problem.n_samples

    def estimate(self, x_bar: FactorPair, products=None) -> FactorPair:
        """The full gradient at x_bar; ``products`` as for
        ``Problem.data_gradient``."""
        return self.problem.full_gradient(x_bar, products)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        # The estimate is the full gradient itself: no error, no data pass.
        return VarianceAudit(0.0, 0.0, 0.0)


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

    def __init__(self, problem: Problem, batch_size: int, rng: np.random.Generator):
        super().__init__(problem)
        self.batch_size = _check_batch_size(batch_size, problem.n_samples)
        self.rng = rng

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        idx = _draw_batch(self.rng, self.problem.n_samples, self.batch_size)
        g_data = self.problem._minibatch_gradient(x_bar, idx)
        return self.problem._with_graph(g_data, x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        return VarianceAudit(math.nan, math.nan, self._realized(x_bar, estimate))


class SAGA(GradientEstimator):
    """Variance reduction with a per-sample memory of factored gradients.

    The first estimate, or ``initialize``, builds the table by a full pass;
    each estimate corrects a minibatch against its stored entries plus the
    table mean: a running sum for the U-block, W / n read from the table
    for the V-block.  Only ``estimate`` and ``initialize`` write this state;
    an audit only reads, so an audited run takes the unaudited run's steps
    bit for bit.  With batch_size == n every entry refreshes each step and
    the estimate reduces exactly to the full gradient, bit for bit (through
    the same code path).
    """

    def __init__(self, problem: Problem, batch_size: int, rng: np.random.Generator):
        super().__init__(problem)
        self.batch_size = _check_batch_size(batch_size, problem.n_samples)
        self.rng = rng
        self._initialized = False
        # (x_bar, data gradient) of the last batch_size == n estimate
        self._exact = (None, None)

    def initialize(self, x0: FactorPair):
        """Full table pass at x0; the running U-block mean starts exact."""
        self._a, self._v, self._w = self.problem.gradient_table(x0)
        self._resync()
        self._initialized = True

    def _resync(self):
        # A V^T / n as (V A^T)^T / n, the fast form for the Fortran-ordered A
        self._avg_u = (self._v @ self._a.T).T / self.problem.n_samples
        self._estimates_since_resync = 0

    def average_drift(self) -> float:
        """Max deviation of the running U-block mean from the table's."""
        exact = (self._v @ self._a.T).T / self.problem.n_samples
        return float(np.abs(self._avg_u - exact).max())

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        n = self.problem.n_samples
        b = self.batch_size

        if b == n:
            # Every entry refreshes: correction - stored mean + average is
            # exactly zero, so take the full-gradient path and rebuild.
            g_data = self.problem.data_gradient(x_bar)
            self.initialize(x_bar)
            self._exact = (x_bar, g_data)
            return self.problem._with_graph(g_data, x_bar)

        if not self._initialized:
            self.initialize(x_bar)
        idx = _draw_batch(self.rng, n, b)
        fresh_a, fresh_v, fresh_w = self.problem.batch_table(x_bar, idx)
        stored_a = self._a[:, idx]
        stored_v = self._v[:, idx]
        stored_w = self._w[:, idx]

        d_outer = fresh_a @ fresh_v.T
        d_outer -= stored_a @ stored_v.T
        d_w = fresh_w - stored_w
        gu = d_outer / b
        gu += self._avg_u
        gv = self._w / n
        gv[:, idx] += d_w / b

        d_outer /= n
        self._avg_u += d_outer
        self._a[:, idx] = fresh_a
        self._v[:, idx] = fresh_v
        self._w[:, idx] = fresh_w

        self._estimates_since_resync += 1
        if self._estimates_since_resync >= _SAGA_RESYNC_EVERY:
            self._resync()
        return self.problem._with_graph(FactorPair._unchecked(gu, gv), x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        """Trackers against the current table (post-update at this step).

        gamma = (1/(b n)) sum_i |grad_i(x_bar) - stored_i|^2 and upsilon its
        root-sum analogue; freshly refreshed entries contribute zero.  An audit
        only reads: an audited run takes the unaudited run's steps bit for bit.

        The table at x_bar is the audit's one read of M.  Its mean, A V^T / n
        and W / n, is the data gradient that ``realized_sq_error`` measures
        against, except after a batch_size == n estimate at this x_bar,
        whose exact gradient the estimate is: that one is reused, so the
        error is exactly 0 there.
        """
        if not self._initialized:
            raise RuntimeError("SAGA table not initialized")
        n = self.problem.n_samples
        b = self.batch_size
        table = self.problem._table(x_bar.u, x_bar.v, self.problem.m_data)
        sq = factored_sq_diffs(table, (self._a, self._v, self._w))
        gamma = float(sq.sum()) / (b * n)
        upsilon = float(np.sqrt(sq).sum()) / math.sqrt(b * n)
        realized = math.nan
        if estimate is not None:
            at, g_data = self._exact
            if x_bar is not at:
                a, vt, w = table
                # A V^T as (V A^T)^T, the fast form for the Fortran-ordered A
                g_data = FactorPair._unchecked((vt @ a.T).T / n, w / n)
            realized = self._realized(x_bar, estimate, g_data)
        return VarianceAudit(gamma, upsilon, realized)


class SARAH(GradientEstimator):
    """Recursive estimator with probabilistic full-gradient restarts.

    A step that does not restart adds the batch mean of
    grad_i(x_bar) - grad_i(p) to the previous estimate, p the previous
    point, through ``Problem._batch_difference``: in Gram form, from the
    gathered columns M_I and the Grams U^T U at both points, with no
    per-sample table (see the module docstring for the identity and its
    cost).  Each call carries its U^T U to the next, restart or not.
    """

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
        self._prev_gram: np.ndarray | None = None

    def estimate(self, x_bar: FactorPair) -> FactorPair:
        # The coin is tossed every call (even when restart_prob == 1) so the
        # consumed stream does not depend on the branch taken.
        coin = self.rng.random()
        gram = x_bar.u.T @ x_bar.u
        if self._prev_est is None or coin < self.restart_prob:
            g_data = self.problem.data_gradient(x_bar)
        else:
            idx = _draw_batch(self.rng, self.problem.n_samples, self.batch_size)
            gu, dv = self.problem._batch_difference(
                x_bar, gram, self._prev_point, self._prev_gram, idx
            )
            gu += self._prev_est.u
            gv = self._prev_est.v.copy()
            gv[:, idx] += dv
            g_data = FactorPair._unchecked(gu, gv)
        self._prev_est = g_data
        self._prev_point = x_bar
        self._prev_gram = gram
        return self.problem._with_graph(g_data, x_bar)

    def audit(self, x_bar, estimate=None) -> VarianceAudit:
        """For this estimator the tracker is the realized squared error of
        the recursive estimate itself; it is exactly zero after a restart."""
        if self._prev_est is None:
            return VarianceAudit(0.0, 0.0, self._realized(x_bar, estimate))
        g_data = self.problem.data_gradient(x_bar)
        gamma = (self._prev_est - g_data).norm_sq()
        if estimate is self._prev_est:
            # No graph term: the estimate is the recursive one, whose error
            # gamma already is.
            realized = gamma
        else:
            realized = self._realized(x_bar, estimate, g_data)
        return VarianceAudit(gamma, math.sqrt(gamma), realized)


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
) -> DecayReport:
    """Test E[Gamma_{k+1}] <= (1 - tau) Gamma_k + V (d_k^2 + d_{k-1}^2).

    ``records`` is a list over seeds of equal-length (gamma, step_sq) array
    pairs: gamma[j] is the tracker produced at iteration j and step_sq[j] the
    squared step length of that iteration.  For each iteration index the
    across-seed mean of lhs - rhs is compared to 2 standard errors; an
    iteration violates when the mean is significantly positive, and the check
    passes when at most 5% of the iterations violate.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if v_gamma < 0.0:
        raise ValueError(f"v_gamma must be >= 0, got {v_gamma}")
    if not records:
        raise ValueError("no records supplied")
    for i, (g, q) in enumerate(records):
        if len(g) != len(q):
            raise ValueError(f"record {i}: {len(g)} gamma values, {len(q)} step_sq")
    length = min(len(g) for g, _ in records)
    if length < 3:
        raise ValueError("need at least 3 recorded iterations")

    # one row per iteration, its seeds contiguous, so a row sums as 1-D would
    gamma = np.stack([g[:length] for g, _ in records], axis=-1)
    step_sq = np.stack([q[:length] for _, q in records], axis=-1)
    rhs = (1.0 - tau) * gamma[1:-1] + v_gamma * (step_sq[1:-1] + step_sq[:-2])
    diffs = gamma[2:] - rhs
    n_seeds = len(records)
    se = diffs.std(axis=-1, ddof=1) / math.sqrt(n_seeds) if n_seeds > 1 else 0.0
    violations = int(np.count_nonzero(diffs.mean(axis=-1) > _DECAY_SE_FACTOR * se))
    checked = length - 2
    return DecayReport(violations / checked, checked, _DECAY_THRESHOLD, tau, v_gamma)


def estimate_sample_lipschitz(problem: Problem, points) -> float:
    """Empirical Lipschitz bound of the per-sample data gradients.

    Scans consecutive pairs of ``points`` and returns the largest observed
    ratio max_i |grad_i(x) - grad_i(y)| / |x - y|, skipping pairs at most
    1e-14 apart.  This is the constant the decay inequality's variance terms
    are built from; an empirical estimate over the visited region is the
    honest desk-scale substitute for an a priori bound.

    The gradient tables of consecutive points are built in chunks, each a
    few stacked GEMMs, with each table's column norms taken once.  A chunk
    holds as many points as fit their m x d residual blocks into
    ``_SWEEP_CHUNK_BYTES``, 512 KiB (at least one point), and at most two
    chunks are held at once.  The result is bit for bit that of a pairwise
    loop over ``gradient_table`` and ``factored_sq_diffs``: each slice of a
    stack takes the same GEMM, in the same layout, and each column sum runs
    in the same order, as one table does.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least two points")
    for x in points:
        problem._check_point(x)
    m, _, d = problem.shape
    per_chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * m * d))
    sq_max: list[float] = []
    last = None
    for start in range(0, len(points), per_chunk):
        maxes, last = _sweep_chunk(problem, points[start : start + per_chunk], last)
        sq_max.extend(maxes)
    best = 0.0
    for sq, prev, cur in zip(sq_max, points, points[1:]):
        dist = (cur - prev).norm()
        if dist > 1e-14:
            best = max(best, math.sqrt(float(sq)) / dist)
    return best


def _sweep_chunk(problem: Problem, chunk: list, last):
    """Largest per-sample squared gradient difference of each consecutive
    pair that ends in ``chunk``, and the chunk's last table.

    A table here is (A, Vt, W, |A_i|^2, |Vt_i|^2) with a leading axis over
    points; ``last`` is the previous chunk's last table, or None.
    """
    u, vt = np.stack([x.u for x in chunk]), np.stack([x.v for x in chunk])
    tab = _with_norms(problem._table(u, vt, problem.m_data))
    maxes = []
    if last is not None:
        maxes.extend(_normed_sq_diffs([t[:1] for t in tab], last).max(axis=-1))
    # A block over the bound gives one-point chunks with no inner pair;
    # skipping the empty-stack calls keeps them as fast as the pairwise loop.
    if len(chunk) > 1:
        cur = [t[1:] for t in tab]
        prev = [t[:-1] for t in tab]
        maxes.extend(_normed_sq_diffs(cur, prev).max(axis=-1))
    return maxes, [t[-1:] for t in tab]
