"""The three matrix-factorization problems and their proximal machinery.

Each problem minimizes Phi(U, V) = f(U, V) + h(U, V) over a factor pair,
where f is a smooth data-fitting term (plus, for the graph-regularized kind,
a Laplacian trace penalty) and h is a possibly nonsmooth regularizer or
constraint indicator:

* ``GraphRegularizedNMF``: f = |M - UV|_F^2 / 2 + (mu0/2) tr(U^T L U),
  h = indicator of U >= 0, V >= 0.
* ``WeaklyConvexMF``: f = |M - UV|_F^2 / 2,
  h = lambda1 |U|_1 - (lambda2/2) |U|_F^2 (weakly convex, no constraints).
* ``SparseNMF``: f = |M - UV|_F^2 / 2, h = indicator of nonnegativity plus
  hard sparsity budgets: at most s1 nonzeros per column of U and s2 per row
  of V.

For stochastic gradients the objective is treated as a uniform average over
the columns of M: with n = number of columns,

    f_i(U, V) = (n/2) |M[:, i] - U V[:, i]|^2  (+ the full graph term).

The graph term does not depend on the sampled column, so it enters every f_i
at full weight and every estimator reproduces it exactly; only the data part
is ever subsampled.

Every problem prescribes a kernel from the quartic+quadratic family against
which f is (1, 1)-smooth adaptable, and exposes a closed-form Bregman
proximal step: the minimizer of

    h(x) + <g, x - x_bar> + D_psi(x, x_bar) / eta

is a scalar multiple t * (A, B) of explicitly computable shapes, with t the
nonnegative root of a scalar cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FactorPair, KernelSpec, kernel_gradient, kernel_value
from .numeric import (
    as_dense,
    cubic_root,
    project_nonneg,
    soft_threshold,
    spectral_norm,
)

__all__ = [
    "Problem",
    "GraphRegularizedNMF",
    "WeaklyConvexMF",
    "SparseNMF",
    "build_problem",
    "build_knn_laplacian",
    "validate_indices",
    "hard_threshold_axis",
    "factored_sq_diffs",
]


def validate_indices(indices, n: int) -> np.ndarray:
    """Return ``indices`` as a sorted int64 array of distinct values in [0, n)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise ValueError("index set must be nonempty")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices out of range [0, {n})")
    idx = np.sort(idx)
    if np.any(np.diff(idx) == 0):
        raise ValueError("indices must be distinct")
    return idx


def hard_threshold_axis(a: np.ndarray, s: int, axis: int) -> np.ndarray:
    """Keep the s largest-magnitude entries along ``axis``, zero the rest.

    Matches the 1-D rule slice by slice: ties keep the lowest index.
    """
    a = np.asarray(a, dtype=np.float64)
    if not 0 <= s <= a.shape[axis]:
        raise ValueError(f"s must be in [0, {a.shape[axis]}], got {s}")
    if s == a.shape[axis]:
        return a.copy()
    order = np.argsort(-np.abs(a), axis=axis, kind="stable")
    rank = np.empty_like(order)
    shape = [1, 1]
    shape[axis] = a.shape[axis]
    np.put_along_axis(rank, order, np.arange(a.shape[axis]).reshape(shape), axis)
    return np.where(rank < s, a, 0.0)


def factored_sq_diffs(t1, t2) -> np.ndarray:
    """Per-sample squared gradient differences between two factored tables.

    A table (A, Vt, W) encodes per-sample gradients: sample i has U-block
    A[:, i] Vt[:, i]^T and V-block W[:, i] (living in column i).  Returns the
    vector of |grad_i(t1) - grad_i(t2)|^2 using the rank-one identity
    |a b^T - c d^T|_F^2 = |a|^2 |b|^2 - 2 <a, c> <b, d> + |c|^2 |d|^2,
    clamped at zero against roundoff.
    """
    a1, v1, w1 = t1
    a2, v2, w2 = t2
    outer = (
        np.einsum("ij,ij->j", a1, a1) * np.einsum("ij,ij->j", v1, v1)
        - 2.0 * np.einsum("ij,ij->j", a1, a2) * np.einsum("ij,ij->j", v1, v2)
        + np.einsum("ij,ij->j", a2, a2) * np.einsum("ij,ij->j", v2, v2)
    )
    wd = w1 - w2
    return np.maximum(outer, 0.0) + np.einsum("ij,ij->j", wd, wd)


class Problem:
    """Shared behaviour for the three factorization problems.

    Subclasses set ``kind`` and implement the regularizer-specific pieces:
    feasibility, the nonsmooth value, and the proximal shape operator.
    """

    kind = "abstract"

    def __init__(self, m_data, rank: int):
        self.m_data = as_dense(m_data, "m_data")
        m, d = self.m_data.shape
        if not 1 <= rank <= min(m, d):
            raise ValueError(f"rank must be in [1, {min(m, d)}], got {rank}")
        self.rank = int(rank)
        self.norm_m = float(np.linalg.norm(self.m_data))
        if self.norm_m == 0.0:
            raise ValueError("data matrix must be nonzero")

    # -- dimensions ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.m_data.shape[0], self.rank, self.m_data.shape[1])

    @property
    def n_samples(self) -> int:
        """Number of columns of M, the unit of stochastic sampling."""
        return self.m_data.shape[1]

    def _check_point(self, x: FactorPair):
        if x.shape != self.shape:
            raise ValueError(f"point shape {x.shape} != problem shape {self.shape}")

    # -- objective -------------------------------------------------------

    def smooth_value(self, x: FactorPair) -> float:
        self._check_point(x)
        r = x.u @ x.v - self.m_data
        return 0.5 * float(np.sum(r * r)) + self._graph_value(x.u)

    def nonsmooth_value(self, x: FactorPair) -> float:
        """Finite part of h; indicator kinds return 0 on the feasible set."""
        return 0.0

    def objective(self, x: FactorPair) -> float:
        """f(x) + h(x); ``math.inf`` when x violates a constraint.

        Infinity only ever arises for the constrained kinds, and only for
        points outside the feasible set; trace writers must consult
        ``is_feasible`` rather than serializing the infinity.
        """
        if not self.is_feasible(x):
            return math.inf
        return self.smooth_value(x) + self.nonsmooth_value(x)

    def is_feasible(self, x: FactorPair, tol: float = 1e-12) -> bool:
        self._check_point(x)
        return True

    # -- gradients -------------------------------------------------------

    def data_gradient(self, x: FactorPair) -> FactorPair:
        """Gradient of the data-fitting term |M - UV|^2 / 2 alone."""
        self._check_point(x)
        r = x.u @ x.v - self.m_data
        return FactorPair(r @ x.v.T, x.u.T @ r)

    def full_gradient(self, x: FactorPair) -> FactorPair:
        g = self.data_gradient(x)
        gg = self._graph_gradient(x.u)
        if gg is None:
            return g
        return FactorPair(g.u + gg, g.v)

    def sample_gradient(self, x: FactorPair, indices) -> FactorPair:
        """Minibatch gradient (1/|B|) sum_{i in B} grad f_i at x.

        The graph term is identical in every f_i, so it appears here at full
        weight regardless of the batch: the stochastic part is the data term
        only.
        """
        g = self.minibatch_data_gradient(x, indices)
        gg = self._graph_gradient(x.u)
        if gg is None:
            return g
        return FactorPair(g.u + gg, g.v)

    def minibatch_data_gradient(self, x: FactorPair, indices) -> FactorPair:
        self._check_point(x)
        n = self.n_samples
        idx = validate_indices(indices, n)
        b = idx.size
        vb = x.v[:, idx]
        rb = x.u @ vb - self.m_data[:, idx]
        scale = n / b
        gu = scale * (rb @ vb.T)
        gv = np.zeros_like(x.v)
        gv[:, idx] = scale * (x.u.T @ rb)
        return FactorPair(gu, gv)

    # -- factored per-sample gradients (estimator support) --------------

    def gradient_table(self, x: FactorPair):
        """Factored per-sample gradients at x for all n columns.

        Returns (A, Vt, W): sample i has U-block A[:, i] Vt[:, i]^T with
        A = n * (UV - M), and V-block W[:, i] = n * U^T (UV - M)[:, i].
        Memory is O(n (m + r)) instead of materializing n dense gradients.
        """
        self._check_point(x)
        a = float(self.n_samples) * (x.u @ x.v - self.m_data)
        return a, x.v.copy(), x.u.T @ a

    def batch_table(self, x: FactorPair, idx: np.ndarray):
        """Factored per-sample gradients at x for the given sorted batch."""
        vb = x.v[:, idx].copy()
        a = float(self.n_samples) * (x.u @ vb - self.m_data[:, idx])
        return a, vb, x.u.T @ a

    # -- graph hooks (only the graph-regularized kind overrides) ---------

    def _graph_value(self, u: np.ndarray) -> float:
        return 0.0

    def _graph_gradient(self, u: np.ndarray):
        return None

    # -- kernel and curvature --------------------------------------------

    def kernel(self, eta: float = 0.0) -> KernelSpec:
        raise NotImplementedError

    @property
    def weak_convexity(self) -> float:
        """Weak-convexity modulus alpha of h (0 for the indicator kinds)."""
        return 0.0

    @property
    def lemma_audits_exact(self) -> bool:
        """Whether the descent-lemma hypotheses hold verbatim for this h."""
        return True

    def local_lipschitz(self, x_bar: FactorPair) -> float:
        """Blockwise curvature bound at x_bar used for the adaptive step.

        max of |V V^T|_2 (+ mu0 |L|_2 for the graph kind) over the U block
        and |U^T U|_2 over the V block.  Both Gram matrices are r x r and
        symmetric positive semidefinite, so each norm is the exact largest
        eigenvalue, from ``spectral_norm``.  |L|_2 is computed the same way
        once per problem, an O(m^3) eigensolve at construction.  A Gram
        matrix that overflows raises ValueError.
        """
        self._check_point(x_bar)
        lu = spectral_norm(x_bar.v @ x_bar.v.T) + self._graph_operator_norm()
        lv = spectral_norm(x_bar.u.T @ x_bar.u)
        return max(lu, lv)

    def _graph_operator_norm(self) -> float:
        return 0.0

    # -- proximal step ---------------------------------------------------

    def _prox_shapes(self, neg_p: np.ndarray, neg_q: np.ndarray, eta: float):
        raise NotImplementedError

    def _check_kernel(self, kernel: KernelSpec, eta: float):
        if kernel.u_quadratic != 0.0:
            raise ValueError(
                f"{self.kind} proximal step requires a kernel without a "
                "U-only quadratic term"
            )

    def prox_step(
        self, kernel: KernelSpec, grad: FactorPair, x_bar: FactorPair, eta: float
    ) -> FactorPair:
        """Closed-form minimizer of h(x) + <grad, x - x_bar> + D_psi(x, x_bar)/eta.

        The minimizer lies on the ray through shapes (A, B) obtained by the
        kind-specific operator applied to -P = grad psi(x_bar) - eta * grad;
        the radius solves a (|A|^2 + |B|^2) t^3 + b t = 1 with (a, b) the
        kernel's quartic and quadratic coefficients.  Output is exactly
        feasible for the constrained kinds.
        """
        self._check_point(x_bar)
        if not (np.isfinite(eta) and eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {eta}")
        if grad.shape != self.shape:
            raise ValueError("gradient shape mismatch")
        self._check_kernel(kernel, eta)
        gpsi = kernel_gradient(kernel, x_bar)
        neg_p = gpsi.u - eta * grad.u
        neg_q = gpsi.v - eta * grad.v
        a_shape, b_shape = self._prox_shapes(neg_p, neg_q, eta)
        ssum = float(np.sum(a_shape * a_shape) + np.sum(b_shape * b_shape))
        t = cubic_root(kernel.quartic * ssum, kernel.quadratic)
        return FactorPair(t * a_shape, t * b_shape)

    def prox_model_value(
        self,
        kernel: KernelSpec,
        grad: FactorPair,
        x_bar: FactorPair,
        eta: float,
        cand: FactorPair,
    ) -> float:
        """Objective of the proximal subproblem at a candidate point.

        eta * (h(cand) + <grad, cand - x_bar>) + D_psi(cand, x_bar); infinite
        for infeasible candidates of the constrained kinds.  Used by
        self-checks that compare the closed form against explicit search.
        """
        if not self.is_feasible(cand):
            return math.inf
        diff = cand - x_bar
        gy = kernel_gradient(kernel, x_bar)
        d = kernel_value(kernel, cand) - kernel_value(kernel, x_bar) - gy.dot(diff)
        return eta * (self.nonsmooth_value(cand) + grad.dot(diff)) + d


class GraphRegularizedNMF(Problem):
    """Nonnegative factorization with a graph-Laplacian smoothness penalty."""

    kind = "gnmf"

    def __init__(self, m_data, rank: int, mu0: float = 0.0, laplacian=None):
        super().__init__(m_data, rank)
        mu0 = float(mu0)
        if mu0 < 0.0:
            raise ValueError(f"mu0 must be >= 0, got {mu0}")
        self.mu0 = mu0
        if mu0 > 0.0:
            if laplacian is None:
                raise ValueError("mu0 > 0 requires a laplacian")
            lap = as_dense(laplacian, "laplacian")
            m = self.m_data.shape[0]
            if lap.shape != (m, m):
                raise ValueError(f"laplacian must be {m}x{m}, got {lap.shape}")
            scale = max(1.0, float(np.abs(lap).max()))
            if np.abs(lap - lap.T).max() > 1e-8 * scale:
                raise ValueError("laplacian must be symmetric")
            if np.abs(lap.sum(axis=1)).max() > 1e-8 * scale:
                raise ValueError("laplacian rows must sum to zero")
            off = lap - np.diag(np.diag(lap))
            if off.max() > 1e-8 * scale:
                raise ValueError("laplacian off-diagonal entries must be <= 0")
            self.laplacian = lap
            self.norm_l_fro = float(np.linalg.norm(lap))
            self._norm_l_2 = spectral_norm(lap)
        else:
            self.laplacian = None
            self.norm_l_fro = 0.0
            self._norm_l_2 = 0.0

    def is_feasible(self, x: FactorPair, tol: float = 1e-12) -> bool:
        self._check_point(x)
        return bool(x.u.min() >= -tol and x.v.min() >= -tol)

    def _graph_value(self, u: np.ndarray) -> float:
        if self.mu0 == 0.0:
            return 0.0
        return 0.5 * self.mu0 * float(np.sum(u * (self.laplacian @ u)))

    def _graph_gradient(self, u: np.ndarray):
        if self.mu0 == 0.0:
            return None
        return self.mu0 * (self.laplacian @ u)

    def _graph_operator_norm(self) -> float:
        return self.mu0 * self._norm_l_2

    def kernel(self, eta: float = 0.0) -> KernelSpec:
        return KernelSpec(3.0, self.norm_m + self.mu0 * self.norm_l_fro, 0.0)

    def _prox_shapes(self, neg_p, neg_q, eta):
        return project_nonneg(neg_p), project_nonneg(neg_q)


class WeaklyConvexMF(Problem):
    """Factorization with an l1 penalty made weakly convex by a concave
    quadratic: h(U) = lambda1 |U|_1 - (lambda2/2) |U|_F^2, no constraints."""

    kind = "wcmf"

    def __init__(self, m_data, rank: int, lambda1: float, lambda2: float):
        super().__init__(m_data, rank)
        lambda1 = float(lambda1)
        lambda2 = float(lambda2)
        if lambda1 < 0.0 or lambda2 < 0.0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if lambda2 >= lambda1 and lambda2 > 0.0:
            raise ValueError(
                "need lambda1 > lambda2 so the shrinkage dominates the "
                f"concave part, got lambda1={lambda1}, lambda2={lambda2}"
            )
        self.lambda1 = lambda1
        self.lambda2 = lambda2

    def nonsmooth_value(self, x: FactorPair) -> float:
        return float(
            self.lambda1 * np.abs(x.u).sum() - 0.5 * self.lambda2 * np.sum(x.u * x.u)
        )

    @property
    def weak_convexity(self) -> float:
        return self.lambda2

    def kernel(self, eta: float = 0.0) -> KernelSpec:
        """The U-only quadratic eta*lambda2 cancels the concave part of h in
        the proximal subproblem, keeping it convex along the U block."""
        return KernelSpec(3.0, self.norm_m, float(eta) * self.lambda2)

    def _check_kernel(self, kernel: KernelSpec, eta: float):
        want = float(eta) * self.lambda2
        if abs(kernel.u_quadratic - want) > 1e-9 * max(1.0, want):
            raise ValueError(
                "wcmf proximal step needs the kernel's U-quadratic to equal "
                f"eta*lambda2 = {want}, got {kernel.u_quadratic}"
            )

    def _prox_shapes(self, neg_p, neg_q, eta):
        return soft_threshold(neg_p, eta * self.lambda1), neg_q.copy()


class SparseNMF(Problem):
    """Nonnegative factorization with hard sparsity budgets: at most s1
    nonzeros per column of U and s2 per row of V."""

    kind = "ssnmf"

    def __init__(self, m_data, rank: int, s1: int, s2: int):
        super().__init__(m_data, rank)
        m, d = self.m_data.shape
        if not 1 <= s1 <= m:
            raise ValueError(f"s1 must be in [1, {m}], got {s1}")
        if not 1 <= s2 <= d:
            raise ValueError(f"s2 must be in [1, {d}], got {s2}")
        self.s1 = int(s1)
        self.s2 = int(s2)

    def is_feasible(self, x: FactorPair, tol: float = 1e-12) -> bool:
        self._check_point(x)
        if x.u.min() < -tol or x.v.min() < -tol:
            return False
        if (np.abs(x.u) > tol).sum(axis=0).max() > self.s1:
            return False
        if (np.abs(x.v) > tol).sum(axis=1).max() > self.s2:
            return False
        return True

    @property
    def lemma_audits_exact(self) -> bool:
        # The sparsity indicator is not weakly convex, so descent-lemma
        # audits are heuristic for this kind.
        return False

    def kernel(self, eta: float = 0.0) -> KernelSpec:
        return KernelSpec(3.0, self.norm_m, 0.0)

    def _prox_shapes(self, neg_p, neg_q, eta):
        # Projection first, then selection: clip negatives, then keep the
        # s largest survivors per column of U / row of V.
        a = hard_threshold_axis(project_nonneg(neg_p), self.s1, axis=0)
        b = hard_threshold_axis(project_nonneg(neg_q), self.s2, axis=1)
        return a, b


_KINDS = {
    "gnmf": GraphRegularizedNMF,
    "wcmf": WeaklyConvexMF,
    "ssnmf": SparseNMF,
}


def build_problem(kind: str, m_data, rank: int, **params) -> Problem:
    """Construct a problem by kind name; unknown kinds raise ValueError."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown problem kind {kind!r}; expected one of {sorted(_KINDS)}"
        ) from None
    return cls(m_data, rank, **params)


def build_knn_laplacian(
    m_data,
    p_neighbors: int = 5,
    weighting: str = "binary",
    sigma: float | None = None,
) -> np.ndarray:
    """Symmetric kNN graph Laplacian over the rows of ``m_data``.

    Each row is connected to its ``p_neighbors`` nearest rows by Euclidean
    distance (self excluded, distance ties broken toward the lower index).
    Edge weights are 1 for ``binary`` or exp(-d^2 / sigma) for ``heat``; the
    adjacency is symmetrized by elementwise max and L = diag(row sums) - W.
    For ``heat`` with sigma None, sigma defaults to the mean squared
    neighbor distance.
    """
    x = as_dense(m_data, "m_data")
    n = x.shape[0]
    if not 1 <= p_neighbors < n:
        raise ValueError(f"p_neighbors must be in [1, {n - 1}], got {p_neighbors}")
    if weighting not in ("binary", "heat"):
        raise ValueError(f"weighting must be 'binary' or 'heat', got {weighting!r}")

    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :p_neighbors]

    w = np.zeros((n, n))
    rows = np.repeat(np.arange(n), p_neighbors)
    cols = nearest.ravel()
    if weighting == "binary":
        w[rows, cols] = 1.0
    else:
        dsel = d2[rows, cols]
        if sigma is None:
            sigma = float(dsel.mean())
            if sigma <= 0.0:
                sigma = 1.0
        elif sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        w[rows, cols] = np.exp(-dsel / sigma)
    w = np.maximum(w, w.T)
    return np.diag(w.sum(axis=1)) - w
