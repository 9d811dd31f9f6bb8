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

Storage is sample-major.  M is held once, in Fortran order, so each column
(one sample) is contiguous and ``M.T`` is M^T in C order; the per-sample
gradient tables are Fortran-ordered too.  A minibatch step then gathers and
scatters contiguous columns: at 500 x 1000 with b = 50, ``M[:, idx]`` takes
9 us instead of 43 us in C order, and the SAGA table scatter 7 us instead of
52 us.  The full passes over M, ``data_products`` and the residual form of
``smooth_value``, walk it in blocks of whole columns of about
``_BLOCK_BYTES`` (256 KiB, 65 columns at m = 500), each a contiguous slice
that stays in a core's L2 cache while it is read.  ``data_products`` reads
each block once for both products, and takes M V^T as (V M^T)^T, the fast
form for this layout (over the whole array, 0.50 ms against 0.86 ms as
written on the Fortran array and 0.67 ms on a C-ordered M, r = 10).  The
residual form takes each block's residual transposed, in C order, because
``np.vdot`` copies a Fortran-ordered operand first, in one reused
block-sized array, so no m x d array is made.  Where one block holds M (up
to 32768 entries: every desk, audit, acceptance and digest grid shape) each
pass is the whole-matrix expression bit for bit; over several blocks its
sums are grouped by block, which moves the products and the value at
rounding level (at most 1.3e-15 normwise and 2.1e-15 relative at the shapes
below, on uniform and on signed factors).

The data term reads M in three ways: in full passes, through the products
(U^T M, M V^T) of ``data_products`` and the residual form of
``smooth_value``; and on a minibatch, through the gathered columns M_I.
``batch_table`` makes the per-sample table of the batch (plain SGD and
SAGA), and ``_batch_difference`` takes SARAH's correction between two
points in Gram form, from M_I and two skinny GEMMs, with no table.  A
caller that holds the products, as a full-gradient run does for each
iterate, passes them to ``data_gradient`` (the same bits as a call without
them) and to ``smooth_value``, which then takes the Gram form of
|UV - M|^2 when it is at least 1e-3 |M|^2 / 2 and the residual form below
that; the two agree to about 1e-15 relative on solver iterates and to
5e-12 at worst (see ``smooth_value``).  Given the products, at 500 x 1000,
r = 10, the gradient takes 0.05 ms and the Gram-form value 0.03 ms.  The
full passes, one OpenBLAS thread on a 2-vCPU x86-64 VM (2 MiB of L2 a
core), r = 10, the median of interleaved calls and the peak of
``tracemalloc``, over the whole array before and in blocks after:

    m x d          products            residual form
    500 x 1000     0.97 -> 0.80 ms     1.03 ms, 3.8 MiB -> 0.67 ms, 0.25 MiB
    1024 x 1440    2.86 -> 2.58 ms     3.37 ms, 11.3 MiB -> 2.57 ms, 0.25 MiB
    2000 x 3000    13.8 -> 13.2 ms     26.5 ms, 45.8 MiB -> 11.6 ms, 0.25 MiB

The products hold r (2m + d) floats at their peak, the sum over blocks and
one block's share: 0.19 MiB at 500 x 1000, where the whole-array products
held 0.12 MiB.  Blocks of 128 KiB, 512 KiB and 1 MiB, timed the same way,
beat 256 KiB at no shape for both passes; at 500 x 1000 they took 0.81,
0.74 and 0.92 ms for the products against 0.72 ms, and 0.71, 0.63 and 0.69
ms for the residual form against 0.63 ms.

A 5-NN graph Laplacian has about 8 nonzeros per row, so the graph product
is applied through a CSR matrix when at most 5% of the Laplacian's entries
are nonzero and through the dense array otherwise; the choice is made once,
at construction.  Measured for L @ U with a 5-NN Laplacian and r = 5, dense
against CSR, one OpenBLAS thread on an x86-64 VM: 4.1 vs 11.9 us at m = 60
(13% nonzero), 8.4 vs 11.9 us at m = 150 (5.1%), 21 vs 16 us at m = 200
(3.8%) and 270 vs 25 us at m = 500 (1.6%).  The two products differ by at
most 3e-16 relative.  The layout timings above are from the same machine.

Building a gnmf problem takes no eigensolve: |L|_2 is read only by
``local_lipschitz``, which no run calls, and is taken there.  The kNN
graph is built as CSR.  One Gram x x^T is the only m x m array; after it,
every pass works on blocks of rows of about ``_BLOCK_BYTES`` (256 KiB,
which stays in cache across the passes over a block): the squared
distances in place, a partition for each row's neighbors, and the dense
rows of W whose sums are the degrees.  The constructor checks the
Laplacian on its CSR entries, in O(nnz log nnz).  The set-up,
``build_knn_laplacian`` (5 neighbors, binary) plus ``build_problem``, on
uniform m x 1000 data, each once in a fresh process
(``tools/setup_scale.py``, median of 7 processes, largest peak RSS), one
OpenBLAS thread on a 2-vCPU x86-64 VM, with the dense graph and dense
checks before and CSR after:

    m       before              after
    500     21 ms, 95 MB        14 ms, 90 MB
    1024    87 ms, 124 MB       37 ms, 101 MB
    2048    0.43 s, 234 MB      0.14 s, 134 MB
    4096    1.92 s, 652 MB      0.53 s, 251 MB

The peak RSS includes about 80 MB of interpreter, numpy and scipy.  At
m = 4096 the Gram takes about 0.37 s and 134 MB of that.  At m = 60 the
fixed cost of a few dozen numpy calls and a CSR constructor shows
instead: 0.3 ms for a 60 x 40 set-up in a warm process, against 0.15 ms
with the dense graph.

Every problem prescribes a kernel from the quartic+quadratic family against
which f is (1, 1)-smooth adaptable, by one rule (``Problem.kernel``), and
exposes a closed-form Bregman proximal step: the minimizer of

    h(x) + <g, x - x_bar> + D_psi(x, x_bar) / eta

is a scalar multiple t * (A, B) of explicitly computable shapes, with t the
nonnegative root of a scalar cubic.

A step writes only into arrays it made, never into an input.
``prox_step`` makes the kernel gradient grad psi(x_bar) and turns it into
-P = grad psi(x_bar) - eta grad, one block at a time; the shape operators
clip (gnmf, ssnmf) or shrink (wcmf) those arrays in place, ssnmf zeroes
each entry past its budget in place, and t scales the shapes in place.
The graph term adds the data part into its own mu0 L U, and one product
L U at a point gives both the graph value and the graph gradient there.
IEEE addition and multiplication commute and no rounding step changes,
so every result keeps the bits of the out-of-place expressions.  The
public ``soft_threshold``, ``project_nonneg``, ``hard_threshold_axis``
and ``kernel_gradient`` stay non-mutating: they return new arrays, and
the step uses private in-place forms.  The ``tracemalloc``
peaks at 500 x 1000, rank 10, in factor pairs (the bytes of U and V),
with a new array for each operation before and in place after:

    prox_step, gnmf and wcmf    4.01 -> 1.67 pairs
    prox_step, ssnmf            5.11 -> 2.45 pairs (budgets selected in place)
    graph term                  0.67 -> 0.34 pairs (2 -> 1 U-blocks)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .kernels import FactorPair, KernelSpec, _kernel_gradient, bregman_distance
from .numeric import _shrink, as_dense, cubic_root, spectral_norm

__all__ = [
    "Problem",
    "GraphRegularizedNMF",
    "LaplacianError",
    "WeaklyConvexMF",
    "SparseNMF",
    "build_problem",
    "build_knn_laplacian",
    "validate_indices",
    "hard_threshold_axis",
    "factored_sq_diffs",
]

# Largest share of nonzero Laplacian entries for which the graph product
# goes through CSR; see the module docstring for the measurements.
_SPARSE_MAX_DENSITY = 0.05

# Bytes of float64 in each block of rows that ``build_knn_laplacian`` works
# on, and in each block of columns of M that the full passes over M read:
# small enough to stay in a core's L2 cache across the passes over a block,
# and to touch little fresh memory; see the module docstring.
_BLOCK_BYTES = 1 << 18

# Share of |M|^2 / 2 below which ``smooth_value`` takes the data term in the
# residual form even when given the data products; see its docstring.
_GRAM_MIN_SHARE = 1e-3


def _count(value, name: str, hi: int) -> int:
    """``value`` as an int in [1, hi]; a bool or a non-integral value is
    rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= hi:
        raise ValueError(f"{name} must be in [1, {hi}], got {value}")
    return int(value)


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

    Each slice along ``axis`` of the matrix ``a`` is thresholded on its
    own; among equal magnitudes the lowest index is kept first.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"a must be 2-D, got ndim={a.ndim}")
    if not 0 <= s <= a.shape[axis]:
        raise ValueError(f"s must be in [0, {a.shape[axis]}], got {s}")
    return _select_in_place(a, s, axis % 2)


def _select_in_place(a: np.ndarray, s: int, axis: int) -> np.ndarray:
    """``hard_threshold_axis(a, s, axis)`` written into the float64 matrix
    ``a``, axis 0 or 1: one stable argsort of -|a| ranks each slice from 0,
    and the entries of rank s and beyond are set to zero."""
    cols = a if axis == 0 else a.T  # a view whose columns are the slices
    if s < cols.shape[0]:
        order = np.argsort(-np.abs(cols), axis=0, kind="stable")
        cols[order[s:], np.arange(cols.shape[1])] = 0.0
    return a


def factored_sq_diffs(t1, t2) -> np.ndarray:
    """Per-sample squared gradient differences between two factored tables.

    A table (A, Vt, W) encodes per-sample gradients: sample i has U-block
    A[:, i] Vt[:, i]^T and V-block W[:, i] (living in column i).  Returns the
    vector of |grad_i(t1) - grad_i(t2)|^2; see ``_normed_sq_diffs``.
    """
    return _normed_sq_diffs(_with_norms(t1), _with_norms(t2))


def _col_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two matrices, or of two stacks of
    matrices slice by slice; a slice sums in the same order as a matrix."""
    return np.einsum("...ij,...ij->...j", x, y)


def _with_norms(table):
    """A table (A, Vt, W), or a stack of them, with its column norms
    |A_i|^2 and |Vt_i|^2 appended."""
    a, vt, w = table
    return a, vt, w, _col_dots(a, a), _col_dots(vt, vt)


def _normed_sq_diffs(t1, t2) -> np.ndarray:
    """``factored_sq_diffs`` of two tables given with their column norms.

    |a1 b1^T - a2 b2^T|_F^2 + |w1 - w2|^2 per sample, by the rank-one
    identity |a b^T - c d^T|_F^2 = |a|^2 |b|^2 - 2 <a, c> <b, d> + |c|^2 |d|^2,
    the outer part clamped at zero against roundoff.  Stacked tables give
    one row per slice."""
    a1, v1, w1, aa1, vv1 = t1
    a2, v2, w2, aa2, vv2 = t2
    outer = aa1 * vv1 - 2.0 * _col_dots(a1, a2) * _col_dots(v1, v2) + aa2 * vv2
    wd = w1 - w2
    return np.maximum(outer, 0.0) + _col_dots(wd, wd)


def _clip(a: np.ndarray) -> np.ndarray:
    """``project_nonneg(a)`` written into the float64 array ``a``."""
    return np.maximum(a, 0.0, out=a)


def _mt(x: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack (a view)."""
    return x.swapaxes(-1, -2)


class Problem:
    """Shared behaviour for the three factorization problems.

    Subclasses set ``kind`` and implement the regularizer-specific pieces:
    the nonsmooth value and the proximal shape operator, plus feasibility
    beyond the sign rule that ``nonnegative`` switches on.

    ``m_data`` is the one copy of M, stored in Fortran order so that a
    sample (a column) is contiguous; ``m_data.T`` is M^T in C order.  The
    full passes below are written for that layout.
    """

    kind = "abstract"
    # Whether h holds the indicator of U >= 0, V >= 0.
    nonnegative = False

    def __init__(self, m_data, rank: int):
        # Validating the transpose as C-ordered makes at most one copy.
        self.m_data = as_dense(np.transpose(m_data), "m_data").T
        self.rank = _count(rank, "rank", min(self.m_data.shape))
        self._sq_norm_m = float(np.vdot(self.m_data.T, self.m_data.T))
        self.norm_m = math.sqrt(self._sq_norm_m)
        if self.norm_m == 0.0:
            raise ValueError("data matrix must be nonzero")
        self._psi_b = self.norm_m  # the kernel's b; gnmf adds mu0 |L|_F
        # The column ranges of the full passes over M; its columns are the
        # rows of the C-ordered M^T.
        m, d = self.m_data.shape
        self._col_blocks = _row_blocks(d, m, _BLOCK_BYTES // 8)

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

    def smooth_value(self, x: FactorPair, products=None) -> float:
        """f(x) = |UV - M|_F^2 / 2 plus the graph term.

        Given ``products``, the pair ``data_products(x)``, the data term is
        taken in the Gram form (|M|^2 - 2 <U^T M, V> + <U^T U, V V^T>) / 2:
        no pass over M and no m x d array.  The form cancels near a good
        fit.  It differs from the residual form by at most
        4 eps (|M|^2 + |UV|^2), eps = 2.2e-16; the most measured was 2.6 eps
        (|M|^2 + |UV|^2), over 3000 random, signed, rank-deficient and
        near-fit points with |M| from 1e-6 to 1e6.  So where the Gram form
        comes out below 1e-3 |M|^2 / 2 (``_GRAM_MIN_SHARE``), or NaN, the
        residual form is taken instead.  Above that threshold the relative
        error is at most about 5e-12 (5.4e-13 measured near it).  On every
        bpg/bpge iterate of wcmf 500 x 1000 and of gnmf, wcmf and ssnmf at
        60 x 40 (60 epochs, 2 seeds) it was at most 1.9e-15.

        The residual form, the only one without ``products``, is the value
        of one ``_residual_pass`` (see there), which allocates no m x d
        array.  Where one block holds M it is the dot of the whole d x m
        residual, bit for bit; over several blocks the sum is regrouped, a
        rounding-level change.
        """
        self._check_point(x)
        return self._data_value(x, products) + self._graph_value(x.u)

    def _data_value(self, x: FactorPair, products) -> float:
        """|UV - M|_F^2 / 2 in the form ``smooth_value`` takes (see there)."""
        if products is not None:
            data = 0.5 * (
                self._sq_norm_m
                - 2.0 * float(np.vdot(products[0], x.v))
                + float(np.vdot(x.u.T @ x.u, x.v @ x.v.T))
            )
            if data >= _GRAM_MIN_SHARE * 0.5 * self._sq_norm_m:
                return data
        return self._residual_value(x)

    def _residual_value(self, x: FactorPair) -> float:
        """|UV - M|_F^2 / 2 from the residual; see ``_residual_pass``."""
        return self._residual_pass(x)[0]

    def _residual_pass(self, x: FactorPair, gradient: bool = False):
        """(|UV - M|_F^2 / 2, the data gradient or None), one pass over M in
        the column blocks of ``data_products`` through one reused C-ordered
        scratch array of about ``_BLOCK_BYTES``, and at least one column
        (``np.vdot`` would copy a Fortran-ordered one).

        Each block's transposed residual R_blk^T = V_blk^T U^T - M_blk^T
        adds its squared norm to the value and, with ``gradient``, its share
        of the data gradient (R V^T, U^T R): V_blk R_blk^T into (R V^T)^T
        and U^T R_blk into its columns of the V-block.  The value has the
        same bits with the gradient as without it.  The gradient agrees
        with the Gram form of ``data_gradient`` to rounding, each taking its
        own sums: at most 7e-16 normwise relative on random, signed and
        rank-deficient points at 60 x 40 and 400 x 600.
        """
        blocks = self._col_blocks
        # The first block is the widest.
        scratch = np.empty((blocks[0][1], self.m_data.shape[0]))
        total = 0.0
        gut = gv = None
        if gradient:
            gv = np.empty_like(x.v)
        for s, e in blocks:
            rt = np.matmul(x.v[:, s:e].T, x.u.T, out=scratch[: e - s])
            rt -= self.m_data[:, s:e].T
            total += float(np.vdot(rt, rt))
            if gradient:
                np.matmul(x.u.T, rt.T, out=gv[:, s:e])
                part = x.v[:, s:e] @ rt
                gut = part if gut is None else np.add(gut, part, out=gut)
        if not gradient:
            return 0.5 * total, None
        return 0.5 * total, FactorPair._unchecked(gut.T, gv)

    def nonsmooth_value(self, x: FactorPair) -> float:
        """Finite part of h; indicator kinds return 0 on the feasible set."""
        return 0.0

    def objective(self, x: FactorPair, products=None) -> float:
        """f(x) + h(x); ``math.inf`` when x violates a constraint.

        Infinity only ever arises for the constrained kinds, and only for
        points outside the feasible set; trace writers must consult
        ``is_feasible`` rather than serializing the infinity.  ``products``
        is passed on to ``smooth_value``.
        """
        if not self.is_feasible(x):
            return math.inf
        return self.smooth_value(x, products) + self.nonsmooth_value(x)

    def _objective_and_gradient(self, x: FactorPair, products=None):
        """(``objective(x, products)`` bit for bit, the gradient of f at x),
        or (inf, None) where x is infeasible.  The gradient is
        ``full_gradient(x, products)`` bit for bit given ``products``, else
        that of the ``_residual_pass`` that gives the value.  One product
        L U gives the graph value and gradient.  An audited step evaluates
        its new iterate by this one call."""
        if not self.is_feasible(x):
            return math.inf, None
        if products is None:
            data, g_data = self._residual_pass(x, gradient=True)
        else:
            data, g_data = self._data_value(x, products), self.data_gradient(x, products)
        graph, grad = self._graph_terms(g_data, x)
        return data + graph + self.nonsmooth_value(x), grad

    def is_feasible(self, x: FactorPair, tol: float = 1e-12) -> bool:
        """Whether x meets the constraints of h up to ``tol``.  A NaN entry
        fails the sign rule, as ``min() >= -tol`` reads False on it."""
        self._check_point(x)
        return not self.nonnegative or bool(x.u.min() >= -tol and x.v.min() >= -tol)

    # -- gradients -------------------------------------------------------

    def data_products(self, x: FactorPair) -> tuple[np.ndarray, np.ndarray]:
        """(U^T M, M V^T): about 4mrd flops, the only way the data term reads
        M.  One pass over M in column blocks of about ``_BLOCK_BYTES``: each
        block, read once while it stays in cache, gives its columns of
        U^T M and adds V_blk M_blk^T into (V M^T)^T, the fast form of M V^T
        for the Fortran-ordered M.  Where one block holds M these are the
        two whole-matrix products bit for bit; over several blocks both
        move at rounding level.  Both are linear in the factor, so the
        products at an extrapolated point x_k + beta (x_k - x_{k-1}) are
        P_k + beta (P_k - P_{k-1}) for each product P."""
        self._check_point(x)
        utm = np.empty((self.rank, self.m_data.shape[1]))
        vmt = None
        for s, e in self._col_blocks:
            blk = self.m_data[:, s:e]
            np.matmul(x.u.T, blk, out=utm[:, s:e])
            part = x.v[:, s:e] @ blk.T
            vmt = part if vmt is None else np.add(vmt, part, out=vmt)
        return utm, vmt.T

    def data_gradient(self, x: FactorPair, products=None) -> FactorPair:
        """Gradient of the data-fitting term |M - UV|^2 / 2 alone.

        Uses the Gram form ((UV - M) V^T, U^T (UV - M)) =
        (U (V V^T) - M V^T, (U^T U) V - U^T M): two r x r Gram matrices and
        no m x d array; the largest temporaries are the m x r and r x d
        blocks.  M is read only through ``products``, the pair
        (U^T M, M V^T); None takes them with ``data_products``, so a call
        without them returns the same bits as one given the products at x.
        """
        self._check_point(x)
        utm, mvt = self.data_products(x) if products is None else products
        gu = x.u @ (x.v @ x.v.T)
        gu -= mvt
        gv = (x.u.T @ x.u) @ x.v
        gv -= utm
        return FactorPair._unchecked(gu, gv)

    def full_gradient(self, x: FactorPair, products=None) -> FactorPair:
        """Gradient of f at x; ``products`` as for ``data_gradient``."""
        return self._with_graph(self.data_gradient(x, products), x)

    def minibatch_data_gradient(self, x: FactorPair, indices) -> FactorPair:
        """Data-term minibatch gradient: the batch mean of ``batch_table``."""
        self._check_point(x)
        return self._minibatch_gradient(x, validate_indices(indices, self.n_samples))

    def _minibatch_gradient(self, x: FactorPair, idx: np.ndarray) -> FactorPair:
        """``minibatch_data_gradient`` over a batch that is already sorted,
        distinct and in range, such as an estimator's own draw."""
        a, vb, w = self.batch_table(x, idx)
        b = idx.size
        gu = (a @ vb.T) / b
        gv = np.zeros_like(x.v)
        gv[:, idx] = w / b
        return FactorPair._unchecked(gu, gv)

    # -- factored per-sample gradients (estimator support) --------------

    def gradient_table(self, x: FactorPair):
        """Factored per-sample gradients at x for all n columns.

        Returns (A, Vt, W): sample i has U-block A[:, i] Vt[:, i]^T with
        A = n * (UV - M), and V-block W[:, i] = n * U^T (UV - M)[:, i].
        Memory is O(n (m + r)) instead of materializing n dense gradients.
        A is Fortran-ordered like M, so a column of the table is contiguous.
        """
        self._check_point(x)
        return self._table(x.u, x.v.copy(), self.m_data)

    def batch_table(self, x: FactorPair, idx: np.ndarray):
        """Factored per-sample gradients at x for the given sorted batch."""
        return self._table(x.u, x.v[:, idx], self.m_data[:, idx])

    def _batch_difference(self, x, gram, y, y_gram, idx: np.ndarray):
        """The batch-mean per-sample gradient at x less that at y, over the
        sorted batch ``idx``, in Gram form: (U-block, V-block columns idx).

        With s = n/b, I = idx and the carried Grams G = U^T U at each point,
        the n M_I parts of the two tables cancel exactly:

            U-block        s [U_x (V_xI V_xI^T) - U_y (V_yI V_yI^T)
                              - M_I (V_xI - V_yI)^T]
            V-block, I     s [G_x V_xI - G_y V_yI - (U_x - U_y)^T M_I]

        The gather M_I is the only m x b array; SARAH's cost is in the
        ``estimators`` module docstring.
        """
        m_cols = self.m_data[:, idx]
        xv, yv = x.v[:, idx], y.v[:, idx]
        gu = x.u @ (xv @ xv.T)
        gu -= y.u @ (yv @ yv.T)
        gu -= m_cols @ (xv - yv).T
        gv = gram @ xv
        gv -= y_gram @ yv
        gv -= (x.u - y.u).T @ m_cols
        s = self.n_samples / idx.size
        gu *= s
        gv *= s
        return gu, gv

    def _table(self, u: np.ndarray, vt: np.ndarray, m_cols: np.ndarray):
        # u and vt may also be stacks of factors, one per point; each slice
        # then takes the same GEMMs as a single point, with the same layouts.
        a = _mt(_mt(vt) @ _mt(u))
        a -= m_cols
        a *= float(self.n_samples)
        return a, vt, _mt(u) @ a

    # -- graph hooks (only the graph-regularized kind overrides) ---------

    def _graph_value(self, u: np.ndarray) -> float:
        return 0.0

    def _with_graph(self, g_data: FactorPair, x: FactorPair) -> FactorPair:
        """A data-term gradient at x plus the exact graph-term gradient."""
        return g_data

    def _graph_terms(self, g_data: FactorPair, x: FactorPair):
        """(``_graph_value(x.u)``, ``_with_graph(g_data, x)``), bit for bit."""
        return 0.0, g_data

    # -- kernel and curvature --------------------------------------------

    def kernel(self, eta: float = 0.0) -> KernelSpec:
        """The prescribed kernel for a finite step eta: a = 3, b = |M|_F
        (plus mu0 |L|_F for gnmf) and the U-only c = eta alpha, which cancels
        the concave part of h in the proximal subproblem; alpha is
        ``weak_convexity``, so c = 0 for the indicator kinds."""
        return KernelSpec(3.0, self._psi_b, eta * self.weak_convexity)

    @property
    def weak_convexity(self) -> float:
        """Weak-convexity modulus alpha of h (0 for the indicator kinds)."""
        return 0.0

    @property
    def lemma_audits_exact(self) -> bool:
        """Whether the descent-lemma hypotheses hold verbatim for this h."""
        return True

    def local_lipschitz(self, x_bar: FactorPair) -> float:
        """Blockwise Euclidean curvature bound at x_bar.

        ``run`` no longer reads it: every variant steps at a constant
        c <= 1, the kernel's L_bar = 1 giving c = 1 for full gradients.  It
        stays while the benchmark declares a per-layer metric that traces
        it, and goes with that metric.

        max of |V V^T|_2 (+ mu0 |L|_2 for the graph kind) over the U block
        and |U^T U|_2 over the V block.  Both Gram matrices are r x r and
        symmetric positive semidefinite, so each norm is the exact largest
        eigenvalue, from ``spectral_norm``.  |L|_2 is computed the same way
        on each call, an O(m^3) eigensolve of the dense Laplacian.  A Gram
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
        """The shapes (A, B) from -P and -Q, arrays that ``prox_step`` made
        for them: each is written in place or left for a new array."""
        raise NotImplementedError

    def prox_step(
        self, grad: FactorPair, x_bar: FactorPair, eta: float, kernel=None, sq_norm=None
    ) -> FactorPair:
        """Closed-form minimizer of h(x) + <grad, x - x_bar> + D_psi(x, x_bar)/eta.

        psi is ``self.kernel(eta)``; ``kernel`` is that spec and ``sq_norm``
        is ``x_bar.norm_sq()`` when the caller already holds them.  The
        minimizer lies on the ray through
        shapes (A, B) obtained by the kind-specific operator applied to the
        gradient step -P = grad psi(x_bar) - eta * grad, which must be finite
        (ValueError otherwise); the radius solves a (|A|^2 + |B|^2) t^3 + b t = 1
        with (a, b) the kernel's quartic and quadratic coefficients.  Output is
        exactly feasible for the constrained kinds, and checked in O(1): no
        entry exceeds t sqrt(S), S = |A|^2 + |B|^2, which must be finite
        (ValueError otherwise).  For the prescribed a = 3 that holds whenever
        the gradient step and S are finite: a S t^3 <= 1 gives
        t sqrt(S) <= S^(1/6) / 3^(1/3) < 2e51.  An infinite S fails in
        ``cubic_root``.
        """
        self._check_point(x_bar)
        if not (np.isfinite(eta) and eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {eta}")
        if grad.shape != self.shape:
            raise ValueError("gradient shape mismatch")
        kernel = self.kernel(eta) if kernel is None else kernel
        s = x_bar.norm_sq() if sq_norm is None else sq_norm
        # -P = grad psi(x_bar) - eta grad, formed in the kernel gradient
        neg = _kernel_gradient(kernel, x_bar, s)
        neg_p, neg_q = neg.u, neg.v
        neg_p -= eta * grad.u
        neg_q -= eta * grad.v
        if not (np.isfinite(neg_p).all() and np.isfinite(neg_q).all()):
            raise ValueError("prox_step: the gradient step has non-finite entries")
        a_shape, b_shape = self._prox_shapes(neg_p, neg_q, eta)
        ssum = float(np.vdot(a_shape, a_shape) + np.vdot(b_shape, b_shape))
        t = cubic_root(kernel.quartic * ssum, kernel.quadratic)
        if not math.isfinite(t * math.sqrt(ssum)):
            raise ValueError("prox_step: the new iterate has non-finite entries")
        a_shape *= t
        b_shape *= t
        return FactorPair._unchecked(a_shape, b_shape)

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
        for infeasible candidates of the constrained kinds.  Demo 01,
        acceptance criterion 1 and ``test_prox_beats_random_candidates``
        compare ``prox_step`` against explicit search with it.
        """
        if not self.is_feasible(cand):
            return math.inf
        d = bregman_distance(kernel, cand, x_bar)
        return eta * (self.nonsmooth_value(cand) + grad.dot(cand - x_bar)) + d


class LaplacianError(ValueError):
    """A graph Laplacian that ``GraphRegularizedNMF`` rejects."""


def _checked_laplacian(laplacian, m: int) -> scipy.sparse.csr_array:
    """``laplacian``, dense or sparse, as a canonical float64 CSR array
    (sorted indices, duplicates summed, no zero entries), checked in
    O(nnz log nnz): finite, m x m, symmetric, rows summing to zero and
    off-diagonal entries <= 0, each to 1e-8 max(1, max |L_ij|).  A
    canonical float64 CSR input is used as it is; any other sparse input
    is converted into new arrays, never changed.  A failed check raises
    LaplacianError."""
    if not scipy.sparse.issparse(laplacian):
        laplacian = np.asarray(laplacian, dtype=np.float64)
    if laplacian.ndim != 2:
        raise LaplacianError(f"laplacian must be 2-D, got ndim={laplacian.ndim}")
    lap = scipy.sparse.csr_array(laplacian, dtype=np.float64)
    if not (lap.has_canonical_format and lap.data.all()):
        lap = lap.copy()
        lap.sum_duplicates()
        lap.eliminate_zeros()
    # int64 keys: i m + j overflows int32 indices from m = 46341.
    data, cols = lap.data, lap.indices.astype(np.int64)
    if not np.isfinite(data).all():
        raise LaplacianError("laplacian contains non-finite entries")
    if lap.shape != (m, m):
        raise LaplacianError(f"laplacian must be {m}x{m}, got {lap.shape}")
    tol = 1e-8 * max(1.0, float(np.abs(data).max(initial=0.0)))
    rows = np.repeat(np.arange(m), np.diff(lap.indptr))
    # Each entry L_ij against L_ji, or 0 where L has no (j, i) entry: the
    # keys i m + j of a canonical CSR are sorted.  An entry of L^T with no
    # entry of L at its place is the mirror of one checked here.
    keys = rows * m + cols
    mirror = cols * m + rows
    order = np.argsort(mirror)
    mirror = mirror[order]
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    there = np.where(keys[at] == mirror, data[at], 0.0)
    if np.abs(data[order] - there).max(initial=0.0) > tol:
        raise LaplacianError("laplacian must be symmetric")
    if np.abs(np.bincount(rows, data, minlength=m)).max() > tol:
        raise LaplacianError("laplacian rows must sum to zero")
    if data[rows != cols].max(initial=0.0) > tol:
        raise LaplacianError("laplacian off-diagonal entries must be <= 0")
    return lap


class GraphRegularizedNMF(Problem):
    """Nonnegative factorization with a graph-Laplacian smoothness penalty.

    ``laplacian`` may be a dense array or any ``scipy.sparse`` matrix or
    array; it is read only when mu0 > 0.  It is converted once to a
    canonical CSR array (duplicate entries summed) and checked in
    O(nnz log nnz) by ``_checked_laplacian``, which raises
    ``LaplacianError``, a ValueError, with the same message for either
    input.  |L|_F is the
    square root of the sum of the squared CSR entries.  ``laplacian`` then
    holds the operator the graph product uses: that CSR array when at most
    5% of the entries are nonzero (a kNN graph from about m = 200 rows up),
    else its dense copy; see the module docstring for the timings behind
    the rule.  Its spectral norm is not taken here: only
    ``local_lipschitz`` reads it, and takes it per call.
    """

    kind = "gnmf"
    nonnegative = True

    def __init__(self, m_data, rank: int, mu0: float = 0.0, laplacian=None):
        super().__init__(m_data, rank)
        mu0 = float(mu0)
        if mu0 < 0.0:
            raise ValueError(f"mu0 must be >= 0, got {mu0}")
        self.mu0 = mu0
        if mu0 > 0.0:
            if laplacian is None:
                raise ValueError("mu0 > 0 requires a laplacian")
            lap = _checked_laplacian(laplacian, self.m_data.shape[0])
            self.norm_l_fro = math.sqrt(float(np.sum(lap.data * lap.data)))
            if lap.nnz > _SPARSE_MAX_DENSITY * lap.shape[0] ** 2:
                lap = lap.toarray()
            self.laplacian = lap
        else:
            self.laplacian = None
            self.norm_l_fro = 0.0
        self._psi_b += self.mu0 * self.norm_l_fro

    def _graph_value(self, u: np.ndarray) -> float:
        if self.mu0 == 0.0:
            return 0.0
        return 0.5 * self.mu0 * float(np.vdot(u, self.laplacian @ u))

    def _with_graph(self, g_data: FactorPair, x: FactorPair) -> FactorPair:
        # The data part is added into mu0 L U (IEEE addition commutes).
        if self.mu0 == 0.0:
            return g_data
        gu = self.laplacian @ x.u
        gu *= self.mu0
        gu += g_data.u
        return FactorPair._unchecked(gu, g_data.v)

    def _graph_terms(self, g_data: FactorPair, x: FactorPair):
        # One product L U serves the value, then becomes the gradient's U-block.
        if self.mu0 == 0.0:
            return 0.0, g_data
        gu = self.laplacian @ x.u
        value = 0.5 * self.mu0 * float(np.vdot(x.u, gu))
        gu *= self.mu0
        gu += g_data.u
        return value, FactorPair._unchecked(gu, g_data.v)

    def _graph_operator_norm(self) -> float:
        """mu0 |L|_2, one O(m^3) dense eigensolve per call."""
        if self.laplacian is None:
            return 0.0
        lap = self.laplacian
        if scipy.sparse.issparse(lap):
            lap = lap.toarray()
        return self.mu0 * spectral_norm(lap)

    def _prox_shapes(self, neg_p, neg_q, eta):
        return _clip(neg_p), _clip(neg_q)


class WeaklyConvexMF(Problem):
    """Factorization with an l1 penalty made weakly convex by a concave
    quadratic: h(U) = lambda1 |U|_1 - (lambda2/2) |U|_F^2, no constraints.
    Any lambda1, lambda2 >= 0 is accepted: the kernel's c = eta lambda2 makes
    the prox convex for every lambda2, no order of the two keeps Phi bounded
    below along (t U, V / t), and lambda1 > lambda2 is not scale-free (on
    s M, lambda1 ~ s^(3/2) and lambda2 ~ s: it rejected (0.05, 0.02) scaled
    to any s < 0.16)."""

    kind = "wcmf"

    def __init__(self, m_data, rank: int, lambda1: float, lambda2: float):
        super().__init__(m_data, rank)
        lambda1 = float(lambda1)
        lambda2 = float(lambda2)
        if lambda1 < 0.0 or lambda2 < 0.0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        self.lambda1 = lambda1
        self.lambda2 = lambda2

    def nonsmooth_value(self, x: FactorPair) -> float:
        return float(
            self.lambda1 * np.abs(x.u).sum() - 0.5 * self.lambda2 * np.vdot(x.u, x.u)
        )

    @property
    def weak_convexity(self) -> float:
        return self.lambda2

    def _prox_shapes(self, neg_p, neg_q, eta):
        return _shrink(neg_p, eta * self.lambda1), neg_q


class SparseNMF(Problem):
    """Nonnegative factorization with hard sparsity budgets: at most s1
    nonzeros per column of U and s2 per row of V."""

    kind = "ssnmf"
    nonnegative = True

    def __init__(self, m_data, rank: int, s1: int, s2: int):
        super().__init__(m_data, rank)
        m, d = self.m_data.shape
        self.s1 = _count(s1, "s1", m)
        self.s2 = _count(s2, "s2", d)

    def is_feasible(self, x: FactorPair, tol: float = 1e-12) -> bool:
        return bool(
            super().is_feasible(x, tol)
            and (np.abs(x.u) > tol).sum(axis=0).max() <= self.s1
            and (np.abs(x.v) > tol).sum(axis=1).max() <= self.s2
        )

    @property
    def lemma_audits_exact(self) -> bool:
        # The sparsity indicator is not weakly convex, so descent-lemma
        # audits are heuristic for this kind.
        return False

    def _prox_shapes(self, neg_p, neg_q, eta):
        # Projection first, then selection: clip negatives, then keep the
        # s largest survivors per column of U / row of V.
        a = _select_in_place(_clip(neg_p), self.s1, axis=0)
        b = _select_in_place(_clip(neg_q), self.s2, axis=1)
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


def _row_blocks(n: int, width: int, size: int):
    """Consecutive row ranges (start, stop) over n rows of ``width``
    entries, each at most ``size`` entries but at least one row; the first
    range is the widest."""
    step = max(1, size // width)
    return [(s, min(s + step, n)) for s in range(0, n, step)]


def build_knn_laplacian(
    m_data,
    p_neighbors: int = 5,
    weighting: str = "binary",
    sigma: float | None = None,
) -> scipy.sparse.csr_array:
    """Symmetric kNN graph Laplacian over the rows of ``m_data``, as a
    canonical ``scipy.sparse.csr_array`` (sorted indices, no duplicate and
    no zero entries).

    Each row is connected to its ``p_neighbors`` nearest rows by Euclidean
    distance (self excluded, distance ties broken toward the lower index).
    Edge weights are 1 for ``binary`` or exp(-d^2 / sigma) for ``heat``; the
    adjacency is symmetrized by elementwise max and L = diag(row sums) - W.
    For ``heat`` with sigma None, sigma defaults to the mean squared
    neighbor distance.

    The squared distances come from one Gram x x^T, numpy's symmetric
    product, and are formed in place in its rows, one block of rows at a
    time; nothing else is m x m.  A partition finds each row's p-th
    smallest distance; the neighbors are every row nearer than it, then the
    lowest-index rows at it.  That is the set the first p entries of a
    stable sort of the row would give, without the O(m^2 log m) sort.  The
    default sigma sums the selected distances of each row in ascending
    order, as that sort would list them, and each degree is the sum of a
    dense row of W, so the result is ``csr_array`` of the dense
    diag(W 1) - W bit for bit.  Squared distances, or a default sigma, that
    overflow raise ValueError.
    """
    x = as_dense(m_data, "m_data")
    n = x.shape[0]
    p = p_neighbors
    if not 1 <= p < n:
        raise ValueError(f"p_neighbors must be in [1, {n - 1}], got {p}")
    if weighting not in ("binary", "heat"):
        raise ValueError(f"weighting must be 'binary' or 'heat', got {weighting!r}")

    # One scratch block of rows serves every pass: about _BLOCK_BYTES, and
    # no more than the whole array or less than one row.
    d = x.shape[1]
    size = max(min(_BLOCK_BYTES // 8, n * max(n, d)), n, d)
    scratch = np.empty(size)

    def rows_of(s, e, width):
        return scratch[: (e - s) * width].reshape(e - s, width)

    sq = np.empty(n)
    for s, e in _row_blocks(n, d, size):
        # np.sum(x * x, axis=1) to the bit: each row is summed on its own.
        sq[s:e] = np.multiply(x[s:e], x[s:e], out=rows_of(s, e, d)).sum(axis=1)
    d2 = x @ x.T
    blocks = _row_blocks(n, n, size)
    cols = np.empty(n * p, dtype=np.int64)
    dsel = np.empty(n * p)
    for s, e in blocks:
        # (sq_i + sq_j) - 2 g_ij, to the bit: negation and doubling are exact.
        blk, tmp = d2[s:e], rows_of(s, e, n)
        blk *= -2.0
        blk += np.add(sq[s:e, None], sq, out=tmp)
        if not np.isfinite(blk).all():
            raise ValueError("squared distances between the rows of m_data overflow")
        np.maximum(blk, 0.0, out=blk)
        blk[np.arange(e - s), np.arange(s, e)] = np.inf
        np.copyto(tmp, blk)
        tmp.partition(p - 1, axis=1)
        kth = tmp[:, p - 1 : p]
        nearest = blk <= kth
        flat = np.flatnonzero(nearest)
        if flat.size > (e - s) * p:
            extra = np.count_nonzero(nearest, axis=1) - p
            # In a row with more than p entries at or below the p-th value,
            # drop the ``extra`` highest-index entries equal to it.
            tied_rows = np.flatnonzero(extra)
            tied = blk[tied_rows] == kth[tied_rows]
            late = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1] <= extra[tied_rows, None]
            nearest[tied_rows] &= ~(tied & late)
            flat = np.flatnonzero(nearest)
        cols[s * p : e * p] = flat % n
        dsel[s * p : e * p] = blk.flat[flat]
    del d2, blk

    if weighting == "binary":
        w = np.ones(n * p)
    else:
        if sigma is None:
            # The mean in the order of a stable sort of each row, nearest
            # first: a float sum depends on its order.
            sigma = float(np.sort(dsel.reshape(n, p), axis=1).mean())
            if not math.isfinite(sigma):
                raise ValueError("the mean squared neighbor distance overflows")
            if sigma <= 0.0:
                sigma = 1.0
        elif sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        w = np.exp(-dsel / sigma)

    # W = max(W, W^T) as entries keyed i n + j in row-major order: each edge
    # in both directions and a 0 on the diagonal, equal keys reduced by max.
    rows = np.repeat(np.arange(n), p)
    diag = np.arange(n) * (n + 1)
    keys = np.concatenate([rows * n + cols, cols * n + rows, diag])
    order = np.argsort(keys)
    keys, w = keys[order], np.concatenate([w, w, np.zeros(n)])[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys, w = keys[first], np.maximum.reduceat(w, first)

    data = -w
    row_keys = np.arange(n + 1) * n
    ends = np.searchsorted(keys, row_keys)
    at_diag = np.searchsorted(keys, diag)
    for s, e in blocks:
        # Each degree sums a dense row of W, in the order numpy sums W 1.
        dense = rows_of(s, e, n)
        dense.fill(0.0)
        dense.flat[keys[ends[s] : ends[e]] - s * n] = w[ends[s] : ends[e]]
        data[at_diag[s:e]] = dense.sum(axis=1)
    # A heat weight that underflows to 0 is no entry, as in csr_array(dense).
    keep = data != 0.0
    keys, data = keys[keep], data[keep]
    indptr = np.searchsorted(keys, row_keys)
    return scipy.sparse.csr_array((data, keys % n, indptr), shape=(n, n))
