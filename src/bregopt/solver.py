"""The extrapolated Bregman proximal loop and its theory diagnostics.

A run fixes its step and kernel once, before its first iteration.  One
iteration: extrapolate the current iterate, query a gradient estimator at
the extrapolated point, and apply the closed-form Bregman proximal step.
Four named variants are thin restrictions of the same loop:

    bpg    full gradient, no extrapolation
    bpge   full gradient, extrapolation
    bpsg   stochastic estimator, no extrapolation
    bpsge  stochastic estimator, extrapolation

Extrapolation modes: ``scheduled`` uses beta_k = 0.6 (k-1)/(k+2);
``safeguarded`` starts there and halves beta until the extrapolated point
satisfies the distance-growth inequality

    D_psi(x_k, x_bar_k) <= (delta - eps)/(1 + L_under * eta_{k-1})
                           * D_psi(x_{k-1}, x_k)

that the descent analysis assumes, with delta = 0.99 and L_under the run's
effective constant.  Every problem prescribes its kernel psi, and f is
smooth adaptable relative to it with L_bar = 1.  No variant takes a
curvature: every step is c, with c = 1 for the full-gradient variants, the
step of the smooth-adaptable descent lemma, and c = c_b = min(1/2,
sqrt(b/n)) for minibatches of b of the n columns (see ``step_size``).
L_under is 1/c, the inverse of the step.  ``strict_theory_stepsize`` caps
every step by (1 - delta)/alpha, alpha the problem's weak-convexity
modulus.  Under that cap the Lyapunov sequence computed by ``lyapunov`` is
provably nonincreasing for deterministic runs.

Traces are recorded per epoch: the objective at the epoch's last iterate and
means of the Bregman step, eta and beta over its iterations; a failed epoch
adds no row.  A run carries |x_k|^2 and psi(x_k) from step to step: the prox
reads |x_k|^2 when beta is 0, and the Bregman step D(x_k, x_{k+1}) takes two
dots and is ``bregman_distance(kernel, x_k, x_{k+1})`` bit for bit.  Audit
mode additionally records per-iteration theory quantities: the Lyapunov
value, the variance tracker, squared step lengths, and the norm of an
explicit subgradient witness at the new iterate.

A full-gradient run reads M once per step.  It carries the data products
(U^T M, M V^T) of its last two iterates, as it carries the last Bregman
step.  The products at x_bar follow the extrapolation by linearity, so
they give the gradient there (the same bits as a direct pass when beta is
0, as for every bpg step), and the products at x_{k+1} give the objective
and the audit's stationarity witness.  Such a run's trace and audit
objectives therefore come from the products (``Problem.smooth_value``): they
agree with ``problem.objective(result.x)`` to about 1e-15 relative, not bit
for bit.  Stochastic runs take the objective in the residual form.

An audited step evaluates x_{k+1} once: ``Problem._objective_and_gradient``
gives its objective and the gradient of f that the witness reads, from the
products a full-gradient run holds, or from one residual pass for a
stochastic run, with one product L U for the graph term either way.  The
witness is ``_witness``, from the |x|^2 the run carries, and equals
``stationarity_witness`` bit for bit.  A stochastic estimator's audit reads
M once more, at x_bar (see the ``estimators`` module).  Steps that are not
audited do not change.

A step writes only into arrays it made, never into an input.
``extrapolate`` takes Delta = x_k - x_{k-1} once and turns it into
x_bar = x_k + beta Delta in place; safeguarded mode keeps Delta and writes
each trial point into one more new pair.  ``_extrapolated`` does the same
for the carried data products.  IEEE addition and multiplication commute,
so x_bar keeps the bits of the out-of-place expression.  At 500 x 1000,
rank 10, one ``extrapolate`` peaks (``tracemalloc``) at 1.05 factor pairs,
the bytes of U and V, where a new array for each operation took 2.67,
and at 2.01 safeguarded; the carried products at 1.00 pairs of products
against 1.34.  The prox and the graph term follow the same rule (see the
``problems`` module), while the public ``soft_threshold``,
``project_nonneg`` and ``kernel_gradient`` stay non-mutating.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import effective_batch_size, make_estimator
from .kernels import FactorPair, KernelSpec, bregman_distance
from .kernels import _carried_distance, kernel_value
from .numeric import spawn_rngs
from .problems import Problem

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "AuditRecord",
    "RunResult",
    "extrapolate",
    "step_size",
    "run",
    "lyapunov",
    "stationarity_witness",
    "RateCheckReport",
    "rate_check",
]

_ALGORITHMS = ("bpg", "bpge", "bpsg", "bpsge")
_ESTIMATORS = ("full", "sgd", "saga", "sarah")
_BETA_MODES = ("scheduled", "safeguarded")

# Scale of the scheduled beta; the convergence analysis needs it below 1/sqrt(2).
_BETA_SCALE = 0.6
# delta of the descent analysis (epsilon < delta < 1); near 1 it admits most beta.
_DELTA = 0.99
# Smallest step taken; a run whose step would fall below it reports the hit.
_ETA_FLOOR = 1e-8
# Quiet epochs in a row that stop a run early; one alone can be a lull.
_STOP_WINDOW = 3
# Slack of ``rate_check``: the harness checks a mean over stochastic trials.
_RATE_SLACK = 0.1


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run depends on besides the problem and the start point.

    The algorithm alone says whether a run extrapolates (bpge and bpsge
    read ``beta_mode``; bpg and bpsg never do) and whether it samples
    columns (bpg and bpge take the full gradient, which bpsg and bpsge
    reject).  ``batch_size`` 0 means 5% of the columns (at least one).  The
    step follows from the algorithm and the batch share (see
    ``step_size``); ``strict_theory_stepsize`` caps it by (1 - delta)/alpha,
    with alpha the problem's weak-convexity modulus.
    ``audit_every`` counts epochs between audited boundaries;
    ``audit_per_iteration`` upgrades auditing to every inner iteration
    regardless.
    """

    algorithm: str = "bpsge"
    estimator: str = "saga"
    batch_size: int = 0
    max_epochs: int = 50
    beta_mode: str = "scheduled"
    epsilon: float = 0.01
    strict_theory_stepsize: bool = False
    stop_tol: float = 1e-12
    audit_every: int = 0
    audit_per_iteration: bool = False
    keep_iterates: bool = False
    seed: object = 0

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")
        if self.estimator == "full" and self.algorithm in ("bpsg", "bpsge"):
            raise ValueError(
                f"estimator 'full' is not stochastic: {self.algorithm} takes sgd, saga or sarah"
            )
        if self.beta_mode not in _BETA_MODES:
            raise ValueError(f"beta_mode must be one of {_BETA_MODES}")
        if not 0.0 < self.epsilon < _DELTA:
            raise ValueError(f"need 0 < epsilon < {_DELTA}, got {self.epsilon}")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = auto)")
        if self.stop_tol < 0.0:
            raise ValueError("stop_tol must be >= 0")
        if self.audit_every < 0:
            raise ValueError("audit_every must be >= 0")

    def resolved(self) -> "SolverConfig":
        """Apply the algorithm's one restriction: deterministic variants
        force the full-gradient estimator."""
        if self.algorithm in ("bpg", "bpge") and self.estimator != "full":
            return replace(self, estimator="full")
        return self


@dataclass(frozen=True)
class IterationTrace:
    """One per-epoch trace row: ``objective`` at the epoch's last iterate,
    ``bregman_step``, ``eta`` and ``beta`` as epoch means.  A failed epoch
    adds no row.

    The audit values (Lyapunov, stationarity witness, trackers) live only in
    ``RunResult.audits``.  ``feasible`` can only be False on the epoch-0 row
    (a sparsity-infeasible start point), in which case ``objective`` holds
    the smooth part only.
    """

    epoch: int
    objective: float
    bregman_step: float
    eta: float
    beta: float
    wall_ms: float
    feasible: bool = True


@dataclass(frozen=True)
class AuditRecord:
    """Per-iteration theory quantities (audit mode only); NaN marks a
    ``VarianceAudit`` quantity that the estimator does not track."""

    iteration: int
    epoch: int
    objective: float
    bregman_step: float
    bregman_prev: float
    step_sq: float
    lyapunov: float
    stationarity: float
    gamma: float
    upsilon: float
    realized_sq_error: float
    eta: float
    beta: float


@dataclass
class RunResult:
    """What ``run`` returns (see there); ``audits`` are the only record of
    the per-step Lyapunov value, stationarity witness and trackers."""

    x: FactorPair
    trace: list[IterationTrace]
    audits: list[AuditRecord] = field(default_factory=list)
    failed: bool = False
    message: str = ""
    hit_eta_floor: bool = False
    iterations_run: int = 0
    iterates: list[FactorPair] | None = None

    @property
    def psi1(self) -> float:
        """The Lyapunov value after the first step, the Psi_1 of the rate
        bound: NaN unless that step was audited."""
        if self.audits and self.audits[0].iteration == 0:
            return self.audits[0].lyapunov
        return math.nan


def extrapolate(
    x_k: FactorPair,
    x_km1: FactorPair,
    k: int,
    cfg: SolverConfig,
    kernel: KernelSpec,
    eta_prev: float,
    l_under: float,
    d_prev: float | None = None,
) -> tuple[FactorPair, float]:
    """Extrapolated point and the beta actually used at iteration k.

    bpg and bpsg never extrapolate: they return x_k with beta 0, whatever
    ``beta_mode`` says.  Safeguarded mode halves the scheduled beta (at most
    50 times, then 0) until the distance-growth inequality holds; if the
    last two iterates coincide the right-hand side is zero and beta
    collapses to 0.
    ``eta_prev`` is the step that produced x_k and ``l_under`` its
    effective constant, in ``run`` the run's fixed step and L_under.
    ``d_prev`` is D(x_{k-1}, x_k) under ``kernel`` when the caller already
    holds it; None computes it.
    """
    if cfg.algorithm in ("bpg", "bpsg") or k == 0:
        return x_k, 0.0
    beta = max(0.0, _BETA_SCALE * (k - 1) / (k + 2))
    if beta == 0.0:
        return x_k, 0.0
    delta = x_k - x_km1
    if not (delta.u.any() or delta.v.any()):
        return x_k, 0.0
    if cfg.beta_mode == "scheduled":
        return _moved(x_k, delta, beta, delta), beta

    if d_prev is None:
        d_prev = bregman_distance(kernel, x_km1, x_k)
    d_base = max(d_prev, 0.0)
    bound = (_DELTA - cfg.epsilon) / (1.0 + l_under * eta_prev) * d_base
    # Each trial point is written into the same new pair; delta is kept.
    x_bar = FactorPair._unchecked(np.empty_like(delta.u), np.empty_like(delta.v))
    for _ in range(50):
        _moved(x_k, delta, beta, x_bar)
        if bregman_distance(kernel, x_k, x_bar) <= bound:
            return x_bar, beta
        beta *= 0.5
    return x_k, 0.0


def _moved(x: FactorPair, delta: FactorPair, beta: float, out: FactorPair) -> FactorPair:
    """x + beta delta written into ``out``, which may be ``delta`` itself:
    the bits of the expression, as IEEE addition and multiplication
    commute."""
    for xb, d, o in ((x.u, delta.u, out.u), (x.v, delta.v, out.v)):
        np.multiply(d, beta, out=o)
        o += xb
    return out


def step_size(problem: Problem, cfg: SolverConfig) -> tuple[float, float, bool]:
    """(eta, effective upper constant, floor hit?), the step of every
    iteration of a run.

    Every variant needs only smooth adaptability, with L_bar = 1 for the
    kernel that every problem prescribes, and takes no curvature: eta = c,
    and the effective constant (the safeguard's L_under) is 1/c.
    Full-gradient variants (bpg, bpge) take c = 1, the step of the
    smooth-adaptable descent lemma.  Stochastic variants (bpsg, bpsge) take
    c_b = min(1/2, sqrt(b/n)), b the effective batch size over n columns:
    1/2 at b = n and 0.224 at the 5% default.  c_b depends on b/n alone, so
    the step is scale-free, as the full-gradient one is.  It shrinks with
    the batch share because the estimator's error grows as the share falls:
    measured stability boundaries are about 0.2-0.25 at b/n = 1/40 and
    0.1-0.2 at b/n = 1/200, and a fixed 1/2 blows wcmf bpsge up at b = 1.
    The branch follows ``cfg.algorithm``, so an unresolved config steps as
    its resolved one.  Strict mode caps the step by (1 - delta)/alpha, alpha
    the problem's weak-convexity modulus.  The step never drops below 1e-8;
    hitting that floor, which takes strict mode and alpha > 1e6, is reported
    to the caller.
    """
    c = 1.0
    if cfg.algorithm in ("bpsg", "bpsge"):
        n = problem.n_samples
        c = min(0.5, math.sqrt(effective_batch_size(cfg.batch_size, n) / n))
    eta, l_eff = c, 1.0 / c
    alpha = problem.weak_convexity
    if cfg.strict_theory_stepsize and alpha > 0.0:
        eta = min(eta, (1.0 - _DELTA) / alpha)
    return max(eta, _ETA_FLOOR), l_eff, eta < _ETA_FLOOR


def lyapunov(
    eta: float,
    phi_next: float,
    d_next: float,
    d_prev: float,
    gamma_tracker: float,
    epsilon: float,
    alpha: float = 0.0,
    gamma: float = 0.0,
    tau: float = 1.0,
) -> float:
    """Lyapunov value after a step.

    eta Phi(x_{k+1}) + t_k D(x_k, x_{k+1})
      + (eta gamma / 2 + epsilon / 3) D(x_{k-1}, x_k)
      + eta Gamma_{k+1} / (2 tau gamma)

    with t_k = 1 - eta alpha - eta gamma - epsilon/3; the tracker term is
    defined to vanish when gamma == 0 (exact-gradient case).  The analysis
    subtracts a lower bound of Phi from Phi(x_{k+1}); this value takes it
    as 0, so it assumes Phi >= 0, which wcmf breaks (see ROADMAP item 8).
    """
    t_k = 1.0 - eta * alpha - eta * gamma - epsilon / 3.0
    psi = (
        eta * phi_next
        + t_k * d_next
        + (eta * gamma / 2.0 + epsilon / 3.0) * d_prev
    )
    if gamma > 0.0:
        psi += eta * gamma_tracker / (2.0 * tau * gamma)
    return psi


def stationarity_witness(
    problem: Problem,
    x_next: FactorPair,
    x_bar: FactorPair,
    grad_used: FactorPair,
    eta: float,
    kernel: KernelSpec,
    products=None,
) -> float:
    """Norm of the explicit subgradient witness at the new iterate.

    w = grad f(x_{k+1}) - grad_used + (grad psi(x_bar) - grad psi(x_{k+1}))/eta
    lies in the subdifferential of the objective at x_{k+1} by the proximal
    optimality condition; its norm certifies approximate stationarity.
    grad f(x_{k+1}) comes from ``products``, ``problem.data_products(x_next)``,
    as a full-gradient run takes it, or without them from one residual
    pass, as a stochastic run takes it; ``_witness`` then gives the norm,
    so an audited step of ``run`` records this value bit for bit.  An
    infeasible x_next, which has no subgradient, raises ValueError.
    """
    g_next = problem._objective_and_gradient(x_next, products)[1]
    if g_next is None:
        raise ValueError("stationarity_witness: x_next is infeasible")
    return _witness(
        g_next, grad_used, x_bar, x_bar.norm_sq(), x_next, x_next.norm_sq(), eta, kernel
    )


def _witness(
    grad_next: FactorPair,
    grad_used: FactorPair,
    x_bar: FactorPair,
    s_bar: float,
    x_next: FactorPair,
    s_next: float,
    eta: float,
    kernel: KernelSpec,
) -> float:
    """``stationarity_witness`` given grad f(x_{k+1}) and the squared norms
    s = |x|^2 of x_bar and x_{k+1} that a run carries.

    grad psi(x) is (a s + b + c) U and (a s + b) V, so each block of w is
    taken from the raw arrays, with no norm and no kernel gradient pair.
    """
    a, b = kernel.quartic, kernel.quadratic
    sq = 0.0
    for g_next, g_used, xb, xn, c in (
        (grad_next.u, grad_used.u, x_bar.u, x_next.u, kernel.u_quadratic),
        (grad_next.v, grad_used.v, x_bar.v, x_next.v, 0.0),
    ):
        w = ((a * s_bar + b + c) / eta) * xb
        w -= ((a * s_next + b + c) / eta) * xn
        w += g_next - g_used
        sq += float(np.vdot(w, w))
    return math.sqrt(sq)


def _extrapolated(prods, prods_prev, beta: float):
    """Data products at x_k + beta (x_k - x_{k-1}) from those at x_k and
    x_{k-1}, by linearity; beta 0 returns ``prods`` itself."""
    if beta == 0.0:
        return prods
    out = tuple(p - q for p, q in zip(prods, prods_prev))
    for p, e in zip(prods, out):
        e *= beta
        e += p
    return out


def _validate_start(problem: Problem, x0: FactorPair):
    if x0.shape != problem.shape:
        raise ValueError(f"x0 shape {x0.shape} != problem shape {problem.shape}")
    # Only the sign rule: a dense nonnegative ssnmf start is fine, since the
    # first proximal step lands on the sparsity-feasible set.
    if problem.nonnegative and not Problem.is_feasible(problem, x0):
        raise ValueError(f"{problem.kind} requires a nonnegative start point")


def run(problem: Problem, cfg: SolverConfig, x0: FactorPair) -> RunResult:
    """Execute the configured variant from x0; see the module docstring.

    Returns the final point with per-epoch traces (epoch 0 is the start
    state; then one row per completed epoch, its objective taken at the
    epoch's last iterate and its other scalars as epoch means, so a failed
    epoch adds no row), per-iteration audit records when auditing is
    enabled, and a failure flag with the iteration number if a step fails.
    The step, its kernel and L_under are fixed before the first iteration
    (see ``step_size``); ``hit_eta_floor`` reports a floored step only if
    the run took one.  An audited step's ``bregman_prev``, D(x_{k-1}, x_k),
    is the previous step's Bregman step, 0 at k = 0.  The run stops early
    once the per-epoch mean Bregman step stays below ``stop_tol`` for 3
    consecutive epochs.  SARAH restarts once per epoch in expectation.
    """
    cfg = cfg.resolved()
    _validate_start(problem, x0)
    n = problem.n_samples
    batch = effective_batch_size(cfg.batch_size, n)
    steps_per_epoch = 1 if cfg.estimator == "full" else math.ceil(n / batch)

    (est_rng,) = spawn_rngs(cfg.seed, 1)
    estimator = make_estimator(cfg.estimator, problem, batch, rng=est_rng)
    eta, l_eff, floored = step_size(problem, cfg)
    kern = problem.kernel(eta)

    # (U^T M, M V^T) at x_k and x_{k-1}, for full-gradient runs only
    full = cfg.estimator == "full"
    prods = problem.data_products(x0) if full else None
    x0_feasible = problem.is_feasible(x0)
    value = problem.objective if x0_feasible else problem.smooth_value
    obj0 = value(x0, prods)
    trace = [
        IterationTrace(
            epoch=0,
            objective=obj0,
            bregman_step=0.0,
            eta=1.0,  # an upper bound on the step, not a step taken
            beta=0.0,
            wall_ms=0.0,
            feasible=x0_feasible,
        )
    ]

    result = RunResult(x=x0, trace=trace, hit_eta_floor=floored and cfg.max_epochs > 0)
    if cfg.keep_iterates:
        result.iterates = [x0]

    x_km1 = x0
    x_k = x0
    s_k, psi_k = x0.norm_sq(), kernel_value(kern, x0)  # |x_k|^2, psi(x_k)
    prods_prev = prods
    d_last = 0.0  # D(x_{k-1}, x_k), from the last step
    k_global = 0
    quiet_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t_start = time.perf_counter()
        ep_d: list[float] = []
        ep_eta: list[float] = []
        ep_beta: list[float] = []
        audit_epoch = cfg.audit_every > 0 and epoch % cfg.audit_every == 0

        for step in range(steps_per_epoch):
            last = step == steps_per_epoch - 1
            audited = cfg.audit_per_iteration or (last and audit_epoch)
            x_bar, beta = extrapolate(x_k, x_km1, k_global, cfg, kern, eta, l_eff, d_last)
            try:
                if full:
                    prods_bar = _extrapolated(prods, prods_prev, beta)
                    g = estimator.estimate(x_bar, prods_bar)
                else:
                    g = estimator.estimate(x_bar)
                s_bar = s_k if x_bar is x_k else x_bar.norm_sq()
                x_next = problem.prox_step(g, x_bar, eta, kernel=kern, sq_norm=s_bar)
                prods_next = problem.data_products(x_next) if full else None
                if audited:  # the objective and grad f(x_next) for the witness
                    obj, g_next = problem._objective_and_gradient(x_next, prods_next)
                elif last:  # only the trace reads it
                    obj = problem.objective(x_next, prods_next)
                if (last or audited) and not math.isfinite(obj):
                    raise ArithmeticError("objective became non-finite")
            except (ValueError, ArithmeticError) as exc:
                result.failed = True
                result.message = f"iteration {k_global}: {exc}"
                break

            d_next, psi_next, s_next = _carried_distance(kern, x_k, psi_k, x_next)
            ep_d.append(d_next)
            ep_eta.append(eta)
            ep_beta.append(beta)

            if audited:
                aud = estimator.audit(x_bar, g)
                psi = lyapunov(
                    eta,
                    obj,
                    d_next,
                    d_last,
                    aud.gamma,
                    cfg.epsilon,
                    alpha=problem.weak_convexity,
                )
                wit = _witness(g_next, g, x_bar, s_bar, x_next, s_next, eta, kern)
                step_diff = x_next - x_k
                result.audits.append(
                    AuditRecord(
                        iteration=k_global,
                        epoch=epoch,
                        objective=obj,
                        bregman_step=d_next,
                        bregman_prev=d_last,
                        step_sq=step_diff.norm_sq(),
                        lyapunov=psi,
                        stationarity=wit,
                        gamma=aud.gamma,
                        upsilon=aud.upsilon,
                        realized_sq_error=aud.realized_sq_error,
                        eta=eta,
                        beta=beta,
                    )
                )

            x_km1, x_k, s_k, psi_k = x_k, x_next, s_next, psi_next
            prods_prev, prods = prods, prods_next
            d_last = d_next
            k_global += 1
            if cfg.keep_iterates:
                result.iterates.append(x_next)

        if result.failed:
            break
        step_mean = float(np.mean(ep_d))
        trace.append(
            IterationTrace(
                epoch=epoch,
                objective=obj,
                bregman_step=step_mean,
                eta=float(np.mean(ep_eta)),
                beta=float(np.mean(ep_beta)),
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                feasible=True,
            )
        )
        if step_mean < cfg.stop_tol:
            quiet_epochs += 1
            if quiet_epochs >= _STOP_WINDOW:
                break
        else:
            quiet_epochs = 0

    result.x = x_k
    result.iterations_run = k_global
    return result


@dataclass(frozen=True)
class RateCheckReport:
    """Verdict of the min-step rate bound min_{k<=K} D_k <= 3 Psi_1/(eps K)."""

    passed: bool
    checked_upto: int
    first_violation: int | None
    worst_ratio: float


def rate_check(
    bregman_steps,
    psi1: float,
    epsilon: float,
    k_max: int | None = None,
) -> RateCheckReport:
    """Check the summability rate bound against a recorded step sequence.

    ``bregman_steps[k-1]`` must hold (the mean of) D(x_{k-1}, x_k).  For each
    K up to ``k_max`` the running minimum is compared against
    3 psi1 / (epsilon K) * 1.1.  K beyond the recorded range reuses
    the overall minimum, which is conservative for a converged run.
    """
    d = np.asarray(bregman_steps, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("bregman_steps must be a nonempty 1-D sequence")
    if not (math.isfinite(psi1) and epsilon > 0.0):
        raise ValueError("psi1 must be finite and epsilon positive")
    if k_max is None:
        k_max = d.size
    k = np.arange(1, k_max + 1)
    cur = np.minimum.accumulate(d)[np.minimum(k, d.size) - 1]
    with np.errstate(all="ignore"):  # IEEE results, as Python floats give
        bound = 3.0 * psi1 / (epsilon * k)
        ratio = np.where(bound > 0, cur / bound, np.where(cur > 0, math.inf, 0.0))
        late = cur > bound * (1.0 + _RATE_SLACK)
    first_violation = int(late.argmax()) + 1 if late.any() else None
    # as a running max(worst, ratio) from 0.0: NaN is skipped, -0.0 reads 0.0
    worst = max(0.0, float(np.fmax.reduce(ratio, initial=0.0)))
    return RateCheckReport(first_violation is None, k_max, first_violation, worst)
