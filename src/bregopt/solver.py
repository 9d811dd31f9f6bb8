"""The extrapolated Bregman proximal loop and its theory diagnostics.

One iteration: extrapolate the current iterate, query a gradient estimator
at the extrapolated point, pick a step size no larger than the previous one,
and apply the closed-form Bregman proximal step.  Four named variants are
thin restrictions of the same loop:

    bpg    full gradient, no extrapolation
    bpge   full gradient, extrapolation
    bpsg   stochastic estimator, no extrapolation
    bpsge  stochastic estimator, extrapolation

Extrapolation modes: ``scheduled`` uses beta_k = beta_scale * (k-1)/(k+2);
``safeguarded`` starts there and halves beta until the extrapolated point
satisfies the distance-growth inequality

    D_psi(x_k, x_bar_k) <= (delta - eps)/(1 + L_under * eta_{k-1})
                           * D_psi(x_{k-1}, x_k)

that the descent analysis assumes.  With ``strict_theory_stepsize`` the step
is additionally capped by the global smooth-adaptability constant and by
(1 - delta)/(alpha + 2 gamma); under those caps the Lyapunov sequence
computed by ``lyapunov`` is provably nonincreasing for deterministic runs.

Traces are recorded per epoch (means over the epoch's iterations).  Audit
mode additionally records per-iteration theory quantities: the Lyapunov
value, the variance tracker, squared step lengths, and the norm of an
explicit subgradient witness at the new iterate.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import effective_batch_size, make_estimator
from .kernels import FactorPair, KernelSpec, bregman_distance, kernel_gradient
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
_BETA_MODES = ("off", "scheduled", "safeguarded")
_L_UNDER_MODES = ("zero", "equal_to_l_bar")


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run depends on besides the problem and the start point.

    ``batch_size`` 0 means 5% of the columns (at least one).  ``restart_prob``
    None means one expected restart per epoch.  ``theory_alpha`` None defers
    to the problem's weak-convexity modulus.  ``audit_every`` counts epochs
    between audited boundaries; ``audit_per_iteration`` upgrades auditing to
    every inner iteration regardless.
    """

    algorithm: str = "bpsge"
    estimator: str = "saga"
    batch_size: int = 0
    restart_prob: float | None = None
    max_epochs: int = 50
    beta_mode: str = "scheduled"
    beta_scale: float = 0.6
    delta: float = 0.99
    epsilon: float = 0.01
    eta0: float = 1.0
    eta_floor: float = 1e-8
    l_under_mode: str = "equal_to_l_bar"
    strict_theory_stepsize: bool = False
    l_bar: float = 1.0
    theory_alpha: float | None = None
    theory_gamma: float = 0.0
    theory_tau: float = 1.0
    phi_lower_bound: float = 0.0
    stop_tol: float = 1e-12
    stop_window: int = 3
    audit_every: int = 0
    audit_per_iteration: bool = False
    keep_iterates: bool = False
    seed: object = 0

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")
        if self.beta_mode not in _BETA_MODES:
            raise ValueError(f"beta_mode must be one of {_BETA_MODES}")
        if self.l_under_mode not in _L_UNDER_MODES:
            raise ValueError(f"l_under_mode must be one of {_L_UNDER_MODES}")
        if not 0.0 < self.epsilon < self.delta < 1.0:
            raise ValueError(
                f"need 0 < epsilon < delta < 1, got epsilon={self.epsilon}, "
                f"delta={self.delta}"
            )
        if self.beta_scale < 0.0:
            raise ValueError("beta_scale must be >= 0")
        if self.beta_scale >= 1.0 / math.sqrt(2.0):
            warnings.warn(
                f"beta_scale={self.beta_scale} is at or above 1/sqrt(2); the "
                "convergence analysis does not cover such aggressive "
                "extrapolation",
                UserWarning,
                stacklevel=2,
            )
        if not (self.eta0 > 0.0 and math.isfinite(self.eta0)):
            raise ValueError("eta0 must be positive and finite")
        if not 0.0 < self.eta_floor <= self.eta0:
            raise ValueError("need 0 < eta_floor <= eta0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = auto)")
        if self.restart_prob is not None and not 0.0 < self.restart_prob <= 1.0:
            raise ValueError("restart_prob must be in (0, 1]")
        if self.l_bar <= 0.0:
            raise ValueError("l_bar must be > 0")
        if self.theory_gamma < 0.0 or self.theory_tau <= 0.0:
            raise ValueError("theory_gamma must be >= 0 and theory_tau > 0")
        if not math.isfinite(self.phi_lower_bound):
            raise ValueError("phi_lower_bound must be finite")
        if self.stop_tol < 0.0:
            raise ValueError("stop_tol must be >= 0")
        if self.stop_window < 1:
            raise ValueError("stop_window must be >= 1")
        if self.audit_every < 0:
            raise ValueError("audit_every must be >= 0")

    def resolved(self) -> "SolverConfig":
        """Apply the algorithm's restrictions: deterministic variants force
        the full-gradient estimator, non-extrapolated ones force beta off."""
        cfg = self
        if cfg.algorithm in ("bpg", "bpge") and cfg.estimator != "full":
            cfg = replace(cfg, estimator="full")
        if cfg.algorithm in ("bpg", "bpsg") and cfg.beta_mode != "off":
            cfg = replace(cfg, beta_mode="off")
        return cfg


@dataclass(frozen=True)
class IterationTrace:
    """One per-epoch trace row; scalar fields are epoch means.

    Audit fields (``lyapunov``, ``stationarity``, ``gamma_audit``) hold the
    epoch-boundary values and are NaN when auditing is off.  ``feasible`` can
    only be False on the epoch-0 row (a sparsity-infeasible start point), in
    which case ``objective`` holds the smooth part only.
    """

    epoch: int
    objective: float
    bregman_step: float
    lyapunov: float
    stationarity: float
    eta: float
    beta: float
    gamma_audit: float
    wall_ms: float
    feasible: bool = True


@dataclass(frozen=True)
class AuditRecord:
    """Per-iteration theory quantities (audit mode only)."""

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
    x: FactorPair
    trace: list[IterationTrace]
    audits: list[AuditRecord] = field(default_factory=list)
    failed: bool = False
    message: str = ""
    psi1: float = math.nan
    hit_eta_floor: bool = False
    iterations_run: int = 0
    iterates: list[FactorPair] | None = None


def _scheduled_beta(k: int, scale: float) -> float:
    return max(0.0, scale * (k - 1) / (k + 2))


def extrapolate(
    x_k: FactorPair,
    x_km1: FactorPair,
    k: int,
    cfg: SolverConfig,
    kernel: KernelSpec,
    eta_prev: float,
    l_under: float,
) -> tuple[FactorPair, float]:
    """Extrapolated point and the beta actually used at iteration k.

    Safeguarded mode halves the scheduled beta (at most 50 times, then 0)
    until the distance-growth inequality holds; if the last two iterates
    coincide the right-hand side is zero and beta collapses to 0.
    """
    if cfg.beta_mode == "off" or k == 0:
        return x_k, 0.0
    beta = _scheduled_beta(k, cfg.beta_scale)
    if beta == 0.0:
        return x_k, 0.0
    du = x_k.u - x_km1.u
    dv = x_k.v - x_km1.v
    if not (du.any() or dv.any()):
        return x_k, 0.0
    if cfg.beta_mode == "scheduled":
        return FactorPair(x_k.u + beta * du, x_k.v + beta * dv), beta

    d_base = max(bregman_distance(kernel, x_km1, x_k), 0.0)
    bound = (cfg.delta - cfg.epsilon) / (1.0 + l_under * eta_prev) * d_base
    for _ in range(50):
        x_bar = FactorPair(x_k.u + beta * du, x_k.v + beta * dv)
        if bregman_distance(kernel, x_k, x_bar) <= bound:
            return x_bar, beta
        beta *= 0.5
    return x_k, 0.0


def step_size(
    problem: Problem,
    x_bar: FactorPair,
    eta_prev: float,
    cfg: SolverConfig,
    alpha: float | None = None,
) -> tuple[float, float, bool]:
    """(eta_k, effective upper constant, floor hit?) at the extrapolated point.

    eta_k = min(eta_prev, 1 / L_k) with L_k the exact blockwise curvature
    from ``problem.local_lipschitz`` (clamped below at 1e-12).  Strict mode
    additionally caps by the global constant ``l_bar`` and by
    (1 - delta)/(alpha + 2 gamma).  The step never drops below
    ``eta_floor``; hitting the floor is reported to the caller.
    """
    l_k = problem.local_lipschitz(x_bar)
    l_eff = l_k
    eta = min(eta_prev, 1.0 / max(l_k, 1e-12))
    if cfg.strict_theory_stepsize:
        l_eff = max(l_k, cfg.l_bar)
        eta = min(eta, 1.0 / cfg.l_bar)
        if alpha is None:
            alpha = problem.weak_convexity
        denom = alpha + 2.0 * cfg.theory_gamma
        if denom > 0.0:
            eta = min(eta, (1.0 - cfg.delta) / denom)
    floored = eta < cfg.eta_floor
    return max(eta, cfg.eta_floor), l_eff, floored


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
    phi_lower_bound: float = 0.0,
) -> float:
    """Lyapunov value after a step.

    eta (Phi(x_{k+1}) - lower bound) + t_k D(x_k, x_{k+1})
      + (eta gamma / 2 + epsilon / 3) D(x_{k-1}, x_k)
      + eta Gamma_{k+1} / (2 tau gamma)

    with t_k = 1 - eta alpha - eta gamma - epsilon/3; the tracker term is
    defined to vanish when gamma == 0 (exact-gradient case).
    """
    t_k = 1.0 - eta * alpha - eta * gamma - epsilon / 3.0
    psi = (
        eta * (phi_next - phi_lower_bound)
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
) -> float:
    """Norm of the explicit subgradient witness at the new iterate.

    w = grad f(x_{k+1}) - grad_used + (grad psi(x_bar) - grad psi(x_{k+1}))/eta
    lies in the subdifferential of the objective at x_{k+1} by the proximal
    optimality condition; its norm certifies approximate stationarity.
    """
    w = (
        problem.full_gradient(x_next)
        - grad_used
        + (kernel_gradient(kernel, x_bar) - kernel_gradient(kernel, x_next)).scale(
            1.0 / eta
        )
    )
    return w.norm()


def _validate_start(problem: Problem, x0: FactorPair):
    if x0.shape != problem.shape:
        raise ValueError(f"x0 shape {x0.shape} != problem shape {problem.shape}")
    if problem.kind == "gnmf" and not problem.is_feasible(x0):
        raise ValueError("gnmf requires a nonnegative start point")
    if problem.kind == "ssnmf" and (x0.u.min() < -1e-12 or x0.v.min() < -1e-12):
        # A dense nonnegative start is fine: the first proximal step lands on
        # the sparsity-feasible set.  Negative entries are not.
        raise ValueError("ssnmf requires a nonnegative start point")


def run(problem: Problem, cfg: SolverConfig, x0: FactorPair) -> RunResult:
    """Execute the configured variant from x0; see the module docstring.

    Returns the final point with per-epoch traces (epoch 0 is the start
    state), per-iteration audit records when auditing is enabled, and a
    failure flag with partial traces if the objective turns non-finite.
    The run stops early once the per-epoch mean Bregman step stays below
    ``stop_tol`` for ``stop_window`` consecutive epochs.
    """
    cfg = cfg.resolved()
    _validate_start(problem, x0)
    n = problem.n_samples
    batch = effective_batch_size(cfg.batch_size, n)
    steps_per_epoch = 1 if cfg.estimator == "full" else math.ceil(n / batch)

    (est_rng,) = spawn_rngs(cfg.seed, 1)
    estimator = make_estimator(
        cfg.estimator, problem, batch, cfg.restart_prob, est_rng
    )
    if hasattr(estimator, "initialize"):
        estimator.initialize(x0)

    alpha = cfg.theory_alpha if cfg.theory_alpha is not None else problem.weak_convexity

    x0_feasible = problem.is_feasible(x0)
    obj0 = problem.objective(x0) if x0_feasible else problem.smooth_value(x0)
    trace = [
        IterationTrace(
            epoch=0,
            objective=obj0,
            bregman_step=0.0,
            lyapunov=math.nan,
            stationarity=math.nan,
            eta=cfg.eta0,
            beta=0.0,
            gamma_audit=math.nan,
            wall_ms=0.0,
            feasible=x0_feasible,
        )
    ]

    result = RunResult(x=x0, trace=trace)
    if cfg.keep_iterates:
        result.iterates = [x0]
    if cfg.max_epochs == 0:
        return result

    x_km1 = x0
    x_k = x0
    eta_prev = cfg.eta0
    l_prev = 0.0  # no curvature estimate exists before the first step
    k_global = 0
    quiet_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t_start = time.perf_counter()
        ep_obj: list[float] = []
        ep_d: list[float] = []
        ep_eta: list[float] = []
        ep_beta: list[float] = []
        boundary = (math.nan, math.nan, math.nan)  # lyapunov, witness, gamma

        for step in range(steps_per_epoch):
            kern_prev = problem.kernel(eta_prev)
            l_under = 0.0 if cfg.l_under_mode == "zero" else l_prev
            x_bar, beta = extrapolate(
                x_k, x_km1, k_global, cfg, kern_prev, eta_prev, l_under
            )
            try:
                g = estimator.estimate(x_bar)
                eta, l_eff, floored = step_size(problem, x_bar, eta_prev, cfg, alpha)
                if floored:
                    result.hit_eta_floor = True
                kern = problem.kernel(eta)
                x_next = problem.prox_step(kern, g, x_bar, eta)
                obj = problem.objective(x_next)
            except (ValueError, ArithmeticError) as exc:
                result.failed = True
                result.message = f"iteration {k_global}: {exc}"
                break
            if not math.isfinite(obj):
                result.failed = True
                result.message = (
                    f"iteration {k_global}: objective became non-finite"
                )
                break

            d_next = bregman_distance(kern, x_k, x_next)
            ep_obj.append(obj)
            ep_d.append(d_next)
            ep_eta.append(eta)
            ep_beta.append(beta)

            is_boundary = step == steps_per_epoch - 1 and (
                cfg.audit_every > 0 and epoch % cfg.audit_every == 0
            )
            if cfg.audit_per_iteration or is_boundary:
                aud = estimator.audit(x_bar, g)
                d_prev = bregman_distance(kern, x_km1, x_k)
                psi = lyapunov(
                    eta,
                    obj,
                    d_next,
                    d_prev,
                    aud.gamma if aud.gamma is not None else math.nan,
                    cfg.epsilon,
                    alpha=alpha,
                    gamma=cfg.theory_gamma,
                    tau=cfg.theory_tau,
                    phi_lower_bound=cfg.phi_lower_bound,
                )
                wit = stationarity_witness(problem, x_next, x_bar, g, eta, kern)
                step_diff = x_next - x_k
                result.audits.append(
                    AuditRecord(
                        iteration=k_global,
                        epoch=epoch,
                        objective=obj,
                        bregman_step=d_next,
                        bregman_prev=d_prev,
                        step_sq=step_diff.norm_sq(),
                        lyapunov=psi,
                        stationarity=wit,
                        gamma=aud.gamma if aud.gamma is not None else math.nan,
                        upsilon=aud.upsilon if aud.upsilon is not None else math.nan,
                        realized_sq_error=(
                            aud.realized_sq_error
                            if aud.realized_sq_error is not None
                            else math.nan
                        ),
                        eta=eta,
                        beta=beta,
                    )
                )
                if k_global == 0:
                    result.psi1 = psi
                boundary = (psi, wit, result.audits[-1].gamma)

            x_km1, x_k = x_k, x_next
            eta_prev = eta
            l_prev = l_eff
            k_global += 1
            if cfg.keep_iterates:
                result.iterates.append(x_next)

        if ep_obj:
            wall_ms = (time.perf_counter() - t_start) * 1e3
            trace.append(
                IterationTrace(
                    epoch=epoch,
                    objective=float(np.mean(ep_obj)),
                    bregman_step=float(np.mean(ep_d)),
                    lyapunov=boundary[0],
                    stationarity=boundary[1],
                    eta=float(np.mean(ep_eta)),
                    beta=float(np.mean(ep_beta)),
                    gamma_audit=boundary[2],
                    wall_ms=wall_ms,
                    feasible=True,
                )
            )
        if result.failed:
            break
        if float(np.mean(ep_d)) < cfg.stop_tol:
            quiet_epochs += 1
            if quiet_epochs >= cfg.stop_window:
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
    slack: float = 0.1,
) -> RateCheckReport:
    """Check the summability rate bound against a recorded step sequence.

    ``bregman_steps[k-1]`` must hold (the mean of) D(x_{k-1}, x_k).  For each
    K up to ``k_max`` the running minimum is compared against
    3 psi1 / (epsilon K) * (1 + slack).  K beyond the recorded range reuses
    the overall minimum, which is conservative for a converged run.
    """
    d = np.asarray(bregman_steps, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("bregman_steps must be a nonempty 1-D sequence")
    if not math.isfinite(psi1):
        raise ValueError("psi1 must be finite")
    if k_max is None:
        k_max = d.size
    running = np.minimum.accumulate(d)
    passed = True
    first_violation = None
    worst = 0.0
    for k in range(1, k_max + 1):
        cur = running[min(k, d.size) - 1]
        bound = 3.0 * psi1 / (epsilon * k)
        ratio = cur / bound if bound > 0 else math.inf if cur > 0 else 0.0
        worst = max(worst, ratio)
        if cur > bound * (1.0 + slack):
            passed = False
            if first_violation is None:
                first_violation = k
    return RateCheckReport(passed, k_max, first_violation, worst)
