"""Deterministic extrapolated descent with a per-iteration Lyapunov audit.

Run BPGE with the conservative theory step size on a small synthetic GNMF
instance, then show that the audited Lyapunov value never increases and
that the best Bregman step obeys the summability rate bound.
"""

import numpy as np

from bregopt import (
    SolverConfig,
    SyntheticSpec,
    build_problem,
    generate_synthetic,
    init_point,
    make_rng,
    rate_check,
    run,
)

m_data, _ = generate_synthetic(
    SyntheticSpec(m=20, d=5, r_true=3, cluster_count=1, noise_sigma=0.0),
    make_rng(41),
)
problem = build_problem("gnmf", m_data, 3)
x0 = init_point(20, 3, 5, make_rng(42))

cfg = SolverConfig(
    algorithm="bpge",
    beta_mode="safeguarded",
    strict_theory_stepsize=True,
    max_epochs=120,
    stop_tol=0.0,
    audit_per_iteration=True,
    seed=43,
)
result = run(problem, cfg, x0)

print("iter   objective     lyapunov      bregman step   eta      beta")
for audit in result.audits[:: max(1, len(result.audits) // 12)]:
    print(f"{audit.iteration:4d}   {audit.objective:10.6f}   {audit.lyapunov:10.6f}"
          f"   {audit.bregman_step:.6e}   {audit.eta:.4f}   {audit.beta:.3f}")

psi = np.array([a.lyapunov for a in result.audits])
increases = int(np.sum(np.diff(psi) > 1e-9 * (1.0 + np.abs(psi[1:]))))
print(f"\nlyapunov increases across {psi.size} iterations: {increases}")

report = rate_check([a.bregman_step for a in result.audits], result.psi1, cfg.epsilon)
print(f"rate bound min_k D <= 3 psi_1 / (eps K): passed={report.passed}, "
      f"worst ratio {report.worst_ratio:.2e}")
