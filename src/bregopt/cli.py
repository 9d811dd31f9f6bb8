"""Command line front-end.

Verbs: run (one configuration, multiple trials), compare (variant grid on
shared data and start points), audit (per-iteration theory checks), gen
(materialize a synthetic instance), selftest (fast built-in oracle checks).

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure,
3 partial results (some trials failed but at most half).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .estimators import estimate_sample_lipschitz, make_estimator
from .harness import ConfigError, ExperimentConfig, MatrixParseError
from .kernels import FactorPair, KernelSpec, kernel_gradient, kernel_value
from .numeric import cubic_root, make_rng
from .problems import build_knn_laplacian, build_problem, factored_sq_diffs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _parse_set(items):
    """['a.b.c=3', ...] as nested dict updates; values parse as JSON when
    possible and fall back to plain strings."""
    updates = []
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        updates.append((key.split("."), value))
    return updates


def _apply_updates(cfg_dict: dict, updates) -> dict:
    for path, value in updates:
        node = cfg_dict
        for part in path[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            elif not isinstance(nxt, dict):
                raise ConfigError(
                    f"--set path {'.'.join(path)!r} crosses non-object {part!r}"
                )
            node = nxt
        node[path[-1]] = value
    return cfg_dict


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {args.config} is not valid JSON: {exc}"
            ) from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    else:
        raw = {}
    raw = _apply_updates(raw, _parse_set(args.set))
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    return ExperimentConfig.from_dict(raw)


def _finish(summary, paths, quiet: bool) -> int:
    if not quiet:
        for p in paths:
            print(f"wrote {p}")
    status = summary.get("status", "ok")
    if status == "ok":
        return EXIT_OK
    if status == "partial":
        print("warning: some trials failed", file=sys.stderr)
        return EXIT_PARTIAL
    print("error: run failed", file=sys.stderr)
    for msg in summary.get("failure_messages", []):
        print(f"  {msg}", file=sys.stderr)
    return EXIT_NUMERIC


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    summary, paths = harness.run_experiment(cfg)
    if not args.quiet:
        obj = summary.get("final_objective_mean")
        if obj is not None:
            print(f"final objective (mean over trials): {obj:.6g}")
        if "accuracy_mean" in summary:
            print(f"clustering accuracy (mean): {summary['accuracy_mean']:.4f}")
    return _finish(summary, paths, args.quiet)


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    summary, paths = harness.run_compare(cfg)
    if not args.quiet:
        for tag, combo in sorted(summary["combos"].items()):
            obj = combo.get("final_objective_mean")
            shown = "failed" if obj is None else f"{obj:.6g}"
            print(f"{tag:>14s}: final objective {shown}")
    return _finish(summary, paths, args.quiet)


def _cmd_audit(args) -> int:
    cfg = _load_config(args)
    report, paths = harness.run_audit(cfg)
    if not args.quiet:
        if "lyapunov" in report:
            ly = report["lyapunov"]
            print(f"lyapunov: {ly['violations']}/{ly['checked']} violations")
        if "rate" in report:
            print(f"rate bound: {'pass' if report['rate']['passed'] else 'FAIL'}")
        if "decay" in report:
            dec = report["decay"]
            print(
                f"decay: violation fraction {dec['violation_fraction']:.3f} "
                f"({'pass' if dec['passed'] else 'FAIL'})"
            )
        if not report["exact_hypotheses"]:
            print("note: heuristic regime, theory checks are informational")
    return _finish(report, paths, args.quiet)


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    info, paths = harness.run_gen(cfg, fmt=args.format)
    return _finish({"status": "ok", **info}, paths, args.quiet)


# ---------------------------------------------------------------------------
# selftest: quick oracle checks that need no fixtures


def _bisect_root(a, b, lo=0.0, hi=None, iters=200):
    if hi is None:
        hi = 1.0 / b
        while a * hi**3 + b * hi - 1.0 < 0.0:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if a * mid**3 + b * mid - 1.0 <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _selftest_cubic(rng) -> str | None:
    for _ in range(500):
        a = float(rng.uniform(0.0, 50.0))
        b = float(rng.uniform(1e-6, 50.0))
        t = cubic_root(a, b)
        ref = _bisect_root(a, b)
        if abs(t - ref) > 1e-9 * max(1.0, ref):
            return f"cubic_root({a}, {b}) = {t}, bisection says {ref}"
    return None


def _selftest_kernel_gradient(rng) -> str | None:
    h = 1e-6
    for _ in range(10):
        spec = KernelSpec(
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        x = FactorPair(rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (2, 4)))
        g = kernel_gradient(spec, x)
        for which in ("u", "v"):
            arr = getattr(x, which)
            garr = getattr(g, which)
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            up, dn = arr.copy(), arr.copy()
            up[idx] += h
            dn[idx] -= h
            if which == "u":
                fup, fdn = FactorPair(up, x.v), FactorPair(dn, x.v)
            else:
                fup, fdn = FactorPair(x.u, up), FactorPair(x.u, dn)
            num = (kernel_value(spec, fup) - kernel_value(spec, fdn)) / (2 * h)
            if abs(num - garr[idx]) > 1e-4 * (1.0 + abs(num)):
                return f"kernel gradient mismatch: {num} vs {garr[idx]}"
    return None


def _selftest_prox(rng) -> str | None:
    m_data = rng.uniform(0.1, 1.0, (5, 6))
    problems = [
        build_problem("gnmf", m_data, 2),
        build_problem("wcmf", m_data, 2, lambda1=0.1, lambda2=0.05),
        build_problem("ssnmf", m_data, 2, s1=3, s2=4),
    ]
    for prob in problems:
        x_bar = FactorPair(rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (2, 6)))
        eta = 0.3
        kern = prob.kernel(eta)
        g = prob.full_gradient(x_bar)
        best = prob.prox_step(g, x_bar, eta)
        val = prob.prox_model_value(kern, g, x_bar, eta, best)
        for _ in range(300):
            cand = FactorPair(
                np.maximum(best.u + 0.05 * rng.standard_normal(best.u.shape), 0.0),
                np.maximum(best.v + 0.05 * rng.standard_normal(best.v.shape), 0.0),
            )
            cval = prob.prox_model_value(kern, g, x_bar, eta, cand)
            if cval < val - 1e-8 * (1.0 + abs(val)):
                return f"prox is not a model minimizer for {type(prob).__name__}"
    return None


def _selftest_estimators(rng) -> str | None:
    m_data = rng.uniform(0.1, 1.0, (4, 8))
    prob = build_problem("gnmf", m_data, 2)
    x = FactorPair(rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (2, 8)))
    full = prob.full_gradient(x)

    saga = make_estimator("saga", prob, batch_size=prob.n_samples, rng=make_rng(7))
    saga.initialize(x)
    g = saga.estimate(x)
    if not (np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)):
        return "SAGA with b = n is not bitwise equal to the full gradient"

    sarah = make_estimator(
        "sarah", prob, batch_size=2, restart_prob=1.0, rng=make_rng(7)
    )
    g = sarah.estimate(x)
    if not (np.array_equal(g.u, full.u) and np.array_equal(g.v, full.v)):
        return "SARAH with restart probability 1 is not bitwise full"

    # Exhaustive mean of minibatch draws equals the full gradient.
    import itertools

    n, b = prob.n_samples, 2
    acc = FactorPair(np.zeros_like(x.u), np.zeros_like(x.v))
    count = 0
    for combo in itertools.combinations(range(n), b):
        g = prob.minibatch_data_gradient(x, np.array(combo))
        acc = acc + g
        count += 1
    acc = acc.scale(1.0 / count)
    data = prob.data_gradient(x)
    err = max(np.abs(acc.u - data.u).max(), np.abs(acc.v - data.v).max())
    if err > 1e-10:
        return f"minibatch estimator is biased: max deviation {err}"
    return None


def _selftest_data_gradient(rng) -> str | None:
    m_data = rng.uniform(0.1, 1.0, (6, 7))
    prob = build_problem("wcmf", m_data, 3, lambda1=0.1, lambda2=0.05)
    x = FactorPair(rng.standard_normal((6, 3)), rng.standard_normal((3, 7)))
    g = prob.data_gradient(x)
    r = x.u @ x.v - m_data
    for got, want in ((g.u, r @ x.v.T), (g.v, x.u.T @ r)):
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        if err > 1e-12:
            return f"data gradient deviates from the residual form by {err:.3g}"
    return None


def _selftest_graph_product(rng) -> str | None:
    # 200 rows give a 5-NN Laplacian about 4% nonzero, under the 5% rule.
    m_data = rng.uniform(0.1, 1.0, (200, 10))
    lap = build_knn_laplacian(m_data, p_neighbors=5)
    prob = build_problem("gnmf", m_data, 3, mu0=0.4, laplacian=lap)
    if isinstance(prob.laplacian, np.ndarray):
        return "a 5-NN Laplacian at m = 200 is not applied as a sparse matrix"
    u = rng.uniform(0.0, 1.0, (200, 3))
    want = 0.4 * (lap @ u)
    err = np.linalg.norm(prob._graph_gradient(u) - want) / np.linalg.norm(want)
    if err > 1e-12:
        return f"sparse graph gradient deviates from the dense product by {err:.3g}"
    return None


def _selftest_sample_lipschitz(rng) -> str | None:
    m_data = rng.uniform(0.1, 1.0, (8, 30))
    prob = build_problem("gnmf", m_data, 3)
    points = [
        FactorPair(rng.uniform(0, 1, (8, 3)), rng.uniform(0, 1, (3, 30)))
        for _ in range(20)
    ]
    want = 0.0
    for prev, cur in zip(points, points[1:]):
        sq = factored_sq_diffs(prob.gradient_table(cur), prob.gradient_table(prev))
        want = max(want, float(np.sqrt(sq.max())) / (cur - prev).norm())
    got = estimate_sample_lipschitz(prob, points)
    if got != want:
        return f"the sweep gives {got!r}, the pairwise loop {want!r}"
    return None


def _cmd_selftest(args) -> int:
    rng = make_rng(0)
    checks = [
        ("cubic root vs bisection", _selftest_cubic),
        ("kernel gradient vs finite differences", _selftest_kernel_gradient),
        ("prox minimizes its model", _selftest_prox),
        ("estimator identities", _selftest_estimators),
        ("data gradient vs residual form", _selftest_data_gradient),
        ("graph product: sparse vs dense", _selftest_graph_product),
        ("sample-Lipschitz sweep vs pairwise", _selftest_sample_lipschitz),
    ]
    failures = 0
    for name, fn in checks:
        msg = fn(rng)
        if msg is None:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: {msg}")
            failures += 1
    if failures:
        print(f"{failures} selftest check(s) failed", file=sys.stderr)
        return EXIT_NUMERIC
    print("all selftest checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON experiment config")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry by dotted path, e.g. solver.max_epochs=40",
    )
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--out", help="output directory override")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> _Parser:
    parser = _Parser(prog="bregopt", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb, fn, text in (
        ("run", _cmd_run, "run one solver configuration over several trials"),
        ("compare", _cmd_compare, "run a variant grid on shared start points"),
        ("audit", _cmd_audit, "per-iteration checks of the convergence theory"),
        ("gen", _cmd_gen, "write the configured synthetic instance to disk"),
    ):
        sub = subs.add_parser(verb, help=text)
        _add_common(sub)
        if verb == "gen":
            sub.add_argument(
                "--format", choices=("csv", "mm"), default="csv",
                help="matrix file format",
            )
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("selftest", help="run fast built-in oracle checks")
    sub.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MatrixParseError) as exc:
        print(f"bregopt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"bregopt: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
