"""Command line front-end.

Verbs: run (one configuration, multiple trials), compare (variant grid on
shared data and start points), audit (per-iteration theory checks), gen
(materialize a synthetic instance).

Exit codes: 0 success, 1 configuration or usage error (including an input
file that is missing or unreadable, a Laplacian file that is not a valid
Laplacian, or an output path that cannot be made), 2 numerical failure,
3 partial results (some trials failed but at most half).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness
from .harness import ConfigError, ExperimentConfig

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


@functools.cache
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        # An OSError's message names the path it failed on.
        print(f"bregopt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"bregopt: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
