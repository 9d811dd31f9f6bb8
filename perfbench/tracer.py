"""Span tracing of bregopt from outside the package.

``Tracer.install`` replaces the public functions of each bregopt module, and
the public methods of its public classes (names without a leading
underscore, defined in that module), with wrappers that record a span
per call: name, duration, and the time covered by its child spans.  Every
module attribute bound to a traced function is replaced, so a call through
``from .numeric import cubic_root`` in another module is traced too.
``Tracer.uninstall`` puts the originals back.  No file under ``src/`` changes.

Spans are kept as per-name aggregates in memory: calls, total time and self
time (span time minus the time of its direct child spans).  The wrappers of
the data-pass functions also count work from their call arguments: a full
pass counts n samples, a batch counts ``len(idx)``, and the dense flops are
computed from the array shapes.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("numeric", "kernels", "problems", "estimators", "solver", "harness", "cli")

# Spans whose subtree is audit work, and spans whose subtree is the work an
# estimator does to produce its estimate.
_AUDIT_SPANS = frozenset(
    (
        "estimators.FullGradient.audit",
        "estimators.MinibatchSGD.audit",
        "estimators.SAGA.audit",
        "estimators.SARAH.audit",
        "estimators.estimate_sample_lipschitz",
        "solver.stationarity_witness",
    )
)
_ESTIMATE_SPANS = frozenset(
    (
        "estimators.FullGradient.estimate",
        "estimators.MinibatchSGD.estimate",
        "estimators.SAGA.estimate",
        "estimators.SARAH.estimate",
        "estimators.SAGA.initialize",
    )
)


def _graph_flops(problem) -> int:
    """Flops of the Laplacian product L @ U, or 0 without a graph term."""
    if getattr(problem, "laplacian", None) is None or problem.mu0 == 0.0:
        return 0
    m, r, _ = problem.shape
    return 2 * m * m * r


def _full_samples(args):
    return args[0].n_samples


def _batch_samples(args):
    return len(args[2])


# name -> (samples, flops): samples from the call arguments (self first),
# flops from the shapes (m, r, d) and the sample count b.
_GRADIENT_WORK = {
    # residual U V - M, then r V^T and U^T r
    "problems.data_gradient": (_full_samples, lambda m, r, d, b: 6 * m * r * d + m * d),
    # residual over all columns, then U^T a
    "problems.gradient_table": (_full_samples, lambda m, r, d, b: 4 * m * r * d + 2 * m * d),
    "problems.batch_table": (_batch_samples, lambda m, r, d, b: 4 * m * r * b + 2 * m * b),
    "problems.minibatch_data_gradient": (
        _batch_samples,
        lambda m, r, d, b: 6 * m * r * b + m * b,
    ),
}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-name span aggregates plus work counters for one traced phase."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.samples = defaultdict(float)  # "estimator" | "audit" | "other" -> samples / n
        self.objective_passes = 0
        self.sarah_restarts = 0
        self.flops = 0
        self.flop_seconds = 0.0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: getattr(package, name) for name in MODULES}
        replace = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue  # private, or imported from elsewhere
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None and inspect.isfunction(val):
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap_class(self, short: str, cls) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            elif short == "problems":
                # The three problem kinds share one interface; their methods
                # are reported together under the method name.
                name = f"{short}.{attr}"
            else:
                name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue  # properties and class attributes stay as they are
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        stat = self.stats[name]
        work = self._work_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            if work is not None:
                work(args, stack)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if work is not None:
                    self.flop_seconds += dt

        return traced

    def _work_hook(self, name: str):
        """Counter updates made on entry to the data-pass functions."""
        if name == "problems.smooth_value":

            def objective_pass(args, stack):
                problem = args[0]
                m, r, d = problem.shape
                self.objective_passes += 1
                self.flops += 2 * m * r * d + 3 * m * d + _graph_flops(problem)

            return objective_pass
        if name not in _GRADIENT_WORK:
            return None
        count, flops = _GRADIENT_WORK[name]

        def gradient_pass(args, stack):
            problem = args[0]
            m, r, d = problem.shape
            b = count(args)
            self.flops += flops(m, r, d, b)
            names = {frame[0] for frame in stack}
            if names & _AUDIT_SPANS:
                where = "audit"
            elif names & _ESTIMATE_SPANS:
                where = "estimator"
            else:
                where = "other"
            self.samples[where] += b / problem.n_samples
            if name == "problems.data_gradient" and stack and (
                stack[-1][0] == "estimators.SARAH.estimate"
            ):
                self.sarah_restarts += 1

        return gradient_pass

    # -- reading -----------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Time covered by spans with no traced parent: the self times of
        all spans add up to exactly that."""
        return sum(s.self_time for s in self.stats.values())

