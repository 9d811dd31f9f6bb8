"""A fixed reference kernel, timed next to every workload body.

The shared VM this benchmark was built on changes speed by up to 2x for
minutes at a time, and every kind of work slows together.  Dividing a body's
time by the time of this kernel, measured just before and just after it in
the same process, cancels most of that drift.  The kernel mixes the kinds of
work the workloads do: Python calls and small objects, small numpy
operations at desk scale, BLAS and elementwise passes at 500x1000 into
preallocated outputs, and page faults on freshly mapped memory.  It does not
use bregopt, so no change to the library moves it.

A time divided by the kernel's time and multiplied by ``QUIET_SECONDS`` is
in reference seconds: what the time would have been on that VM with
nothing else running.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_BIG = _rng.random((500, 1000))
_THIN = _rng.random((1000, 10))
_SMALL = _rng.random((60, 40))
_FACTOR = _rng.random((40, 5))
_BIG_OUT = np.empty_like(_BIG)
_THIN_OUT = np.empty((500, 10))
_MAPPED_BYTES = b"\1" * (4 << 20)
# The kernel's time on the 2-vCPU Xeon VM the benchmark was built on, in its
# fastest stretches.  A fixed scale: it changes no comparison between runs.
QUIET_SECONDS = 0.065


class _Point:
    def __init__(self, x: float):
        self.x = x

    def step(self, y: float) -> float:
        return self.x + y


def seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = perf_counter()
    p = _Point(1.0)
    acc = 0.0
    for _ in range(60_000):
        acc = p.step(acc) * 0.5
        p = _Point(acc)
    for _ in range(1500):
        _SMALL @ _FACTOR
        np.maximum(_SMALL, 0.1).sum()
    for _ in range(12):
        np.matmul(_BIG, _THIN, out=_THIN_OUT)
        np.multiply(_BIG, 0.5, out=_BIG_OUT)
    for _ in range(6):
        with mmap.mmap(-1, len(_MAPPED_BYTES)) as m:
            m.write(_MAPPED_BYTES)
    return perf_counter() - t0
