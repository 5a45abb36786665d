"""Machine-speed calibration for a host whose cores are shared.

On a virtual machine that shares cores with other tenants the same work
can take up to twice as long from one minute to the next. The benchmark
therefore times a fixed probe, which does not touch gkplat, next to the
work it measures, and reports calibrated seconds:

    calibrated = raw seconds * nominal / median probe seconds

that is, the time on a machine where the probe takes its nominal time.
A change to gkplat moves a calibrated time exactly as much as the raw
one; drift of the host slows the work and the probe alike and cancels.
The raw seconds and the factor are kept in the report. Where the timed
work runs in child processes, the benchmark pins itself and so its
children to one CPU while it measures, so that the probe and the work see
the same core.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np


def _python_probe():
    """Interpreter-bound work: rational arithmetic and an integer loop."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    s = 0
    for i in range(60_000):
        s += i * i
    return total, s


def _numpy_probe():
    """Kernel-bound work: normal draws, rounding and integer reductions."""
    gen = np.random.Generator(np.random.PCG64(1))
    a = gen.standard_normal((1 << 16, 4))
    k = np.rint(a * 3.0)
    return float((a - k).sum()), int((k.astype(np.int64) % 7).sum())


# probe and its nominal seconds (about its median on a 2-core Xeon VM)
PROBES = {"python": (_python_probe, 0.0070), "numpy": (_numpy_probe, 0.0120)}


class Calibration:
    def __init__(self, kind: str):
        self.kind = kind
        self._fn, self.nominal = PROBES[kind]

    def probe(self, repeat: int = 1) -> list[float]:
        """Seconds of ``repeat`` probe runs."""
        # collection time grows with the heap the program leaves behind,
        # which must not move the probe
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                self._fn()
                times.append(time.perf_counter() - t0)
            return times
        finally:
            if enabled:
                gc.enable()

    def factor(self, probes) -> float:
        """Multiply raw seconds by this to get calibrated seconds."""
        return self.nominal / statistics.median(probes)


@contextmanager
def one_cpu():
    """Run this process, and the children it starts meanwhile, on one CPU;
    does nothing where the affinity cannot be set."""
    try:
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved)})
    except (AttributeError, OSError):
        saved = None
    try:
        yield
    finally:
        if saved is not None:
            os.sched_setaffinity(0, saved)
