"""Host-speed gauge: a fixed piece of the benchmark's own work, timed between
verdicts, by which a run's times are read at one reference speed.

The host this benchmark was built on is a few cores of a shared machine.
Its speed moves by up to a factor of two over seconds to minutes, and CPU
time moves with wall time, so no statistic taken inside one run removes the
drift between runs.  The gauge measures that drift in the same stretch of
the same process: each verdict's time is multiplied by

    scale = reference / mean(the gauge readings around its block of verdicts)

so it reads as seconds on a host of the reference speed (harness.run_rounds).  A reading is one
pass over the workload's parts, each a kernel of the same kind of work as
the workload:

    python   a Python loop of 2x2 numpy products (interpreter and call
             overhead, like the RK4 loop of the Jacobi integrator)
    array    squared distances of 200 x 2000 point pairs and their row
             minima (a few MB of vectorised array work, like the scan)

REFERENCE_S are fixed constants near one pass's time on the reference host
(see README.md).  They set the unit of the scaled times and cancel out of
any comparison of two versions of the program.  The gauge never calls
abplab, so a change to the program moves the measured times and leaves the
gauge alone; the unscaled times stay in each run's record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = {"python": 0.0050, "array": 0.0170}

_A0 = np.eye(2)
_B = np.array([[0.1, 0.2], [0.3, 0.4]])
_P = np.random.default_rng(0).standard_normal((200, 3))
_Q = np.random.default_rng(1).standard_normal((2000, 3))


def _python(steps: int = 500) -> float:
    a, h = _A0, 0.01
    for _ in range(steps):
        k1 = _B @ a
        k2 = _B @ (a + 0.5 * h * k1)
        a = a + 0.5 * h * (k1 + k2)
    return float(a[0, 0])


def _array() -> float:
    d2 = ((_P[:, None, :] - _Q[None, :, :]) ** 2).sum(-1)
    return float(d2.min(1).sum())


KERNELS = {"python": _python, "array": _array}


class Gauge:
    def __init__(self, parts):
        self.parts = tuple(parts)
        self.kernels = [KERNELS[p] for p in self.parts]
        self.reference = sum(REFERENCE_S[p] for p in self.parts)

    def read(self) -> float:
        """Seconds for one pass over the parts."""
        t0 = perf_counter()
        for kernel in self.kernels:
            kernel()
        return perf_counter() - t0

    def scale(self, readings) -> float:
        """Reference over measured time: below 1 on a slow host, above on a fast one."""
        return self.reference / statistics.fmean(readings) if readings else 1.0
