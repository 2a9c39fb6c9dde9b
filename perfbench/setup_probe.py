"""Time one benchmark set-up in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports numpy and abplab, builds the workload's seeded inputs and makes its
warm-up calls, then prints [imports_s, build_and_warm_up_s] as JSON.  The
harness runs it several times per run and reports the median total as
`setup_s`.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import run

run.pin_threads()
sys.path.insert(0, run.SRC)

t0 = perf_counter()
import numpy  # noqa: E402,F401
import abplab.cli  # noqa: E402,F401  (imports every module the CLI uses)
import abplab.jacobi  # noqa: E402,F401
t1 = perf_counter()
workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
wl = importlib.import_module(workload)
wl.warm_up(wl.build(seed, workdir))
print(json.dumps([t1 - t0, perf_counter() - t1]))
