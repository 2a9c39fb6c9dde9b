"""Run one benchmark workload in this process and print its result as JSON.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/abplab` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer ones.  Run and trace records go to
`perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("scan", "geodesic", "pipeline")
# one thread per pool: a spinning second BLAS thread doubles CPU time on a
# two-core host and makes wall time depend on what else runs there
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """One thread per BLAS and OpenMP pool; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ABPLAB_OUT", None)  # would redirect the CLI's reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "abplab", "__init__.py")):
        print(f"error: no abplab sources at {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    import harness
    wl = importlib.import_module(args.workload)
    result = harness.run(wl, args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
