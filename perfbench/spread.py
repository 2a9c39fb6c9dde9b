"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads scan geodesic] [--tag name]

Runs are sequential, one fresh process each, from the checkout root.  For
each workload and metric it prints the median, the quartiles as
statistics.quantiles(n=4) gives them, and (Q3 - Q1) / median beside the
metric's bound in BENCHMARK.json.  The raw results go to
perfbench/out/spread-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--tag", default="last")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for wl in args.workloads:
        runs = raw[wl] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            runs[-1]["elapsed_s"] = perf_counter() - t0
            print(wl, seed, f"{runs[-1]['elapsed_s']:.1f}s", json.dumps(
                {k: round(v["value"], 5) for k, v in runs[-1]["metrics"].items()}), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: failed shares {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = harness.quartile_spread(vals)
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
                  f"spread {spread:.3f} (bound {bound}){flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.tag}.json"), "w") as fh:
        json.dump({"seeds": args.seeds, "seconds": bench["run_seconds"], "runs": raw}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
