"""Set-up, timed rounds, checks and metrics shared by every workload.

A workload module provides

    ROUND_SECONDS                          nominal length of one round
    build(seed, workdir)  -> inputs        seeded input construction
    warm_up(inputs)                        one small call of each verdict kind
    verdicts(inputs)      -> [callable]    the fixed verdict list of one round
    passed(result)        -> bool          the program's own verdict
    key(result)           -> hashable      what must repeat exactly across rounds
    check(inputs, results) -> [str|None]   independent checks, one entry per verdict
                                           (results of raising verdicts are None)
    GAUGE, GAUGE_EVERY                     the host-speed gauge's parts (gauge.py),
                                           read after every GAUGE_EVERY verdicts

A run makes round(seconds / ROUND_SECONDS) whole rounds of the verdict list,
at least one.  The count depends on `--seconds` alone, never on how fast the
program is, so a faster or slower program is read through the same
statistic, and the share of failed verdicts is the same in every run.
Checks run after the timed section.

Each time metric is a median over the rounds of times read at the gauge's
reference speed: every verdict's time is multiplied by the scale of the gauge
readings taken just before and just after its block of verdicts (see
gauge.py), and a round's wall by the time-weighted scale of its verdicts.
Gauge time is not verdict time.  Set-up is measured apart from the run's own
set-up: SETUP_REPEATS fresh interpreters each import numpy and abplab, build
the inputs and warm up, each probe's total is scaled by the gauge readings
taken just before and just after it, and the median is reported.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gauge import Gauge

HERE = os.path.dirname(os.path.abspath(__file__))
TAIL_MIN_VERDICTS = 40
TAIL_BEYOND = 10
SETUP_REPEATS = 7
SETUP_GAUGE_READS = 10     # gauge readings before the first set-up probe and after each


def rng(seed: int, tag: str) -> np.random.Generator:
    """The benchmark's own input generator, keyed by (seed, tag)."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(tag.encode())])


@dataclass
class Round:
    start: float
    end: float
    times: list = field(default_factory=list)
    results: list = field(default_factory=list)
    gauge: list = field(default_factory=list)     # every gauge reading of the round
    scales: list = field(default_factory=list)    # one per verdict; none means 1

    @property
    def wall(self) -> float:
        """From the first verdict's start to the last one's end, less gauge time."""
        return self.end - self.start - sum(self.gauge)

    @property
    def scaled_times(self) -> list:
        return [t * s for t, s in zip(self.times, self.scales)] if self.scales else list(self.times)

    @property
    def scaled_wall(self) -> float:
        """The wall at the verdicts' time-weighted scale."""
        return self.wall * sum(self.scaled_times) / sum(self.times) if self.scales else self.wall


class VerdictError:
    """Stands in for the result of a verdict that raised."""

    def __init__(self, text: str):
        self.text = text


def tail_rank(n: int):
    """0-based rank of the tail value in n sorted verdict times, or None.

    The tail is the highest percentile with at least TAIL_BEYOND verdicts
    beyond it; below TAIL_MIN_VERDICTS verdicts there is no tail.
    """
    if n < TAIL_MIN_VERDICTS:
        return None
    return n - TAIL_BEYOND - 1


def tail_percentile(n: int):
    """The percentile that tail_rank picks, for the README and the trace file."""
    rank = tail_rank(n)
    return None if rank is None else 100.0 * (rank + 1) / n


def tail_value(times):
    rank = tail_rank(len(times))
    return None if rank is None else sorted(times)[rank]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def round_count(seconds: float, round_seconds: float) -> int:
    """Rounds in a run of `seconds`: a function of the run length alone."""
    return max(1, round(seconds / round_seconds))


def run_rounds(verdicts, n_rounds: int, gauge: Gauge = None, every: int = 1):
    """`n_rounds` whole rounds of the verdict list, each verdict timed.

    With a gauge, each round reads it before its first verdict and after
    every `every` verdicts and its last one.  A verdict is scaled by the two
    readings around its block, so its scale follows the host's speed while
    it ran.
    """
    rounds = []
    for _ in range(n_rounds):
        rd = Round(perf_counter(), 0.0)
        if gauge is not None:
            rd.gauge.append(gauge.read())
        for k, fn in enumerate(verdicts):
            t0 = perf_counter()
            try:
                out = fn()
            except Exception:  # a raising verdict is a failed verdict, not a crashed run
                out = VerdictError(traceback.format_exc(limit=3))
            rd.times.append(perf_counter() - t0)
            rd.results.append(out)
            if gauge is not None and ((k + 1) % every == 0 or k + 1 == len(verdicts)):
                rd.gauge.append(gauge.read())
        rd.end = perf_counter()
        if gauge is not None:
            rd.scales = [gauge.scale(rd.gauge[k // every:k // every + 2])
                         for k in range(len(verdicts))]
        rounds.append(rd)
    return rounds


def count_failed(wl, inputs, rounds):
    """Failed verdicts over all rounds, plus one line per distinct problem.

    A verdict fails when it raised, when its report fails, when an
    independent check on the first round's output disagrees, or when its
    output differs from the first round's.
    """
    first = rounds[0].results
    problems = wl.check(inputs, [None if isinstance(r, VerdictError) else r for r in first])
    base = [None if isinstance(r, VerdictError) else wl.key(r) for r in first]
    failed, lines = 0, set()
    for k, rd in enumerate(rounds):
        for i, res in enumerate(rd.results):
            if isinstance(res, VerdictError):
                why = "raised: " + res.text.strip().splitlines()[-1]
            elif not wl.passed(res):
                why = "report failed"
            elif problems[i]:
                why = problems[i]
            elif wl.key(res) != base[i]:
                why = f"output differs from round 1 in round {k + 1}"
            else:
                continue
            failed += 1
            lines.add(f"verdict {i}: {why}")
    return failed, sorted(lines)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(name: str, seed: int, out_dir: str) -> list:
    """[imports, build and warm-up] of one set-up in a fresh interpreter."""
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"tmp-setup-{name}-") as workdir:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               name, str(seed), workdir],
                              capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(name: str, seed: int, out_dir: str, gauge: Gauge):
    """Median scaled set-up total, with the probes' times and the gauge points.

    Each probe is scaled by the gauge points taken just before and just
    after it, as verdicts are.
    """
    def point():
        return [gauge.read() for _ in range(SETUP_GAUGE_READS)]

    probes, points = [], [point()]
    for _ in range(SETUP_REPEATS):
        probes.append(setup_probe(name, seed, out_dir))
        points.append(point())
    scaled = [sum(parts) * gauge.scale(before + after)
              for parts, before, after in zip(probes, points, points[1:])]
    return statistics.median(scaled), probes, points


def median_verdict_times(rounds):
    """Each verdict's median scaled time over the rounds, in list order."""
    return [statistics.median(ts) for ts in zip(*(rd.scaled_times for rd in rounds))]


def time_metrics(rounds) -> dict:
    """wall_s, verdict_p50_s and verdict_tail_s of a list of rounds."""
    times = median_verdict_times(rounds)
    p50 = statistics.median(times)
    tail = tail_value(times)
    return {
        "wall_s": (statistics.median(rd.scaled_wall for rd in rounds), "s"),
        "verdict_p50_s": (p50, "s"),
        # with fewer than TAIL_MIN_VERDICTS per round there is no tail: the
        # field then repeats the median so every workload prints the same keys
        "verdict_tail_s": (p50 if tail is None else tail, "s"),
    }


def run(wl, name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    n_rounds = round_count(seconds, wl.ROUND_SECONDS)
    gauge = Gauge(wl.GAUGE)
    timed = functools.partial(run_rounds, gauge=gauge, every=wl.GAUGE_EVERY)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"tmp-{name}-") as workdir:
        inputs = wl.build(seed, workdir)
        wl.warm_up(inputs)
        gauge.read()  # warm-up of the gauge's own kernels
        verdicts = wl.verdicts(inputs)
        if trace:
            return _traced(wl, name, seed, n_rounds, inputs, verdicts, workdir, out_dir, timed)
        rounds = timed(verdicts, n_rounds)
        peak = peak_rss_mb()
        failed, lines = count_failed(wl, inputs, rounds)
    for line in lines:
        print(f"{name}: {line}", file=sys.stderr)
    setup_s, setups, setup_gauge = setup_seconds(name, seed, out_dir, gauge)
    metrics = time_metrics(rounds)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak, "MB")
    _write_record(out_dir, name, seed, {
        "gauge_parts": wl.GAUGE,
        "setups_s": setups,
        "setup_gauge_s": setup_gauge,
        "round_walls_s": [rd.wall for rd in rounds],
        "round_scaled_walls_s": [rd.scaled_wall for rd in rounds],
        "round_gauge_s": [rd.gauge for rd in rounds],
        "verdict_times_s": [rd.times for rd in rounds],
        "verdicts_per_round": len(verdicts),
        "tail_percentile": tail_percentile(len(verdicts)),
        "problems": lines,
    })
    return _result(len(rounds) * len(verdicts), failed, metrics)


def _traced(wl, name, seed, n_rounds, inputs, verdicts, workdir, out_dir, timed):
    """Untraced rounds, then one traced set-up and as many traced rounds.

    Per-layer figures are those of one input construction plus one round
    (the mean over the traced rounds); the overhead is the difference of
    `wall_s` between the two halves.  Each half has half the rounds of an
    untraced run, at least one.
    """
    import tracing

    half = max(1, n_rounds // 2)
    plain = timed(verdicts, half)
    tracer = tracing.Tracer()
    tracer.install()
    wl.build(seed, workdir)
    setup_part = tracer.take()
    traced = timed(verdicts, half)
    rounds_part = tracer.take()
    overhead = time_metrics(traced)["wall_s"][0] - time_metrics(plain)["wall_s"][0]
    metrics = tracing.layer_metrics(setup_part, rounds_part, len(traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    failed, lines = count_failed(wl, inputs, plain + traced)
    for line in lines:
        print(f"{name}: {line}", file=sys.stderr)
    tracing.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"),
                  setup_part, rounds_part, metrics)
    return _result((len(plain) + len(traced)) * len(verdicts), failed, metrics)


def _result(attempted, failed, metrics) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _write_record(out_dir, name, seed, record):
    with open(os.path.join(out_dir, f"run-{name}-seed{seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
