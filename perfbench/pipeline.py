"""pipeline: the Harnack application through the CLI, plus equality cases.

Why: this workload uses the contact layer differently from `scan` -- small
off-centre vertex sets (growth) and pair export with file writes -- next to
hfun, pde, Newton refinement, report and cli.  A scan change that helps large
disc vertex sets but costs small ones shows here, and so does a gain that
moves work into writing reports.

One round = 25 verdicts.  Fifteen run in-process through `abplab.cli.main`
with `--out` in a temporary directory, `--format csv` and `--seed` from the
benchmark seed; a verdict is one CLI call.  Ten more are equality-case
measure-estimate verdicts by transport quadrature at 256^2 (`set_stride=0`,
as acceptance criterion 2 calls them): a seeded constant field and nine
quadratic fields with seeded (b, a) in [0.5, 2]^2.  `abp-check` is never run
above 128^2 (only inside `all` at 64^2), because the CLI changes the verdict
basis there without saying so.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from abplab import abp, cli, constants, fields, geometry, pde
from harness import rng
from tracing import rebind

ROUND_SECONDS = 6.0        # nominal; 5 rounds in a 30 s run
GAUGE = ("python", "array")  # interpreter and array work, like the mix of layers here
GAUGE_EVERY = 1            # one reading after each verdict, about 14% of a round
CALLS = (
    ["constants", "--K", "1", "--N", "2", "--R", "1"],
    ["pucci", "--samples", "1000"],
    ["doubling", "--model", "hyperbolic", "--k", "1", "--K", "1", "--N", "2",
     "--R", "0.8", "--samples", "100"],
    ["barrier-check", "--model", "hyperbolic", "--k", "1", "--K", "1", "--N", "2", "--r", "1"],
    ["harnack-check", "--which", "sup", "--resolution", "256"],
    ["harnack-check", "--which", "sub", "--resolution", "256"],
    ["harnack-check", "--which", "full", "--resolution", "256"],
    ["harnack-check", "--which", "growth", "--model", "euclidean", "--resolution", "96"],
    ["harnack-check", "--which", "growth", "--model", "hyperbolic", "--k", "1", "--K", "1",
     "--N", "2", "--resolution", "96"],
    ["hfun", "--model", "euclidean", "--samples", "512"],
    ["hfun", "--model", "sphere", "--k", "1", "--d", "0.5", "--samples", "512"],
    ["hfun", "--model", "hyperbolic", "--k", "1", "--d", "0.5", "--samples", "512"],
    ["contact", "--model", "euclidean", "--resolution", "64"],
    ["contact", "--model", "euclidean", "--resolution", "96"],
    ["all", "--resolution", "64"],
)
WARM_UP_CALLS = (
    ["constants"], ["pucci", "--samples", "10"], ["doubling", "--samples", "5"],
    ["barrier-check"], ["harnack-check", "--which", "sup", "--resolution", "64"],
    ["harnack-check", "--which", "growth", "--resolution", "48"],
    ["hfun", "--samples", "32"], ["contact", "--resolution", "32"],
    ["all", "--resolution", "32"],
)
SOLVING = ("sup", "sub", "full")      # harnack-check kinds that solve a Poisson problem
TRANSPORT_RESOLUTION = 256
N_QUADRATIC = 9
HFUN_RTOL = 1e-3
EQUALITY_RTOL = 1e-3
PRINCIPLE_TOL = 1e-12                 # min u >= min g, relative to max(1, |g|)


@dataclass
class Inputs:
    seed: int
    workdir: str
    transport: list                   # (field, opening) on the 256^2 plane
    grid: object
    n_rings: int
    solves: dict = field(default_factory=dict)   # verdict -> [(problem, solution)]
    done: set = field(default_factory=set)       # verdicts that completed once
    current: int = -1


def _cli(argv, out):
    with contextlib.redirect_stdout(io.StringIO()) as so, \
            contextlib.redirect_stderr(io.StringIO()) as se:
        rc = cli.main(argv + ["--out", out])
    return rc == 0, rc, so.getvalue(), se.getvalue()


def build(seed, workdir):
    m = geometry.euclidean()
    grid = geometry.build_polar_grid(m, m.origin(), 1.0, TRANSPORT_RESOLUTION,
                                     TRANSPORT_RESOLUTION)
    gen = rng(seed, "pipeline-equality")
    transport = [(fields.constant_field(grid, gen.uniform(0.1, 1.0)), 1.0)]
    for b, a in np.exp(gen.uniform(math.log(0.5), math.log(2.0), size=(N_QUADRATIC, 2))):
        transport.append((fields.quadratic_field(grid, m.origin(), b), a))
    return Inputs(seed, workdir, transport, grid, grid.radial_rings(0.45))


def warm_up(inputs):
    out = os.path.join(inputs.workdir, "warm-up")
    for argv in WARM_UP_CALLS:
        _cli(argv + ["--seed", str(inputs.seed)], out)
    m = geometry.euclidean()
    grid = geometry.build_polar_grid(m, m.origin(), 1.0, 64, 64)
    n = grid.radial_rings(0.45)
    _transport(m, grid, n, fields.quadratic_field(grid, m.origin(), 1.0), 1.0)


def _transport(m, grid, n_rings, u, a):
    params = constants.CurvatureParams(0.0, 2.0, 1.0)
    inst = abp.AbpInstance(m, params, grid, abp.disc_vertex_indices(grid, n_rings), u, a)
    rep = abp.abp_check(inst, set_stride=0, n_rings=n_rings)
    return rep.passed, rep.lhs, rep.diagnostics.get("rhs_transport")


def verdicts(inputs):
    _capture_solves(inputs)
    out = []
    for i, argv in enumerate(CALLS):
        full = argv + ["--format", "csv", "--seed", str(inputs.seed)]
        out.append(functools.partial(_call, inputs, i, full, _out_dir(inputs, i)))
    m = inputs.grid.model
    for u, a in inputs.transport:
        out.append(functools.partial(_transport, m, inputs.grid, inputs.n_rings, u, a))
    return out


def _out_dir(inputs, i):
    return os.path.join(inputs.workdir, f"v{i:02d}")


def _call(inputs, i, argv, out):
    inputs.current = i
    res = _cli(argv, out)
    inputs.done.add(i)
    return res


def _capture_solves(inputs):
    """Keep each Poisson problem and solution of a verdict's first run, for
    the maximum-principle check after the timed section."""
    original = pde.solve_poisson

    @functools.wraps(original)
    def solve_poisson(prob, *args, **kwargs):
        out = original(prob, *args, **kwargs)
        if inputs.current not in inputs.done:
            inputs.solves.setdefault(inputs.current, []).append((prob, out[0]))
        return out

    rebind({id(original): solve_poisson})


def passed(result):
    return result[0]


def key(result):
    return result


def check(inputs, results):
    problems = [None if res is None else _check_call(inputs, i, argv)
                for i, (argv, res) in enumerate(zip(CALLS, results))]
    disc = math.pi * (inputs.n_rings * inputs.grid.drho) ** 2
    for res in results[len(CALLS):]:
        if res is None:
            problems.append(None)
        elif abs(res[2] - disc) > EQUALITY_RTOL * disc:  # (passed, lhs, rhs_transport)
            problems.append(f"rhs_transport {res[2]!r} is not nu[E] = {disc!r}")
        else:
            problems.append(None)
    return problems


def _check_call(inputs, i, argv):
    out = _out_dir(inputs, i)
    paths = glob.glob(os.path.join(out, "*_report.json"))
    if not paths:
        return "no report written"
    for path in paths:
        with open(path) as fh:
            reports = json.load(fh)["reports"]
        for rep in reports:
            if not (rep["pass"] and _recompute(rep)):
                return f"{rep['name']} in {os.path.basename(path)} does not hold"
    kind = argv[0]
    if kind == "hfun":
        return _check_hfun(argv, out)
    if kind == "contact":
        return _check_pairs(out)
    if kind == "harnack-check" and argv[2] in SOLVING:
        return _check_solves(inputs.solves.get(i, []))
    return None


def _recompute(rep) -> bool:
    """The report's verdict from its stored sides and tolerances."""
    lhs, rhs = float(rep["lhs"]), float(rep["rhs"])
    if rep["kind"] == "eq":
        scale = max(abs(lhs), abs(rhs), 1.0)
        return abs(lhs - rhs) <= rep["rel_tol"] * scale + rep["abs_tol"]
    return lhs <= rhs * (1.0 + rep["rel_tol"]) + rep["abs_tol"]


def _check_hfun(argv, out):
    opts = dict(zip(argv[1::2], argv[2::2]))
    with open(os.path.join(out, "hfun_values.csv")) as fh:
        d, closed, numeric = (float(x) for x in fh.read().splitlines()[1].split(","))
    k = float(opts.get("--k", "1"))
    phi = math.sqrt(k) * d / math.sqrt(2.0)
    exact = {"euclidean": 9.0, "sphere": (1.0 + 2.0 * math.cos(phi)) ** 2,
             "hyperbolic": (1.0 + 2.0 * math.cosh(phi)) ** 2}[opts["--model"]]
    if abs(closed - exact) > 1e-12 * exact:
        return f"hfun closed form {closed!r}, expected {exact!r}"
    if abs(numeric - exact) > HFUN_RTOL * exact:
        return f"hfun numeric {numeric!r} off {exact!r}"
    return None


def _check_pairs(out):
    with open(os.path.join(out, "contact_report.json")) as fh:
        n_pairs = json.load(fh)["reports"][0]["diagnostics"]["n_pairs"]
    with open(os.path.join(out, "contact_pairs.csv")) as fh:
        rows = len(fh.read().splitlines()) - 1
    return None if rows == n_pairs >= 1 else f"{rows} pair rows for {n_pairs} pairs"


def _check_solves(solves):
    """Discrete maximum principle: f <= 0 implies min u >= min g."""
    if not solves:
        return "no Poisson solution seen"
    for prob, u in solves:
        if np.max(prob.f) > 0.0:
            return "Poisson right-hand side not <= 0"
        g_min = float(np.min(prob.g))
        if float(np.min(u.values)) < g_min - PRINCIPLE_TOL * max(1.0, float(np.max(np.abs(prob.g)))):
            return "Poisson solution dips below its boundary minimum"
    return None
