"""Spans around the public functions of every abplab module.

`Tracer.install` replaces each public function of each `abplab.*` module at
every place an abplab module binds it (module attributes, the package
namespace and module-level dicts such as the CLI's handler table), plus the
evaluation methods of `ScalarField`.  Nothing in the program changes: the
wrappers live here.

Each span records its name, its metric group, start, end, the span that
caused it and its self time, which is its duration minus the time its child
spans cover.  Counters read the arguments and results at the same
boundaries.  Work a counter does to inspect a result (the Newton residual
recomputation) runs with tracing suspended and is subtracted from the
enclosing span, so it never shows up as program time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# metric group of each wrapped function: module -> {name: group}, "*" = default
GROUPS = {
    "abplab.contact": {"compute_contact_set": "contact.scan_s",
                       "refine_contact_points": "contact.refine_s",
                       "dist_sq_half_grad_hess": "contact.refine_s",
                       "gradient_contact_residual": "contact.residual_s",
                       "*": "contact.other_s"},
    "abplab.abp": {"transport_rhs": "abp.transport_s", "*": "abp.check_s"},
    "abplab.harnack": {"growth_check": "harnack.growth_s", "*": "harnack.check_s"},
    "abplab.jacobi": {"integrate_jacobi": "jacobi.integrate_s",
                      "curvature_matrix": "jacobi.integrate_s",
                      "verify_comparison": "jacobi.verify_s",
                      "dn_functional": "jacobi.verify_s",
                      "*": "jacobi.other_s"},
    "abplab.fields": {"hess_form": "fields.eval_s", "*": "fields.build_s"},
    "abplab.geometry": {"build_polar_grid": "geometry.grid_build_s", "*": "geometry.other_s"},
    "abplab.hfun": {"*": "hfun.numeric_s"},
    "abplab.pde": {"*": "pde.solve_s"},
    "abplab.measure": {"*": "measure.check_s"},
    "abplab.barrier": {"*": "barrier.check_s"},
    "abplab.constants": {"*": "constants.ledger_s"},
    "abplab.pucci": {"*": "pucci.check_s"},
    "abplab.report": {"emit_json": "report.emit_s", "emit_csv": "report.emit_s",
                      "emit_plotdata": "report.emit_s", "write_atomic": "report.emit_s",
                      "*": "report.other_s"},
    "abplab.cli": {"*": "cli.self_s"},
}
FIELD_METHODS = ("value", "grad", "hess", "laplacian", "laplacian_nu")

# per-layer metrics reported, with units: the self time of every group, so
# that the self times of a traced call tree add up to its duration
TIME_METRICS = tuple(sorted({g for groups in GROUPS.values() for g in groups.values()}))
COUNT_METRICS = (
    "contact.scan_calls", "contact.scan_pairs", "contact.scan_ties",
    "abp.contact_nodes", "contact.refine_points", "contact.refine_unconverged",
    "jacobi.rk4_steps", "hfun.kernel_evals", "pde.solves", "pde.unknowns",
    "geometry.grid_nodes",
)
# a refined point counts as unconverged when |grad F| exceeds this; the
# Newton loop itself stops at 1e-12 on the frame components
REFINE_GRAD_TOL = 1e-9


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []      # (id, parent, name, group, start, end, self)
        self.counts = defaultdict(float)
        self._stack = []     # [span id, name, time covered by children]
        self._next_id = 0
        self._suspended = False

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name: str, group: str, counter=None):
        sig = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append((frame[0], None if parent is None else parent[0],
                                   name, group, t0, t1, t1 - t0 - frame[2]))
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._suspended = True
                c0 = self.clock()
                try:
                    counter(self, bound.arguments, out)
                finally:
                    self._suspended = False
                    if parent is not None:
                        parent[2] += self.clock() - c0
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def take(self):
        """Hand over the spans and counts so far and start afresh."""
        part = (self.spans, dict(self.counts))
        self.spans, self.counts = [], defaultdict(float)
        return part

    # -- installation --------------------------------------------------------

    def install(self):
        mods = _abplab_modules()
        wrapped = {}
        for modname, groups in GROUPS.items():
            mod = mods.get(modname)
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != modname:
                    continue
                name = f"{modname[len('abplab.'):]}.{attr}"
                wrapped[id(fn)] = self.wrap(fn, name, groups.get(attr, groups["*"]),
                                            COUNTERS.get(name))
        rebind(wrapped)
        cls = mods["abplab.fields"].ScalarField
        for meth in FIELD_METHODS:
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"fields.ScalarField.{meth}",
                                         "fields.eval_s"))


def _abplab_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if (n == "abplab" or n.startswith("abplab.")) and m is not None}


def rebind(replacements: dict):
    """Replace functions, given as {id(original): replacement}, wherever an
    abplab module binds them: module attributes and module-level dicts."""
    for mod in _abplab_modules().values():
        for attr, val in list(vars(mod).items()):
            if id(val) in replacements:
                setattr(mod, attr, replacements[id(val)])
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if id(v) in replacements:
                        val[k] = replacements[id(v)]


# -- counters: (tracer, bound arguments by name, result) -----------------------

def _count_scan(tr, args, out):
    grid = args["Omega"] if args["Omega"] is not None else args["u"].grid
    n_nodes = grid.n_r * grid.n_theta
    n_vertices = len(args["E"])
    c = tr.counts
    c["contact.scan_calls"] += 1
    c["contact.scan_pairs"] += n_vertices * n_nodes
    c["contact.scan_ties"] += len(out.ties)
    if tr.inside("harnack.growth_check"):
        c["harnack.growth_scans_total"] += 1
    # one chunk holds F and rho^2 (float64) and the tie mask (bool), beside
    # the node coordinates; computed from the shapes, not measured
    rows = min(args["chunk"], n_vertices)
    dim = grid.points.shape[-1]
    ws = rows * n_nodes * (8 + 8 + 1) + n_nodes * dim * 8
    c["contact.scan_working_set_mb"] = max(c["contact.scan_working_set_mb"], ws / 2**20)


def _count_refine(tr, args, out):
    m, u, Y = args["m"], args["u"], args["Y"]
    X = np.asarray(out)
    grad_f = u.grad(X) - args["a"] * m.log(X, Y)
    norm = m.tangent_norm(X, grad_f)
    tr.counts["contact.refine_points"] += norm.size
    tr.counts["contact.refine_unconverged"] += int(np.sum(~(norm <= REFINE_GRAD_TOL)))


def _count_abp(tr, args, out):
    tr.counts["abp.contact_nodes"] += out.diagnostics.get("n_contact_nodes", 0)


def _count_growth(tr, args, out):
    tr.counts["harnack.growth_checks"] += 1


def _count_jacobi(tr, args, out):
    tr.counts["jacobi.rk4_steps"] += args["n_steps"]


def _count_hfun(tr, args, out):
    tr.counts["hfun.kernel_evals"] += args["n_boundary"] * args["n_ball"] * args["n_radial"]


def _count_poisson(tr, args, out):
    g = args["prob"].grid
    tr.counts["pde.solves"] += 1
    tr.counts["pde.unknowns"] += g.n_r * g.n_theta


def _count_write(tr, args, out):
    tr.counts["report.bytes_written"] += len(args["data"].encode())


def _count_grid(tr, args, out):
    tr.counts["geometry.grid_nodes"] += args["n_r"] * args["n_theta"]


COUNTERS = {
    "contact.compute_contact_set": _count_scan,
    "contact.refine_contact_points": _count_refine,
    "abp.abp_check": _count_abp,
    "harnack.growth_check": _count_growth,
    "jacobi.integrate_jacobi": _count_jacobi,
    "hfun.hfun_numeric": _count_hfun,
    "pde.solve_poisson": _count_poisson,
    "report.write_atomic": _count_write,
    "geometry.build_polar_grid": _count_grid,
}


# -- per-layer metrics ---------------------------------------------------------

def self_times(spans) -> dict:
    out = defaultdict(float)
    for span in spans:
        out[span[3]] += span[6]
    return out


def layer_metrics(setup_part, rounds_part, n_rounds: int) -> dict:
    """One input construction plus the mean of one round, per metric."""
    (s_spans, s_counts), (r_spans, r_counts) = setup_part, rounds_part
    s_self, r_self = self_times(s_spans), self_times(r_spans)

    def per(key, s, r):
        return s.get(key, 0.0) + r.get(key, 0.0) / n_rounds

    metrics = {k: (per(k, s_self, r_self), "s") for k in TIME_METRICS}
    for k in COUNT_METRICS:
        metrics[k] = (per(k, s_counts, r_counts), "count")
    metrics["report.bytes_written"] = (per("report.bytes_written", s_counts, r_counts), "B")
    metrics["contact.scan_working_set_mb"] = (
        max(s_counts.get("contact.scan_working_set_mb", 0.0),
            r_counts.get("contact.scan_working_set_mb", 0.0)), "MB")
    checks = per("harnack.growth_checks", s_counts, r_counts)
    scans = per("harnack.growth_scans_total", s_counts, r_counts)
    metrics["harnack.growth_scans"] = (scans / checks if checks else 0.0, "count")
    metrics["contact.scan_pairs_per_s"] = (_rate(metrics, "contact.scan_pairs", "contact.scan_s"), "1/s")
    metrics["jacobi.rk4_steps_per_s"] = (_rate(metrics, "jacobi.rk4_steps", "jacobi.integrate_s"), "1/s")
    return metrics


def _rate(metrics, count, seconds) -> float:
    t = metrics[seconds][0]
    return metrics[count][0] / t if t > 0 else 0.0


def write(path, setup_part, rounds_part, metrics):
    """Spans as [id, parent, name, group, start, end, self], both parts."""
    def rows(spans):
        return [list(s) for s in sorted(spans)]

    with open(path, "w") as fh:
        json.dump({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "setup": {"spans": rows(setup_part[0]), "counts": setup_part[1]},
                   "rounds": {"spans": rows(rounds_part[0]), "counts": rounds_part[1]}},
                  fh, separators=(",", ":"))
