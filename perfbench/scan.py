"""scan: measure-estimate verdicts by node quadrature on all four models.

Why: the exhaustive contact scan (`contact.compute_contact_set`) does about
90% of the work here, and the Jacobi, hfun, pde and cli layers do none, so
this workload shows the O(n^4) scan alone.

One round = 8 verdicts: `abp_check` with the scan on and `n_rings` given
(as acceptance criterion 3 calls it) on a seeded random bump field with
hess_bound = a/2, vertex set the 0.45 r disc, at 96^2 and 128^2 on the
plane, the sphere, the hyperbolic plane and the gaussian plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from abplab import abp, constants, contact, fields, geometry
from harness import rng
from tracing import rebind

ROUND_SECONDS = 10.0       # nominal; 3 rounds in a 30 s run
GAUGE = ("array",) * 5     # host-speed gauge of the same kind as the scan, 85 ms
GAUGE_EVERY = 1            # read after each verdict, about 7% of a round
OPENING = 1.0
RESOLUTIONS = (96, 128)
# (label, model factory, (K, N, R), ball radius), as in acceptance criterion 3
MODELS = (
    ("euclidean", geometry.euclidean, (0.0, 2.0, 1.0), 1.0),
    ("sphere", lambda: geometry.sphere(1.0), (0.0, 2.0, 0.3), 0.3),
    ("hyperbolic", lambda: geometry.hyperbolic(1.0), (1.0, 2.0, 0.5), 0.5),
    ("gaussian", lambda: geometry.gaussian_plane(1.0), (0.0, 4.0, 0.8), 0.8),
)
WARM_UP_RESOLUTION = 32
SAMPLE_VERTICES = 64       # vertices re-scanned by brute force per verdict
MEASURE_RTOL = 1e-6        # quadrature of nu[E] against its closed form
VALUE_TOL = 1e-12          # contact values, relative to max(1, |F|)
RHS_RTOL = 1e-9            # rhs_nodes recomputed from the scanned nodes


@dataclass
class Inputs:
    seed: int
    cases: list
    scans: dict = field(default_factory=dict)    # verdict -> its first ContactSet
    current: int = -1


@dataclass
class Case:
    inst: object       # abp.AbpInstance
    n_rings: int


def _case(make, params, r, res, gen):
    m = make()
    grid = geometry.build_polar_grid(m, m.origin(), r, res, res)
    n_rings = grid.radial_rings(0.45 * r)
    E = abp.disc_vertex_indices(grid, n_rings)
    u = fields.random_bump_field(grid, gen, hess_bound=0.5 * OPENING)
    inst = abp.AbpInstance(m, constants.CurvatureParams(*params), grid, E, u, OPENING)
    return Case(inst, n_rings)


def build(seed, workdir):
    return Inputs(seed, [_case(make, params, r, res, rng(seed, f"scan-{label}-{res}"))
                         for res in RESOLUTIONS for label, make, params, r in MODELS])


def warm_up(inputs):
    for label, make, params, r in MODELS:
        c = _case(make, params, r, WARM_UP_RESOLUTION, rng(0, "scan-warm-up"))
        abp.abp_check(c.inst, set_stride=1, n_rings=c.n_rings)


def verdicts(inputs):
    _capture_scans(inputs)
    return [lambda i=i, c=c: _verdict(inputs, i, c) for i, c in enumerate(inputs.cases)]


def _verdict(inputs, i, c):
    inputs.current = i
    return abp.abp_check(c.inst, set_stride=1, n_rings=c.n_rings)


def _capture_scans(inputs):
    """Keep the contact set each verdict's first run computed, for the checks
    after the timed section."""
    original = contact.compute_contact_set

    @functools.wraps(original)
    def compute_contact_set(*args, **kwargs):
        cs = original(*args, **kwargs)
        inputs.scans.setdefault(inputs.current, cs)
        return cs

    rebind({id(original): compute_contact_set})


def passed(rep):
    return rep.passed


def key(rep):
    d = rep.diagnostics
    return (rep.passed, rep.lhs, rep.rhs, rep.abs_tol, d["n_contact_nodes"], d["rhs_transport"])


def check(inputs, reports):
    gen = rng(inputs.seed, "scan-sample")
    return [None if rep is None else _check_one(c, rep, inputs.scans.get(i), gen)
            for i, (c, rep) in enumerate(zip(inputs.cases, reports))]


def _check_one(c, rep, cs, gen):
    """The verdict's sides against values computed here, from the contact set
    the verdict itself used."""
    inst = c.inst
    disc = _disc_measure(inst.model, c.n_rings * inst.grid.drho)
    if abs(rep.lhs - disc) > MEASURE_RTOL * disc:
        return f"lhs {rep.lhs!r} is not nu[E] = {disc!r}"
    transport = rep.diagnostics["rhs_transport"]
    if transport < rep.lhs * (1.0 - 1e-6):
        return f"transport side {transport!r} below lhs {rep.lhs!r}"
    if cs is None or not np.array_equal(cs.vertex_indices, inst.E):
        return "no contact set over all of E seen"
    # every vertex: the reported infimum is F at the reported node
    F_at = _functional(inst, inst.E, cs.contact_of)
    if np.any(np.abs(F_at - cs.min_values) > VALUE_TOL * np.maximum(1.0, np.abs(F_at))):
        return "reported infimum is not F at the reported contact node"
    # sampled vertices: brute-force minimum over all nodes, ties included
    rows = np.sort(gen.choice(len(inst.E), SAMPLE_VERTICES, replace=False))
    F = _functional(inst, inst.E[rows][:, None], np.arange(inst.grid.n_r * inst.grid.n_theta))
    best = F.min(axis=1)
    tol = VALUE_TOL * max(1.0, float(np.max(np.abs(F))))
    if np.any(np.abs(cs.min_values[rows] - best) > tol):
        return "contact infimum differs from the brute-force minimum"
    if np.any(F[np.arange(len(rows)), cs.contact_of[rows]] > best + tol):
        return "contact node is not a brute-force minimiser"
    row_of = {int(y): k for k, y in enumerate(inst.E[rows])}
    for y, x in cs.ties:
        k = row_of.get(int(y))
        if k is not None and F[k, x] > best[k] + tol:
            return "tied contact node is not a brute-force minimiser"
    # the verdict's right side from those nodes, with the bound written here
    nodes = np.unique(np.concatenate([cs.contact_of,
                                      np.array([x for _, x in cs.ties], dtype=np.int64)]))
    if rep.diagnostics["n_contact_nodes"] != len(nodes):
        return f"n_contact_nodes {rep.diagnostics['n_contact_nodes']} for {len(nodes)} nodes"
    lap = inst.u.laplacian_nu(inst.grid.flat_points()[nodes])
    G = _bound_integrand(inst.params.K, inst.params.N, inst.grid.radius, inst.a, lap)
    rhs = float(np.sum(G * inst.grid.flat_weights()[nodes]))
    for side in (rep.rhs, rep.diagnostics["rhs_nodes"]):
        if abs(side - rhs) > RHS_RTOL * abs(rhs):
            return f"rhs_nodes {side!r}, recomputed {rhs!r}"
    return None


def _bound_integrand(K, N, r, a, lap):
    """G = max(D, 0)^N with D = S(t)(H(t) + lap/(N a)), t = 2r sqrt(K/N),
    S(t) = sinh(t)/t and H(t) = t coth(t), both 1 at t = 0; exp(2r^2 K + lap/a)
    for N = inf."""
    if math.isinf(N):
        return np.exp(2.0 * r * r * K + lap / a)
    t = 2.0 * r * math.sqrt(K / N)
    S, H = (math.sinh(t) / t, t / math.tanh(t)) if t > 0 else (1.0, 1.0)
    return np.maximum(S * (H + lap / (N * a)), 0.0) ** N


def _functional(inst, y_idx, x_idx):
    """u(x) + (a/2) rho^2(x, y) for node indices broadcast against each other,
    with distances from chord lengths (independent of the program's arccos
    forms)."""
    m = inst.model
    X = inst.grid.flat_points()
    diff = X[y_idx] - X[x_idx]
    if m.kind == "sphere":
        sk = math.sqrt(m.k)
        chord = np.sqrt(np.sum(diff * diff, axis=-1))
        rho = 2.0 / sk * np.arcsin(np.minimum(sk * chord / 2.0, 1.0))
    elif m.kind == "hyperbolic":
        sk = math.sqrt(m.k)
        mink = diff[..., 0] ** 2 + diff[..., 1] ** 2 - diff[..., 2] ** 2
        rho = 2.0 / sk * np.arcsinh(sk * np.sqrt(np.maximum(mink, 0.0)) / 2.0)
    else:  # flat charts: the gaussian weight does not enter the distance
        rho = np.sqrt(np.sum(diff * diff, axis=-1))
    return inst.u.values.reshape(-1)[x_idx] + 0.5 * inst.a * rho * rho


def _disc_measure(m, radius):
    """Closed-form nu-measure of the geodesic disc about the origin."""
    if m.kind == "euclidean":
        return math.pi * radius * radius
    if m.kind == "sphere":
        return 2.0 * math.pi / m.k * (1.0 - math.cos(math.sqrt(m.k) * radius))
    if m.kind == "hyperbolic":
        return 2.0 * math.pi / m.k * (math.cosh(math.sqrt(m.k) * radius) - 1.0)
    return 2.0 * math.pi / m.lam * -math.expm1(-0.5 * m.lam * radius * radius)
