"""geodesic: Jacobi comparison verdicts along seeded geodesics.

Why: the per-step RK4 loop of `jacobi.integrate_jacobi` does nearly all the
work and the contact scan does none, so a Jacobi change shows here alone and
a scan change must leave this workload unmoved.

One round = 500 verdicts: 100 geodesics on each of acceptance criterion 4's
five (model, N, K) configurations.  Each verdict integrates the Jacobi
equation at 256 steps and runs `verify_comparison` (r = 0.4).  A geodesic
starts at a seeded point within 0.3 of the origin with a seeded velocity of
length in [0.05, 0.8]; its initial slope J'(0) is the Hessian, in the Jacobi
frame, of a seeded random bump field (hess_bound 1) at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from abplab import fields, geometry, jacobi
from harness import rng

ROUND_SECONDS = 6.0        # nominal; 5 rounds in a 30 s run
GAUGE = ("python",)        # host-speed gauge of the same kind as the RK4 loop
GAUGE_EVERY = 2            # one reading per 2 verdicts, about 20% of a round
CONFIGS = (  # (label, model factory, N, K), as in acceptance criterion 4
    ("euclidean", geometry.euclidean, 2.0, 0.0),
    ("sphere", lambda: geometry.sphere(1.0), 2.0, 0.0),
    ("hyperbolic", lambda: geometry.hyperbolic(1.0), 2.0, 1.0),
    ("gaussian-N4", lambda: geometry.gaussian_plane(1.0), 4.0, 0.0),
    ("gaussian-Ninf", lambda: geometry.gaussian_plane(1.0), math.inf, 0.0),
)
PER_CONFIG = 100
N_STEPS = 256
R = 0.4                   # verify_comparison's radius; speeds stay <= 2R
FIELD_GRID = (0.5, 32)    # radius and resolution of the grid carrying the field
J_TOL = 1e-8              # J(1) against the closed form


@dataclass
class Geodesic:
    model: object
    N: float
    K: float
    x: np.ndarray
    v: np.ndarray
    B: np.ndarray          # J'(0) in the frame (v/|v|, its rotation)


def _unit_tangent(m, p, gen):
    e1, e2 = m.tangent_frame(p)
    th = gen.uniform(0.0, 2.0 * math.pi)
    return math.cos(th) * e1 + math.sin(th) * e2


def _config(make, N, K, gen, count):
    m = make()
    radius, res = FIELD_GRID
    grid = geometry.build_polar_grid(m, m.origin(), radius, res, res)
    u = fields.random_bump_field(grid, gen, hess_bound=1.0)
    o = m.origin()
    xs = np.stack([m.exp(o, 0.3 * math.sqrt(gen.uniform()) * _unit_tangent(m, o, gen))
                   for _ in range(count)])
    vs = np.stack([gen.uniform(0.05, 2.0 * R) * _unit_tangent(m, x, gen) for x in xs])
    H = u.hess(xs)
    e1 = vs / m.tangent_norm(xs, vs)[:, None]
    e2 = m.rotate90(xs, e1)
    h11 = fields.hess_form(m, H, e1, e1)
    h12 = fields.hess_form(m, H, e1, e2)
    h22 = fields.hess_form(m, H, e2, e2)
    Bs = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    return [Geodesic(m, N, K, x, v, B) for x, v, B in zip(xs, vs, Bs)]


def build(seed, workdir):
    return [g for label, make, N, K in CONFIGS
            for g in _config(make, N, K, rng(seed, f"geodesic-{label}"), PER_CONFIG)]


def warm_up(geodesics):
    for label, make, N, K in CONFIGS:
        _verdict(_config(make, N, K, rng(0, "geodesic-warm-up"), 1)[0])


def _verdict(g):
    state = jacobi.integrate_jacobi(g.model, g.x, g.B, g.v, N_STEPS)
    rep = jacobi.verify_comparison(state, g.model, g.N, g.K, r=R)
    return rep.passed, tuple(state.J[-1].ravel())


def verdicts(geodesics):
    return [lambda g=g: _verdict(g) for g in geodesics]


def passed(result):
    return result[0]


def key(result):
    return result


def check(geodesics, results):
    return [None if res is None else _check_one(g, res[1]) for g, res in zip(geodesics, results)]


def _check_one(g, J1):
    """J(1) = C(1) + S(1) B for R = diag(0, kappa |v|^2), kappa the sectional
    curvature: cos/sin blocks for kappa > 0, cosh/sinh for kappa < 0."""
    kappa = g.model.sectional()
    w = math.sqrt(abs(kappa)) * float(g.model.tangent_norm(g.x, g.v))
    if kappa > 0:
        c, s = math.cos(w), math.sin(w) / w
    elif kappa < 0:
        c, s = math.cosh(w), math.sinh(w) / w
    else:
        c, s = 1.0, 1.0
    exact = np.diag([1.0, c]) + np.diag([1.0, s]) @ g.B
    err = float(np.max(np.abs(np.reshape(J1, (2, 2)) - exact)))
    return None if err <= J_TOL else f"J(1) off the closed form by {err:.3e}"
