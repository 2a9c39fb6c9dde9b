"""End-to-end Harnack-inequality checks and the local growth bound.

All four checks share the same shape: the constants built from the curvature
data alone, build_ledger(params); hypothesis screening on the grid (reported
as named premise violations, never exceptions); then the inequality with
those constants.  One screen checks the common premises -- the Ricci
bound on the ball, u >= 0 where the theorem needs it, and Delta_nu u <=, >= or
= f at every node -- with one tolerance, _OP_TOL * max(1, max|f|), for the
nodewise comparison.  The constants are astronomically non-sharp
at these scales -- C0 = exp(2/p0) overflows float64 -- so every comparison is
performed in log space and each report carries the label
``sharpness: "non-sharp"`` to make plain that the value of a green check is
pipeline correctness, not tightness.

Averages (avg u^p)^(1/p) with p below 1e-8 are evaluated through the
geometric-mean expansion: u^p = 1 + p log u to machine precision there, so
the naive power collapses to 1.0 and loses the entire quantity.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .barrier import BarrierSpec, barrier_field
from .constants import ConstantsLedger, CurvatureParams, _log_doubling, build_ledger
from .contact import _location_vertices, check_contact_location, compute_contact_set
from .fields import ScalarField, sum_fields
from .geometry import _grid_label, _same_nodes
from .measure import integral_I, log_lp_average
from .pde import node_laplacian_nu
from .report import CheckReport, _premise_failure, check_le

__all__ = ["harnack_check_sup", "harnack_check_sub", "harnack_check_full", "growth_check"]

_OP_TOL = 1e-6  # nodewise Delta_nu u against f, relative to max(1, max|f|)


def _f_term_log(ledger: ConstantsLedger, u: ScalarField, f: ScalarField) -> float:
    """log of R^2 (avg_{B_2R} |f|^{N eta})^{1/(N eta)}."""
    lg = log_lp_average(np.abs(f.values), u.grid.weights, ledger.params.N * ledger.eta)
    return 2.0 * math.log(ledger.params.R) + lg


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _half_ball(params: CurvatureParams, u: ScalarField) -> np.ndarray:
    """The node mask of B_{R/2}.  u's grid is the ball B_2R, so its radius must
    be 2 * params.R (relative 1e-12); any other radius raises ValueError."""
    g, R = u.grid, params.R
    if not abs(g.radius - 2.0 * R) <= 1e-12 * 2.0 * R:
        raise ValueError(f"u's grid has radius {g.radius!r}, but params.R = {R!r} "
                         f"asks for B_2R of radius {2.0 * R!r}")
    return g.mask_within(g.center, 0.5 * R)


def _nodewise_gap(u: ScalarField, f: ScalarField, sense: str, boundary) -> float:
    """Largest violation of Delta_nu u <=/>=/= f at the nodes, relative to
    max(1, max|f|).

    Closed-form fields are screened with their analytic weighted Laplacian;
    solver-produced fields with the solver's own stencil, which reproduces the
    right-hand side to rounding error so hypothesis and conclusion share bias.
    """
    lap = node_laplacian_nu(u, boundary=boundary)
    ok = np.isfinite(lap)
    d = lap[ok] - f.values[ok]
    gap = {"<=": d, ">=": -d, "=": np.abs(d)}[sense]
    return float(np.max(gap)) / max(1.0, float(np.max(np.abs(f.values))))


def _screen(name: str, params: CurvatureParams, u: ScalarField, f: ScalarField,
            sense: str, ball: str, nonneg: bool, boundary=None,
            anchor: str = "") -> Optional[CheckReport]:
    """The first violated premise, in the order Ric_{N,nu} >= -K g, u >= 0
    (if nonneg) and Delta_nu u {sense} f, as a failed report; None if all hold.
    Raises ValueError when f is not sampled on u's grid nodes and model: the
    nodewise screen pairs them node by node, and the f-terms integrate f over
    u's balls."""
    g, gf = u.grid, f.grid
    if not _same_nodes(g, gf):
        raise ValueError(f"f is not sampled on u's grid nodes: f's grid is {_grid_label(gf)},"
                         f" u's is {_grid_label(g)}")
    if params.ricci_violation(g.model, g.center, g.radius):
        which = f"Ric_{{N,nu}} >= -K g on {ball}"
    elif nonneg and np.min(u.values) < -1e-12:
        which = f"u >= 0 on {ball}"
    elif _nodewise_gap(u, f, sense, boundary) > _OP_TOL:
        which = f"Delta_nu u {sense} f nodewise"
    else:
        return None
    return _premise_failure(name, which, anchor, sharpness="non-sharp")


def harnack_check_sup(params: CurvatureParams, u: ScalarField, f: ScalarField,
                      boundary: Optional[np.ndarray] = None) -> CheckReport:
    """Supersolution bound on u's grid B_2R (boundary: u's Dirichlet trace, if known):
    (avg_{B_{R/2}} u^{p0})^{1/p0} against C0 (inf u + f-term), C0 = exp(2/p0)."""
    ledger = build_ledger(params)
    half = _half_ball(params, u)
    failed = _screen("harnack-sup", params, u, f, "<=", "B_2R", True, boundary)
    if failed:
        return failed
    log_lhs = log_lp_average(u.values[half], u.grid.weights[half], ledger.p0)
    inf_u = float(np.min(u.values[half]))
    log_rhs = ledger.log_c0 + np.logaddexp(_log(inf_u), _f_term_log(ledger, u, f))
    return check_le("harnack-sup", "supersolution-average-bound",
                    log_lhs, log_rhs, abs_tol=1e-9,
                    log_scale=True, sharpness="non-sharp",
                    inf_u=inf_u, p0=ledger.p0)


def harnack_check_sub(params: CurvatureParams, u: ScalarField, f: ScalarField, p: float,
                      boundary: Optional[np.ndarray] = None) -> CheckReport:
    """Subsolution bound on u's grid B_2R: sup_{B_{R/2}} u against
    C1(p) [ (avg (u+)^p)^{1/p} + f-term].

    Only p >= p0 is supported; C1(p) = C1(p0) there.  Smaller p would need
    the interpolation constant the pipeline does not provide.
    """
    ledger = build_ledger(params)
    half = _half_ball(params, u)
    if p < ledger.p0:
        return _premise_failure("harnack-sub", "p >= p0", sharpness="non-sharp",
                                unsupported_p=p)
    failed = _screen("harnack-sub", params, u, f, ">=", "B_2R", False, boundary)
    if failed:
        return failed
    g = u.grid
    ball_R = g.mask_within(g.center, params.R)
    sup_u = float(np.max(u.values[half]))
    log_avg = log_lp_average(np.maximum(u.values[ball_R], 0.0), g.weights[ball_R], p)
    log_rhs = ledger.log_c1_p0 + np.logaddexp(log_avg, _f_term_log(ledger, u, f))
    return check_le("harnack-sub", "subsolution-sup-bound",
                    _log(sup_u), log_rhs, abs_tol=1e-9,
                    log_scale=True, sharpness="non-sharp", p=p, sup_u=sup_u)


def harnack_check_full(params: CurvatureParams, u: ScalarField, f: ScalarField,
                       boundary: Optional[np.ndarray] = None) -> CheckReport:
    """Two-sided bound for nonnegative solutions on u's grid B_2R:
    sup <= C2 (inf + f-term)."""
    ledger = build_ledger(params)
    half = _half_ball(params, u)
    failed = _screen("harnack-full", params, u, f, "=", "B_2R", True, boundary)
    if failed:
        return failed
    sup_u = float(np.max(u.values[half]))
    inf_u = float(np.min(u.values[half]))
    log_rhs = ledger.log_c2 + np.logaddexp(_log(inf_u), _f_term_log(ledger, u, f))
    return check_le("harnack-full", "solution-harnack-bound",
                    _log(sup_u), log_rhs, abs_tol=1e-9,
                    log_scale=True, sharpness="non-sharp",
                    sup_u=sup_u, inf_u=inf_u,
                    sup_over_inf=sup_u / inf_u if inf_u > 0 else math.inf)


def growth_check(params: CurvatureParams, u: ScalarField, f: ScalarField,
                 x0, r: float) -> CheckReport:
    """The local growth bound plus the barrier/contact pipeline behind it.

    Premises (screened on the grid of u, which must cover B_r(x0) and whose
    model is the one checked; f is sampled on its nodes), in this
    order: Ric_{N,nu} >= -K g, u >= 0, Delta_nu u <= f nodewise,
    inf_{B_{r/2}} u <= 1, and the scaled f-integral I_{K,N}(f, B_r, 1) over
    the nodes of B_r(x0) below delta0.

    Conclusion: nu[{u <= M} cap B_{r/18}] / nu[B_r] >= mu.  A grid with no
    node in B_{r/18}(x0) cannot measure that set and raises ValueError.

    Pipeline: with the barrier psi on B_r(x0), w = u + psi is driven into a
    contact configuration with opening 1/r^2 whose contact set must land in
    B_{5r/6} below the level w(y0) + 1/36, and whose measure inside B_{r/18}
    reproduces the mu lower bound.

    Both fold into one stored comparison, max(mu, bound) <= min(ratio,
    certified) at rel_tol 1e-9, with bound the contact-mass lower bound and
    certified the contact-mass ratio of the core (the contact nodes in
    B_{r/18}) when the location check passes and u <= M on the core, else 0.
    Besides mu <= ratio and the pipeline's mu, bound <= certified, the fold
    asks bound <= ratio.  That follows from bound <= certified: a certified
    core lies in {u <= M} cap B_{r/18}, so its mass is at most ratio's.
    """
    ledger = build_ledger(params)
    grid = u.grid
    a18 = grid.mask_within(x0, r / 18.0)
    if not a18.any():
        raise ValueError(f"no node of u's grid ({_grid_label(grid)}) lies in B_{{r/18}}(x0), "
                         f"radius {r / 18.0:g}, where the check measures {{u <= M}}")
    anchor = "local-growth"
    failed = _screen("growth-bound", params, u, f, "<=", "B_r", True, anchor=anchor)
    if failed:
        return failed
    half = grid.mask_within(x0, 0.5 * r)
    if float(np.min(u.values[half])) > 1.0 + 1e-12:
        return _premise_failure("growth-bound", "inf_{B_{r/2}} u <= 1", anchor,
                                sharpness="non-sharp")
    if integral_I(params, f, x0, r, 1.0) > ledger.delta0 * (1.0 + 1e-12):
        return _premise_failure("growth-bound", "I_{K,N}(f, B_r, 1) <= delta0", anchor,
                                sharpness="non-sharp")

    K, N = params.K, params.N
    w_nodes = grid.flat_weights()
    total = float(np.sum(w_nodes))
    hit = a18 & (u.values <= ledger.big_m)
    ratio = float(np.sum(grid.weights[hit])) / total

    # proof pipeline: barrier, contact set, location, measure bound
    spec = BarrierSpec(ledger.alpha, grid.model, np.asarray(x0, float), r)
    psi = barrier_field(grid, spec)
    w_field = sum_fields([u, psi])
    y0_flat = int(np.argmin(np.where(half, w_field.values, np.inf)))
    y0 = grid.flat_points()[y0_flat]
    l = float(w_field.values.reshape(-1)[y0_flat])
    t_level = 18.0**ledger.alpha - (4.0 / 3.0) ** ledger.alpha
    cs = compute_contact_set(w_field, 1.0 / r**2, _location_vertices(grid, y0, r))
    loc = check_contact_location(w_field, 1.0 / r**2, x0, r, y0, l, t_level, cs)
    diag = {f"location_{k}": v for k, v in loc.diagnostics.items()}

    nodes = cs.node_indices
    core = nodes[a18.reshape(-1)[nodes]]  # contact nodes inside B_{r/18}
    a_mass = float(np.sum(w_nodes[core]))
    bound = (18.0**3 * ledger.alpha**2 * 18.0**ledger.alpha
             * math.cosh(params.omega * r)) ** (-N) \
        * math.exp(-4.0 * _log_doubling(K, N, 2 * r))
    sub = u.values.reshape(-1)[core]
    max_core = float(np.max(sub)) if len(sub) else None
    core_ok = loc.passed and (max_core is None or max_core <= ledger.big_m)
    certified = a_mass / total if core_ok else 0.0
    lhs = max(ledger.mu, bound)
    diag.update(location_check_pass=bool(loc.passed), contact_mass_ratio=a_mass / total,
                contact_mass_bound=bound, max_u_on_contact_core=max_core,
                pipeline_pass=lhs <= certified * (1 + 1e-9))
    return check_le("growth-bound", anchor, lhs, min(ratio, certified), rel_tol=1e-9,
                    measure_ratio=ratio, mu=ledger.mu, sharpness="non-sharp", **diag)
