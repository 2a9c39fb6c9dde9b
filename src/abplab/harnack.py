"""End-to-end Harnack-inequality checks and the local growth bound.

All three theorem-level checks share the same shape: hypothesis screening on
the grid (reported as named premise violations, never exceptions), then the
inequality with ledger constants.  The constants are astronomically non-sharp
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .barrier import BarrierSpec, barrier_field
from .constants import ConstantsLedger, CurvatureParams, _log_doubling
from .contact import _location_vertices, check_contact_location, compute_contact_set
from .fields import ScalarField, sum_fields
from .geometry import GeodesicBallGrid, ModelSpace
from .measure import integral_I, log_lp_average
from .pde import node_laplacian_nu
from .report import CheckReport, _premise_failure, check_le

__all__ = ["HarnackInstance", "log_lp_average", "harnack_check_sup",
           "harnack_check_sub", "harnack_check_full", "growth_check"]


@dataclass
class HarnackInstance:
    """u, f sampled on a grid over B_{2R}; R is half the grid radius."""
    model: ModelSpace
    params: CurvatureParams
    grid: GeodesicBallGrid
    u: ScalarField
    f: ScalarField
    boundary: Optional[np.ndarray] = None  # Dirichlet trace of u, if known

    @property
    def R(self) -> float:
        return 0.5 * self.grid.radius


def _f_term_log(inst: HarnackInstance, ledger: ConstantsLedger) -> float:
    """log of R^2 (avg_{B_2R} |f|^{N eta})^{1/(N eta)}."""
    N, eta = inst.params.N, ledger.eta
    g = inst.grid
    lg = log_lp_average(np.abs(inst.f.values), g.weights, N * eta)
    return 2.0 * math.log(inst.R) + lg


def _nodewise_gap(inst: HarnackInstance, sense: str, tol: float = 1e-6):
    """max violation of Delta_nu u <=/=/>= f at the nodes.

    Closed-form fields are screened with their analytic weighted Laplacian;
    solver-produced fields with the solver's own stencil, which reproduces the
    right-hand side to rounding error so hypothesis and conclusion share bias.
    """
    lap = node_laplacian_nu(inst.u, boundary=inst.boundary)
    ok = np.isfinite(lap)
    d = lap[ok] - inst.f.values[ok]
    scale = max(1.0, float(np.max(np.abs(inst.f.values))),
                float(np.max(np.abs(lap[ok]))))
    if sense == "le":
        return float(np.max(d)), tol * scale
    if sense == "ge":
        return float(np.max(-d)), tol * scale
    return float(np.max(np.abs(d))), tol * scale


def harnack_check_sup(inst: HarnackInstance, ledger: ConstantsLedger,
                      op_tol: float = 1e-6) -> CheckReport:
    """Supersolution bound: (avg_{B_{R/2}} u^{p0})^{1/p0} against
    C0 (inf u + f-term), with C0 = exp(2/p0); compared in logs."""
    g, R = inst.grid, inst.R
    if inst.params.ricci_gap(inst.model, g.radius) > 1e-12:
        return _premise_failure("harnack-sup", "Ric_{N,nu} >= -K g on B_2R",
                                sharpness="non-sharp")
    if np.min(inst.u.values) < -1e-12:
        return _premise_failure("harnack-sup", "u >= 0 on B_2R",
                                sharpness="non-sharp")
    gap, tol = _nodewise_gap(inst, "le", op_tol)
    if gap > tol:
        return _premise_failure("harnack-sup", "Delta_nu u <= f nodewise",
                                sharpness="non-sharp")
    half = g.mask_within(g.center, 0.5 * R)
    log_lhs = log_lp_average(inst.u.values[half], g.weights[half], ledger.p0)
    inf_u = float(np.min(inst.u.values[half]))
    log_rhs = ledger.log_c0 + _log_add(math.log(max(inf_u, 0.0)) if inf_u > 0 else -math.inf,
                                       _f_term_log(inst, ledger))
    rep = check_le("harnack-sup", "supersolution-average-bound",
                   log_lhs, log_rhs, abs_tol=1e-9,
                   log_scale=True, sharpness="non-sharp",
                   inf_u=inf_u, p0=ledger.p0)
    return rep


def harnack_check_sub(inst: HarnackInstance, ledger: ConstantsLedger, p: float,
                      op_tol: float = 1e-6) -> CheckReport:
    """Subsolution bound: sup_{B_{R/2}} u against C1(p) [ (avg (u+)^p)^{1/p} + f-term].

    Only p >= p0 is supported; C1(p) = C1(p0) there.  Smaller p would need
    the interpolation constant the pipeline does not provide.
    """
    if p < ledger.p0:
        return _premise_failure("harnack-sub", "p >= p0", sharpness="non-sharp",
                                unsupported_p=p)
    if inst.params.ricci_gap(inst.model, inst.grid.radius) > 1e-12:
        return _premise_failure("harnack-sub", "Ric_{N,nu} >= -K g on B_2R",
                                sharpness="non-sharp")
    gap, tol = _nodewise_gap(inst, "ge", op_tol)
    if gap > tol:
        return _premise_failure("harnack-sub", "Delta_nu u >= f nodewise",
                                sharpness="non-sharp")
    g, R = inst.grid, inst.R
    half = g.mask_within(g.center, 0.5 * R)
    ball_R = g.mask_within(g.center, R)
    sup_u = float(np.max(inst.u.values[half]))
    log_lhs = math.log(sup_u) if sup_u > 0 else -math.inf
    log_avg = log_lp_average(np.maximum(inst.u.values[ball_R], 0.0),
                             g.weights[ball_R], p)
    log_rhs = ledger.log_c1_p0 + _log_add(log_avg, _f_term_log(inst, ledger))
    return check_le("harnack-sub", "subsolution-sup-bound",
                    log_lhs, log_rhs, abs_tol=1e-9,
                    log_scale=True, sharpness="non-sharp", p=p, sup_u=sup_u)


def harnack_check_full(inst: HarnackInstance, ledger: ConstantsLedger,
                       op_tol: float = 1e-6) -> CheckReport:
    """Two-sided bound for nonnegative solutions: sup <= C2 (inf + f-term)."""
    if inst.params.ricci_gap(inst.model, inst.grid.radius) > 1e-12:
        return _premise_failure("harnack-full", "Ric_{N,nu} >= -K g on B_2R",
                                sharpness="non-sharp")
    if np.min(inst.u.values) < -1e-12:
        return _premise_failure("harnack-full", "u >= 0 on B_2R",
                                sharpness="non-sharp")
    gap, tol = _nodewise_gap(inst, "eq", op_tol)
    if gap > tol:
        return _premise_failure("harnack-full", "Delta_nu u = f nodewise",
                                sharpness="non-sharp")
    g, R = inst.grid, inst.R
    half = g.mask_within(g.center, 0.5 * R)
    sup_u = float(np.max(inst.u.values[half]))
    inf_u = float(np.min(inst.u.values[half]))
    log_lhs = math.log(sup_u) if sup_u > 0 else -math.inf
    log_rhs = ledger.log_c2 + _log_add(
        math.log(inf_u) if inf_u > 0 else -math.inf, _f_term_log(inst, ledger))
    return check_le("harnack-full", "solution-harnack-bound",
                    log_lhs, log_rhs, abs_tol=1e-9,
                    log_scale=True, sharpness="non-sharp",
                    sup_u=sup_u, inf_u=inf_u,
                    sup_over_inf=sup_u / inf_u if inf_u > 0 else math.inf)


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = max(a, b)
    return m + math.log1p(math.exp(min(a, b) - m))


def growth_check(m: ModelSpace, params: CurvatureParams, ledger: ConstantsLedger,
                 u: ScalarField, f: ScalarField, x0, r: float,
                 f_big: Optional[ScalarField] = None,
                 op_tol: float = 1e-6) -> CheckReport:
    """The local growth bound plus the barrier/contact pipeline behind it.

    Premises (screened on the grid of u, which must cover B_r(x0)):
    u >= 0, inf_{B_{r/2}} u <= 1, Delta_nu u <= f nodewise, and the scaled
    f-integral over the large ball below delta0.

    Conclusion: nu[{u <= M} cap B_{r/18}] / nu[B_r] >= mu.

    Pipeline: with the barrier psi on B_r(x0), w = u + psi is driven into a
    contact configuration with opening 1/r^2 whose contact set must land in
    B_{5r/6} below the level w(y0) + 1/36, and whose measure inside B_{r/18}
    reproduces the mu lower bound.
    """
    grid = u.grid
    anchor = "local-growth"
    if params.ricci_gap(m, grid.radius) > 1e-12:
        return _premise_failure("growth-bound", "Ric_{N,nu} >= -K g on the working ball", anchor,
                                sharpness="non-sharp")
    if np.min(u.values) < -1e-12:
        return _premise_failure("growth-bound", "u >= 0 on B_r", anchor,
                                sharpness="non-sharp")
    half = grid.mask_within(x0, 0.5 * r)
    if float(np.min(u.values[half])) > 1.0 + 1e-12:
        return _premise_failure("growth-bound", "inf_{B_{r/2}} u <= 1", anchor,
                                sharpness="non-sharp")
    lap = node_laplacian_nu(u)
    ok = np.isfinite(lap)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if float(np.max(lap[ok] - f.values[ok])) > op_tol * scale:
        return _premise_failure("growth-bound", "Delta_nu u <= f on B_r", anchor,
                                sharpness="non-sharp")
    fi = f_big if f_big is not None else f
    big_radius = fi.grid.radius
    I1 = integral_I(m, params, fi, big_radius, 1.0)
    if I1 > ledger.delta0 * (1.0 + 1e-12):
        return _premise_failure("growth-bound", "I_{K,N}(f, B_2R, 1) <= delta0", anchor,
                                sharpness="non-sharp")

    K, N = params.K, params.N
    w_nodes = grid.flat_weights()
    total = float(np.sum(w_nodes))
    a18 = grid.mask_within(x0, r / 18.0)
    hit = a18 & (u.values <= ledger.big_m)
    ratio = float(np.sum(grid.weights[hit])) / total
    rep = check_le("growth-bound", anchor, ledger.mu, ratio, rel_tol=1e-9,
                   measure_ratio=ratio, mu=ledger.mu, sharpness="non-sharp")

    # proof pipeline: barrier, contact set, location, measure bound
    spec = BarrierSpec(ledger.alpha, m, np.asarray(x0, float), r)
    psi = barrier_field(grid, spec)
    w_field = sum_fields([u, psi]) if u.has_derivatives else \
        ScalarField(grid, u.values + psi.values)
    y0_flat = _masked_argmin(w_field.values, half)
    y0 = grid.flat_points()[y0_flat]
    l = float(w_field.values.reshape(-1)[y0_flat])
    t_level = 18.0**ledger.alpha - (4.0 / 3.0) ** ledger.alpha
    cs = compute_contact_set(m, w_field, 1.0 / r**2, _location_vertices(grid, y0, r))
    loc = check_contact_location(m, w_field, 1.0 / r**2, x0, r, y0, l, t_level, cs)
    rep.diagnostics["location_check_pass"] = bool(loc.passed)
    rep.diagnostics.update({f"location_{k}": v for k, v in loc.diagnostics.items()})

    nodes = cs.node_indices
    mask = np.zeros(grid.shape, bool)
    mask.reshape(-1)[nodes] = True
    a_mass = float(np.sum(grid.weights[mask & a18]))
    bound = (18.0**3 * ledger.alpha**2 * 18.0**ledger.alpha
             * math.cosh(params.omega * r)) ** (-N) \
        * math.exp(-4.0 * _log_doubling(K, N, 2 * r))
    rep.diagnostics["contact_mass_ratio"] = a_mass / total
    rep.diagnostics["contact_mass_bound"] = bound
    rep.diagnostics["mu"] = ledger.mu
    sub = u.values.reshape(-1)[nodes[np.isin(nodes, np.flatnonzero(a18.ravel()))]]
    rep.diagnostics["max_u_on_contact_core"] = float(np.max(sub)) if len(sub) else None
    pipeline_ok = (loc.passed and a_mass / total >= bound * (1 - 1e-9)
                   and a_mass / total >= ledger.mu * (1 - 1e-9)
                   and (len(sub) == 0 or float(np.max(sub)) <= ledger.big_m))
    rep.diagnostics["pipeline_pass"] = bool(pipeline_ok)
    rep.passed = rep.passed and pipeline_ok
    return rep


def _masked_argmin(values, mask) -> int:
    v = np.where(mask, values, np.inf).reshape(-1)
    return int(np.argmin(v))
