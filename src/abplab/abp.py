"""The measure-estimate inequality: nu[E] against the contact-set integral.

Two discretizations of the right-hand side are produced:

* ``rhs`` -- node-set quadrature over the computed contact nodes, plus a
  one-ring boundary allowance ``quad_tol`` reflecting that a node set only
  resolves the contact region to cell accuracy.  The pass verdict uses this
  side: pass  <=>  lhs <= rhs * (1 + 1e-6) + quad_tol.

* ``rhs_transport`` -- the same integral evaluated through the vertex
  parametrization y -> x(y) with Newton-refined contact locations and the
  exact area element 1/det J(1), J(1) the Jacobian of the contact map
  x -> exp_x(grad u(x)/a): jacobi's Jacobi field at t = 1, from the jet of
  u that Newton took at the certified x and jacobi's pair (cs, sn).  It
  drives the equality-case certification.  It streams over blocks of whole
  rings of about _BLOCK_POINTS points.  Its diagnostic
  min_pointwise_density, min over y of D(x(y))^N times the nu-area element
  ratio, is at least 1 by the Jacobi comparison.  A contact with det J(1)
  <= 0 is a fold of the contact map, a saddle of F_y, and fails by name.

The integrand clamps D at zero for finite N: at genuine contact points the
bound is nonnegative, so the clamp only suppresses grid-noise negatives; any
node with D < -1e-3 is surfaced as a diagnostic anomaly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .constants import CurvatureParams, calH, calS
from .contact import _NEWTON_BLOCK, _newton, compute_contact_set
from .fields import ScalarField, _laplacian_nu
from .geometry import GeodesicBallGrid, ModelSpace, _grid_label, _model_label, _same_nodes
from .jacobi import _cs_sn
from .pde import node_laplacian_nu
from .report import CheckReport, _premise_failure, check_le

__all__ = ["AbpInstance", "d_bound", "abp_check", "transport_rhs", "disc_vertex_indices"]

_REL_TOL = 1e-6  # relative tolerance of the measure-estimate verdict
# points of a transport block, which takes whole rings: as many as a Newton
# block of the contact set, whose temporaries it refines in cache
_BLOCK_POINTS = _NEWTON_BLOCK


@dataclass
class AbpInstance:
    """The measure estimate's data.  model and grid must be u's: a model
    differing by value from grid.model, or a grid without u's nodes, raises
    ValueError."""
    model: ModelSpace
    params: CurvatureParams
    grid: GeodesicBallGrid         # the ball B_r
    E: np.ndarray                  # flat node indices, closed subset of the ball
    u: ScalarField
    a: float

    def __post_init__(self):
        if self.model != self.grid.model:
            raise ValueError(f"model is {_model_label(self.model)}, but the grid is on "
                             f"{_model_label(self.grid.model)}")
        if not _same_nodes(self.u.grid, self.grid):
            raise ValueError(f"the grid does not carry u's nodes: the grid is "
                             f"{_grid_label(self.grid)}, u's is {_grid_label(self.u.grid)}")


def d_bound(K: float, N, r: float, a: float, lap_nu_u) -> np.ndarray:
    """The comparison bound evaluated at given weighted-Laplacian values.

    N < inf:  S(r w) [ H(r w) + lap/(N a) ],  w = 2 sqrt(K/N)
    N = inf:  2 r^2 K + lap/a
    with the K = 0 case reached through the analytic limits H(0) = S(0) = 1.
    """
    lap = np.asarray(lap_nu_u, float)
    if not a > 0:
        raise ValueError("opening a must be positive")
    if math.isinf(N):
        return 2.0 * r * r * K + lap / a
    S, H = _S_H(r * (2.0 * math.sqrt(K / N)))
    return S * (H + lap / (N * a))


@cache
def _S_H(t: float):
    """(calS(t), calH(t)), kept per t: a transport verdict asks once per block."""
    return calS(t), calH(t)


def disc_vertex_indices(grid: GeodesicBallGrid, n_rings: int) -> np.ndarray:
    """Vertex set = the first n_rings complete rings (a disc of nodes), at
    most all n_r: the flat indices of their nodes, in an array of their own."""
    return np.arange(min(n_rings, grid.n_r) * grid.n_theta)


def _integrand(K, N, r, a, lap, clamp_report=None):
    D = d_bound(K, N, r, a, lap)
    if math.isinf(N):
        return np.exp(D)
    if clamp_report is not None and np.any(D < -1e-3):
        clamp_report["negative_bound_nodes"] = int(np.sum(D < -1e-3))
        clamp_report["most_negative_bound"] = float(np.min(D))
    return np.maximum(D, 0.0) ** N


def transport_rhs(inst: AbpInstance, n_rings: int) -> dict:
    """The transport side of inst over the disc of its first n_rings rings;
    see _transport_rhs."""
    return _transport_rhs(inst, n_rings, None)


def _transport_rhs(inst: AbpInstance, n_rings: int, refined) -> dict:
    """Contact integral through the vertex parametrization (structured E only):
    E must be the disc of the first n_rings full rings, else ValueError.

    Each vertex y adds its weight times D(x)^N e^{-(V(x) - V(y))} / det J(1)
    at its contact x, refined by Newton from y, so the disc runs in blocks of
    whole rings, round(n / _BLOCK_POINTS) of them for n vertices, as even as
    the rings allow; no value depends on the blocks.  refined, the contact
    set's Newton from the vertices of E (ContactSet.refined), stands in for
    Newton's run here.  A block checks that its points are finite, then
    reads Delta_nu u and det J(1) (_jacobian_det) from the jet of u that
    Newton took where it certified x (or at its last iterate), in the frame
    it took it in, Delta u as h11 + h22 of the rows det J(1) needs anyway.
    Returns the contact_points with rhs_transport and min_pointwise_density,
    or with a numerical_failure that names the non-finite points, or the
    folds (det J(1) <= 0) by count and least det.
    """
    m, grid, u, a = inst.model, inst.grid, inst.u, inst.a
    disc = disc_vertex_indices(grid, n_rings)
    if not np.array_equal(inst.E, disc):
        raise ValueError(f"E ({len(inst.E)} vertices) is not the disc of the first "
                         f"{n_rings} rings ({len(disc)} vertices) that n_rings names")
    K, N = inst.params.K, inst.params.N
    Y = grid.points[:n_rings].reshape(-1, grid.points.shape[-1])
    W = grid.weights[:n_rings].reshape(-1)
    X, nu_G = np.empty(Y.shape), np.empty(len(Y))   # nu_G: each vertex's term of the rhs
    n_blocks = max(1, round(len(Y) / _BLOCK_POINTS))
    step = -(-n_rings // n_blocks) * grid.n_theta   # whole rings, as even as they go
    finite, folds, least_det, least_density = True, 0, math.inf, math.inf
    for lo in range(0, len(Y), step):
        y = Y[lo:lo + step]
        x, grad, h, frame = (_newton(u, a, y, y) if refined is None
                             else refined.rows(slice(lo, lo + step)))[:4]
        X[lo:lo + step] = x
        finite = finite and bool(np.isfinite(x).all())
        if not finite:
            continue
        det = _jacobian_det(m, x, grad, h, a, frame)
        folds += int(np.count_nonzero(~(det > 0.0)))
        least_det = float(np.minimum(least_det, np.min(det)))   # NaN stays NaN
        if folds:
            continue
        # D^N times the nu-area element ratio e^{-(V(x) - V(y))} / det J(1)
        density = _integrand(K, N, grid.radius, a, _laplacian_nu(m, x, grad, h[0] + h[2])) / det
        if m.is_weighted:   # the weight ratio is exactly 1 where V = 0
            density *= np.exp(-(m.weight_V(x) - m.weight_V(y)))
        np.multiply(density, W[lo:lo + step], out=nu_G[lo:lo + step])
        least_density = float(np.minimum(least_density, np.min(density)))
    out = {"contact_points": X}
    if not finite:
        lost = int(np.sum(~np.isfinite(X).all(axis=-1)))
        out["numerical_failure"] = f"{lost} of {len(X)} refined contact points are not finite"
    elif folds:
        out.update(numerical_failure=f"{folds} of {len(X)} contact points are folds of the "
                   f"contact map, det J(1) <= 0 (least {least_det:.6g}): saddles of F_y",
                   fold_points=folds, least_jacobian_det=least_det)
    else:
        out.update(rhs_transport=float(np.sum(nu_G)), min_pointwise_density=least_density)
    return out


def _jacobian_det(m: ModelSpace, x, grad, h, a: float, frame):
    """det J(1) of the contact map x -> exp_x(grad u(x)/a) from u's jet (grad,
    h) in the orthonormal frame at x: jacobi's J(t) = diag(1, cs) + diag(t,
    sn) H at t = 1, H = Hess u/a in the frame of v = grad u/a and its
    rotation, L = |v| and (cs, sn) = jacobi._cs_sn(m, L, 1), so

        det J(1) = sn det(I + H) + (cs - sn)(1 + H_vv),

    H_vv = H(v/L, v/L).  cs = sn = 1 on the flat charts and at grad u = 0."""
    h11, h12, h22 = h / a
    det = (1.0 + h11) * (1.0 + h22) - h12 * h12
    if m.is_flat_chart:
        return det
    g1, g2 = (m.tangent_inner(x, grad, e) for e in frame)
    q = g1 * g1 + g2 * g2
    cs, sn = _cs_sn(m, np.sqrt(q) / a, 1.0)
    h_vv = h11 * g1 * g1 + 2.0 * h12 * g1 * g2 + h22 * g2 * g2
    h_vv /= np.where(q > 0.0, q, 1.0)   # the numerator is 0 where q is
    return sn * det + (cs - sn) * (1.0 + h_vv)


def abp_check(inst: AbpInstance, set_stride: int = 1, n_rings: Optional[int] = None) -> CheckReport:
    """Certify nu[E] <= contact-set integral of the comparison bound.

    set_stride = 1 runs the exact node scan over all of E and bases the
    verdict on the node-set quadrature.  set_stride = 0 skips the scan; the
    verdict then comes from the transport quadrature, which requires the
    structured disc vertex set (n_rings) and closed-form derivatives.
    """
    if set_stride not in (0, 1):
        raise ValueError("set_stride must be 0 or 1")
    m, grid, u, a = inst.model, inst.grid, inst.u, inst.a
    K, N, r = inst.params.K, inst.params.N, grid.radius
    gap = inst.params.ricci_violation(m, grid.center, r)
    if gap:
        return _premise_failure("measure-estimate", "Ric_{N,nu} >= -K g on the ball",
                                ricci_gap=gap)
    wf = grid.flat_weights()
    lhs = float(np.sum(wf[inst.E]))
    n_r, n_t = grid.shape
    diag: dict = {"set_stride": set_stride, "n_vertices": int(len(inst.E))}

    rhs_nodes, quad_tol, refined = None, 0.0, None
    if set_stride == 1:
        cs = compute_contact_set(u, a, inst.E)
        # the transport takes the contact set's Newton; no copy outlives the verdict
        refined, cs.refined = cs.refined, None
        nodes = cs.node_indices
        if np.any(nodes // n_t >= n_r - 1):
            return _premise_failure("measure-estimate", "contact set contained in the open ball")
        G_nodes = _integrand(K, N, r, a, node_laplacian_nu(u, nodes), diag)
        rhs_nodes = float(np.sum(G_nodes * wf[nodes]))
        quad_tol = _boundary_allowance(inst, nodes, G_nodes)
        diag.update(n_contact_nodes=int(len(nodes)), rhs_nodes=rhs_nodes)

    tr = None
    if n_rings is not None and u.has_derivatives:
        tr = (transport_rhs(inst, n_rings) if refined is None
              else _transport_rhs(inst, n_rings, refined))
        X = tr.pop("contact_points")
        if "numerical_failure" in tr:
            return check_le("measure-estimate", "measure-estimate", 1.0, 0.0, **tr, **diag)
        max_reach = float(np.max(m.distance(grid.center, X)))
        if not max_reach < r - 0.5 * grid.drho:
            return _premise_failure("measure-estimate", "contact set contained in the open ball")
        diag.update(rhs_transport=tr["rhs_transport"],
                    equality_gap=abs(lhs - tr["rhs_transport"]) / max(lhs, 1e-300),
                    min_pointwise_density=tr["min_pointwise_density"], max_contact_reach=max_reach)

    if set_stride == 1:
        diag["verdict_basis"] = "node_quadrature"
        return check_le("measure-estimate", "measure-estimate", lhs, rhs_nodes, rel_tol=_REL_TOL,
                        abs_tol=quad_tol, quad_tol=quad_tol, **diag)
    if tr is None:
        raise ValueError("a verdict without the scan needs the transport side")
    diag["verdict_basis"] = "transport_quadrature"
    return check_le("measure-estimate", "measure-estimate", lhs, tr["rhs_transport"],
                    rel_tol=_REL_TOL, abs_tol=_REL_TOL * lhs, **diag)


def _boundary_allowance(inst: AbpInstance, nodes, G_nodes) -> float:
    """One-cell dilation mass: the node set resolves A only to cell accuracy."""
    grid = inst.grid
    mask = np.zeros(grid.shape, bool)
    mask.reshape(-1)[nodes] = True
    grown = mask.copy()
    grown[1:] |= mask[:-1]
    grown[:-1] |= mask[1:]
    grown |= np.roll(mask, 1, axis=1) | np.roll(mask, -1, axis=1)
    shell = grown & ~mask
    Gmax = float(np.max(G_nodes)) if len(np.atleast_1d(G_nodes)) else 1.0
    return float(np.sum(grid.weights[shell])) * Gmax
