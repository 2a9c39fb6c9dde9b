"""The measure-estimate inequality: nu[E] against the contact-set integral.

Two discretizations of the right-hand side are produced:

* ``rhs`` -- node-set quadrature over the computed contact nodes, plus a
  one-ring boundary allowance ``quad_tol`` reflecting that a node set only
  resolves the contact region to cell accuracy.  The pass verdict uses this
  side: pass  <=>  lhs <= rhs * (1 + 1e-6) + quad_tol.

* ``rhs_transport`` -- the same integral evaluated through the vertex
  parametrization y -> x(y) with Newton-refined contact locations and a
  finite-difference area element.  For injective contact maps this is an
  O(h^2)-accurate value of the contact integral and drives the equality-case
  certification.  Its diagnostic min_pointwise_density, min over y of
  D(x(y))^N times the nu-area element ratio, is 1 in theory but a
  finite-difference estimate biased low by the stencil (0.982 at 48^2 and
  0.996 at 96^2 for a random euclidean field); no verdict reads it.  The
  source patch's Gram determinant depends on the grid and n_rings alone, so
  it is computed once per (grid, n_rings) and kept with the grid, whose
  arrays are read-only after the build; on a model with V = 0 the weight
  ratio exp(-(V(x) - V(y))) is exactly 1 and is not formed.

The integrand clamps D at zero for finite N: at genuine contact points the
bound is nonnegative, so the clamp only suppresses grid-noise negatives; any
node with D < -1e-3 is surfaced as a diagnostic anomaly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CurvatureParams, calH, calS
from .contact import compute_contact_set, refine_contact_points
from .fields import ScalarField
from .geometry import GeodesicBallGrid, ModelSpace, _grid_label, _model_label, _same_nodes
from .pde import node_laplacian_nu
from .report import CheckReport, _premise_failure, check_le

__all__ = ["AbpInstance", "d_bound", "abp_check", "transport_rhs", "disc_vertex_indices"]

_REL_TOL = 1e-6  # relative tolerance of the measure-estimate verdict


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
    w = 2.0 * math.sqrt(K / N)
    return calS(r * w) * (calH(r * w) + lap / (N * a))


def disc_vertex_indices(grid: GeodesicBallGrid, n_rings: int) -> np.ndarray:
    """Vertex set = the first n_rings complete rings (a disc of nodes)."""
    idx = np.arange(grid.n_r * grid.n_theta).reshape(grid.shape)
    return idx[:n_rings].reshape(-1)


def _integrand(K, N, r, a, lap, clamp_report=None):
    D = d_bound(K, N, r, a, lap)
    if math.isinf(N):
        return np.exp(D)
    if clamp_report is not None and np.any(D < -1e-3):
        clamp_report["negative_bound_nodes"] = int(np.sum(D < -1e-3))
        clamp_report["most_negative_bound"] = float(np.min(D))
    return np.maximum(D, 0.0) ** N


def transport_rhs(inst: AbpInstance, n_rings: int) -> dict:
    """Contact integral through the vertex parametrization (structured E only).

    E must be the disc of the first n_rings full rings; any other n_rings
    raises ValueError.  Newton refinement starts from the vertices themselves;
    with openings dominating the field's Hessian the functional is strictly
    convex and the iteration is safe.  The source Gram comes from the grid's
    cache (_source_gram); on an unweighted model (V = 0) the weight ratio,
    exactly 1 there, is skipped.
    """
    m, grid, u, a = inst.model, inst.grid, inst.u, inst.a
    disc = disc_vertex_indices(grid, n_rings)
    if not np.array_equal(inst.E, disc):
        raise ValueError(f"E ({len(inst.E)} vertices) is not the disc of the first "
                         f"{n_rings} rings ({len(disc)} vertices) that n_rings names")
    K, N = inst.params.K, inst.params.N
    # area elements by the same FD stencil on the image and the source, so the
    # chord bias of the stencil cancels in the ratio; the identity map then
    # reproduces the source quadrature weights exactly
    gram_Y = _source_gram(grid, n_rings)
    Y = grid.points[:n_rings].reshape(-1, grid.points.shape[-1])
    X = refine_contact_points(m, u, a, Y, Y)
    T = X.reshape((n_rings, grid.n_theta, X.shape[-1]))
    gram_T = _fd_gram(m, T, grid.rho[:n_rings], grid.dtheta)
    ratio = np.sqrt(np.maximum(gram_T, 0.0) / gram_Y)
    lap = u.laplacian_nu(T)
    Gv = _integrand(K, N, grid.radius, a, lap)
    nu_area = grid.weights[:n_rings] * ratio
    density = Gv * ratio
    if m.is_weighted:
        wr = np.exp(-(m.weight_V(T) - m.weight_V(grid.points[:n_rings])))
        nu_area *= wr
        density *= wr
    rhs = float(np.sum(Gv * nu_area))
    return {
        "rhs_transport": rhs,
        "min_pointwise_density": float(np.min(density)),
        "contact_points": X,
    }


def _source_gram(grid: GeodesicBallGrid, n_rings: int):
    """_fd_gram of the grid's own disc of n_rings rings, computed on the first
    call and kept, read-only, in grid._grams: it reads only the grid's
    points, rho and n_theta, which cannot change after the build."""
    gram = grid._grams.get(n_rings)
    if gram is None:
        gram = _fd_gram(grid.model, grid.points[:n_rings], grid.rho[:n_rings], grid.dtheta)
        gram.flags.writeable = False
        grid._grams[n_rings] = gram
    return gram


def _fd_gram(m: ModelSpace, T, rho, dtheta):
    """det of the first fundamental form of a (rho, theta)-parametrized patch.

    The differences run on each coordinate plane T[..., i] of the patch and
    give contiguous planes, whose inner products are summed in the model's
    own order (Minkowski on the hyperboloid).  The theta differences are
    central and wrap around each ring, written slice by slice into one array
    per plane."""
    edge_order = 2 if len(rho) > 2 else 1
    C = [T[..., i] for i in range(T.shape[-1])]
    t_r = [np.gradient(c, rho, axis=0, edge_order=edge_order) for c in C]
    t_t = []
    for c in C:
        d = np.empty(c.shape)
        np.subtract(c[:, 2:], c[:, :-2], out=d[:, 1:-1])
        np.subtract(c[:, 1], c[:, -1], out=d[:, 0])
        np.subtract(c[:, 0], c[:, -2], out=d[:, -1])
        d /= 2.0 * dtheta
        t_t.append(d)

    def inner(v, w):
        return m._isum([vi * wi for vi, wi in zip(v, w)])

    g11 = inner(t_r, t_r)
    g22 = inner(t_t, t_t)
    g12 = inner(t_r, t_t)
    return g11 * g22 - g12 * g12


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
    gap = inst.params.ricci_gap(m, grid.center, r)
    if gap > 1e-12:
        return _premise_failure("measure-estimate", "Ric_{N,nu} >= -K g on the ball",
                                ricci_gap=gap)
    wf = grid.flat_weights()
    lhs = float(np.sum(wf[inst.E]))
    n_r, n_t = grid.shape
    diag: dict = {"set_stride": set_stride, "n_vertices": int(len(inst.E))}

    rhs_nodes = None
    quad_tol = 0.0
    if set_stride == 1:
        cs = compute_contact_set(u, a, inst.E)
        nodes = cs.node_indices
        if np.any(nodes // n_t >= n_r - 1):
            return _premise_failure("measure-estimate", "contact set contained in the open ball")
        G_nodes = _integrand(K, N, r, a, node_laplacian_nu(u, nodes), diag)
        rhs_nodes = float(np.sum(G_nodes * wf[nodes]))
        quad_tol = _boundary_allowance(inst, nodes, G_nodes)
        diag["n_contact_nodes"] = int(len(nodes))
        diag["rhs_nodes"] = rhs_nodes

    tr = None
    if n_rings is not None and u.has_derivatives:
        tr = transport_rhs(inst, n_rings)
        X = tr["contact_points"]
        finite = np.isfinite(X)
        if not finite.all():
            lost = int(np.sum(~finite.all(axis=-1)))
            return check_le("measure-estimate", "measure-estimate", 1.0, 0.0,
                            numerical_failure=f"{lost} of {len(X)} refined contact "
                                              f"points are not finite", **diag)
        max_reach = float(np.max(m.distance(grid.center, X)))
        if not max_reach < r - 0.5 * grid.drho:
            return _premise_failure("measure-estimate", "contact set contained in the open ball")
        diag["rhs_transport"] = tr["rhs_transport"]
        diag["equality_gap"] = abs(lhs - tr["rhs_transport"]) / max(lhs, 1e-300)
        diag["min_pointwise_density"] = tr["min_pointwise_density"]
        diag["max_contact_reach"] = max_reach

    if set_stride == 1:
        diag["verdict_basis"] = "node_quadrature"
        rep = check_le("measure-estimate", "measure-estimate",
                       lhs, rhs_nodes, rel_tol=_REL_TOL, abs_tol=quad_tol,
                       quad_tol=quad_tol, **diag)
    elif tr is not None:
        diag["verdict_basis"] = "transport_quadrature"
        rep = check_le("measure-estimate", "measure-estimate",
                       lhs, tr["rhs_transport"], rel_tol=_REL_TOL,
                       abs_tol=_REL_TOL * lhs, **diag)
    else:
        raise ValueError("a verdict without the scan needs the transport side")
    return rep


def _boundary_allowance(inst: AbpInstance, nodes, G_nodes) -> float:
    """One-cell dilation mass: the node set resolves A only to cell accuracy."""
    grid = inst.grid
    n_r, n_t = grid.shape
    mask = np.zeros((n_r, n_t), bool)
    mask.reshape(-1)[nodes] = True
    grown = mask.copy()
    grown[1:] |= mask[:-1]
    grown[:-1] |= mask[1:]
    grown |= np.roll(mask, 1, axis=1) | np.roll(mask, -1, axis=1)
    shell = grown & ~mask
    Gmax = float(np.max(G_nodes)) if len(np.atleast_1d(G_nodes)) else 1.0
    return float(np.sum(grid.weights[shell])) * Gmax
