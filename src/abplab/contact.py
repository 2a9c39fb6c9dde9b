"""Contact sets: where concave distance-squared paraboloids touch u from below.

For an opening a > 0 and a vertex y, the touching functional is

    F_y(x) = u(x) + (a/2) rho^2(x, y),

minimized over the closed grid ball.  A vertex set E yields the contact set
A(a, E/Omega, u) as the union of all minimizers; by construction every vertex
is covered by at least one contact node.  The a/2 normalization matches the
paraboloid form -(a/2) rho^2 + c, which is the convention every downstream
gradient/Hessian identity relies on.

The grid minimization is exact at node resolution: a table of distances per
vertex ring and lower bounds over angular blocks of nodes skip only nodes
that provably lie above the infimum plus the tie tolerance.  A vectorized
Riemannian Newton refinement upgrades contact locations to sub-cell accuracy
whenever the field carries closed-form derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import ScalarField, _frame_components, _radial_derivatives
from .geometry import GeodesicBallGrid, ModelSpace
from .report import CheckReport, _premise_failure, check_le

__all__ = [
    "ContactPair",
    "ContactSet",
    "compute_contact_set",
    "gradient_contact_residual",
    "check_contact_location",
    "refine_contact_points",
]

_BLOCK = 8            # angular nodes per block of the pruned scan
_TIE_TOL = 1e-12      # minimizers within this of the infimum are all retained
_NEWTON_ITERS = 12    # most Newton steps of the refinement
_NEWTON_TOL = 1e-12   # it stops once both frame components of grad F are below this


@dataclass(frozen=True)
class ContactPair:
    x: np.ndarray        # contact point
    y: np.ndarray        # vertex, in E
    a: float             # opening
    c: float             # paraboloid level c_y == achieved infimum
    min_value: float
    x_index: int         # flat node index of the contact node
    y_index: int


@dataclass
class ContactSet:
    model: ModelSpace
    grid: GeodesicBallGrid
    a: float
    vertex_indices: np.ndarray   # flat indices of E
    contact_of: np.ndarray       # primary contact node per vertex (same length)
    min_values: np.ndarray       # achieved infima per vertex
    ties: list = field(default_factory=list)  # (y_index, x_index) beyond the primary

    @property
    def node_indices(self) -> np.ndarray:
        """Distinct contact-node indices (the set A as grid nodes)."""
        extra = np.array([x for _, x in self.ties], dtype=np.int64)
        return np.unique(np.concatenate([self.contact_of, extra])) if len(self.ties) \
            else np.unique(self.contact_of)

    def pairs(self) -> list:
        pts = self.grid.flat_points()
        out = []
        order = np.lexsort((self.contact_of, self.vertex_indices))
        for i in order:
            yi, xi = int(self.vertex_indices[i]), int(self.contact_of[i])
            out.append(ContactPair(pts[xi], pts[yi], self.a,
                                   float(self.min_values[i]), float(self.min_values[i]),
                                   xi, yi))
        for yi, xi in sorted(self.ties):
            pos = int(np.searchsorted(self.vertex_indices, yi))
            out.append(ContactPair(pts[xi], pts[yi], self.a,
                                   float(self.min_values[pos]), float(self.min_values[pos]),
                                   int(xi), int(yi)))
        return out


def compute_contact_set(m: ModelSpace, u: ScalarField, a: float,
                        E: np.ndarray, Omega: Optional[GeodesicBallGrid] = None,
                        chunk: int = 128) -> ContactSet:
    """Exact contact-set computation over the grid closure, by pruned scan.

    Every model is isotropic about the grid centre, so rho^2 from vertex
    (ring iv, angle jv) to node (i, j) is T_iv[i, (j - jv) mod n_theta], with
    T_iv the distances from node (iv, 0): one table per vertex ring replaces
    every transcendental call of the scan.  The angles are split into blocks
    of _BLOCK nodes.  For each block of vertices on one ring, a node block
    is bounded below by min u over it plus the least (a/2) T_iv over the
    angle differences the two blocks can have.  Only node blocks whose bound
    is at most the exact minimum over the best-bounded block, at its worst
    vertex, plus _TIE_TOL are evaluated.  Rounding is monotone, so every
    skipped node lies more than _TIE_TOL above the infimum: minimisers and
    ties (all nodes within _TIE_TOL of the infimum) are exactly those of a
    scan of all nodes with the tabulated distances.

    Parameters
    ----------
    E : array of flat node indices (the vertex set, a subset of the grid).
    Omega : defaults to the grid carried by u.
    chunk : most vertices evaluated together.
    """
    grid = Omega if Omega is not None else u.grid
    E = np.asarray(E, dtype=np.int64)
    if E.size == 0:
        raise ValueError("empty vertex set E")
    if not a > 0:
        raise ValueError("opening a must be > 0")
    uf = u.values.reshape(-1)
    if np.any(np.isnan(uf)):
        raise ValueError("u has NaN values")
    X = grid.flat_points()
    if m.kind == "sphere":
        dE = float(np.max(m.distance(grid.center, X[E])))
        if 2.0 * grid.radius + 2.0 * dE >= 0.5 * math.pi / math.sqrt(m.k):
            raise ValueError("sphere domain too large: diam(Omega) + diam(E) "
                             "must stay below pi/(2 sqrt k)")
    n_r, n_t = grid.n_r, grid.n_theta
    B = _BLOCK
    n_b = -(-n_t // B)
    padded = np.full((n_r, n_b * B), np.inf)
    padded[:, :n_t] = uf.reshape(n_r, n_t)
    u_block = padded.reshape(n_r, n_b, B).min(axis=2)
    # the angle differences j - jv between a vertex block and the node block
    # d blocks away, d = 1 - n_b .. n_b - 1
    window = (np.arange(1 - n_b, n_b)[:, None] * B + np.arange(1 - B, B)[None, :]) % n_t
    shift = np.arange(n_b)[None, :] - np.arange(n_b)[:, None] + n_b - 1   # [bv, b] -> d
    block_start = (np.arange(n_r)[:, None] * n_t + np.arange(n_b)[None, :] * B).ravel()
    block_len = np.tile(np.minimum(B, n_t - np.arange(n_b) * B), n_r)
    # position of node (i, j) in the doubled table, at vertex angle 0
    column = (np.arange(n_r)[:, None] * (2 * n_t) + np.arange(n_t)[None, :] + n_t).ravel()

    ring, ang = np.divmod(E, n_t)
    order = np.lexsort((ang, ring))
    ring_starts = np.flatnonzero(np.diff(ring[order], prepend=-1))
    n_y = len(E)
    contact = np.empty(n_y, np.int64)
    minval = np.empty(n_y)
    tie_rows, tie_nodes = [], []
    for s, e in zip(ring_starts, np.append(ring_starts[1:], n_y)):
        iv = int(ring[order[s]])
        T = (0.5 * a) * m.distance(X[iv * n_t], X).reshape(n_r, n_t) ** 2
        T_wrap = np.concatenate([T, T], axis=1).reshape(-1)
        T_window = T[:, window].min(axis=2)
        for lo in range(s, e, chunk):
            rows = order[lo:min(lo + chunk, e)]
            jv = ang[rows]
            vb, first, count = np.unique(jv // B, return_index=True, return_counts=True)
            lower = (u_block[None, :, :] + T_window[:, shift[vb]].transpose(1, 0, 2)
                     ).reshape(len(vb), -1)
            # upper bound per vertex block: the exact minimum over its
            # best-bounded node block (a short block repeats its last node),
            # at the worst vertex of the block
            top = np.repeat(np.argmin(lower, axis=1), count)
            nodes = block_start[top][:, None] + np.minimum(np.arange(B)[None, :],
                                                           block_len[top][:, None] - 1)
            F = uf[nodes] + T_wrap[column[nodes] - jv[:, None]]
            ub = np.maximum.reduceat(F.min(axis=1), first) + _TIE_TOL
            for g in range(len(vb)):
                keep = lower[g] <= ub[g]
                nodes = _ranges(block_start[keep], block_len[keep])
                r = slice(first[g], first[g] + count[g])
                F = uf[nodes][None, :] + T_wrap[column[nodes][None, :] - jv[r, None]]
                amin = np.argmin(F, axis=1)
                fmin = F[np.arange(len(F)), amin]
                contact[rows[r]] = nodes[amin]
                minval[rows[r]] = fmin
                near = F <= (fmin + _TIE_TOL)[:, None]
                if np.count_nonzero(near) > len(F):
                    near[np.arange(len(F)), amin] = False
                    v, k = np.nonzero(near)
                    tie_rows.append(rows[r][v])
                    tie_nodes.append(nodes[k])
    ties = []   # in the order of E, nodes ascending per vertex
    if tie_rows:
        tie_rows = np.concatenate(tie_rows)
        tie_nodes = np.concatenate(tie_nodes)
        by_vertex = np.argsort(tie_rows, kind="stable")
        ties = [(int(E[p]), int(x)) for p, x in zip(tie_rows[by_vertex], tie_nodes[by_vertex])]
    return ContactSet(m, grid, float(a), E, contact, minval, ties)


def _ranges(start, length):
    """Concatenated arange(start[k], start[k] + length[k]) over k."""
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(int(length.sum()))


def gradient_contact_residual(m: ModelSpace, u: ScalarField, pair: ContactPair) -> float:
    """|grad u(x) + a rho grad rho_y(x)|: zero certifies an interior contact."""
    if not u.has_derivatives:
        raise ValueError("gradient residual needs a closed-form gradient")
    x, y = pair.x, pair.y
    g = u.grad(x) - pair.a * m.log(x, y)  # a * grad(rho_y^2/2) = -a log_x(y)
    return float(m.tangent_norm(x, g))


def refine_contact_points(m: ModelSpace, u: ScalarField, a: float,
                          Y: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Riemannian Newton descent of F_y from X0, vectorized over vertices.

    Requires closed-form derivatives of u.  Steps are clamped to half the
    grid radius; points whose Hessian degenerates keep their last iterate.
    """
    if not u.has_derivatives:
        raise ValueError("refinement needs closed-form derivatives")
    X = np.array(X0, float)
    cap = 0.5 * u.grid.radius
    for _ in range(_NEWTON_ITERS):
        # rho_y^2 / 2 is the radial function with f' = rho, f'' = 1
        gd, Hd = _radial_derivatives(m, Y, X, lambda r: r, np.ones_like)
        gu, Hu = u.jet(X)
        g = gu + a * gd
        H = Hu + a * Hd
        e1, e2 = m.tangent_frame(X)
        g1 = m.tangent_inner(X, g, e1)
        g2 = m.tangent_inner(X, g, e2)
        h = _frame_components(m, H, e1, e2)
        h11, h12, h22 = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
        det = h11 * h22 - h12 * h12
        ok = np.abs(det) > 1e-14
        dets = np.where(ok, det, 1.0)
        d1 = -(h22 * g1 - h12 * g2) / dets
        d2 = -(h11 * g2 - h12 * g1) / dets
        step = d1[..., None] * e1 + d2[..., None] * e2
        ln = m.tangent_norm(X, step)
        scale = np.where(ln > cap, cap / np.where(ln > cap, ln, 1.0), 1.0)
        step = step * (scale * ok)[..., None]
        X = m.exp(X, step)
        if float(np.max(np.abs(np.stack([g1, g2])))) < _NEWTON_TOL:
            break
    return X


def check_contact_location(m: ModelSpace, u: ScalarField, a: float,
                           x0, r: float, y0, l: float, t: float) -> CheckReport:
    """Inclusion of the contact set in the inner ball and low sub-level set.

    With u(y0) = l somewhere in the half ball and u >= t on the 5r/6 shell,
    l < t forces A(a, B_{r/6}(y0)/B_r(x0), u) into B_{5r/6}(x0) intersected
    with {u <= l + a r^2/36}.  Premise violations are reported, not raised.
    """
    return _contact_location(m, u, a, x0, r, y0, l, t)


def _location_vertices(grid: GeodesicBallGrid, y0, r: float) -> np.ndarray:
    """The vertex set B_{r/6}(y0) as flat node indices."""
    return np.flatnonzero(grid.mask_within(y0, r / 6.0).ravel())


def _contact_location(m, u, a, x0, r, y0, l, t, cs: Optional[ContactSet] = None):
    """The location report of check_contact_location, read from cs when the
    caller has already scanned the vertex set _location_vertices(u.grid, y0, r)
    with opening a; otherwise the scan runs here, after the premises pass."""
    pre = _location_premises(m, u, x0, r, y0, l, t)
    if pre is not None:
        return _premise_failure("contact-location", pre)
    # vertices must include y0's node so the touching bound below is exact
    if cs is None:
        cs = compute_contact_set(m, u, a, _location_vertices(u.grid, y0, r))
    nodes = cs.node_indices
    pts = u.grid.flat_points()[nodes]
    d_x0 = m.distance(np.asarray(x0, float), pts)
    uvals = u.values.reshape(-1)[nodes]
    # discrete minimization over nodes reproduces the touching inequality
    # exactly whenever y0 is itself a node, so only float slack is allowed
    grid_tol = 1e-9 * max(1.0, abs(l), a * r * r)
    level = l + a * r * r / 36.0
    worst_d = float(np.max(d_x0))
    worst_u = float(np.max(uvals))
    return check_le("contact-location", "contact-location",
                    max(worst_d - 5.0 * r / 6.0, worst_u - level - grid_tol), 0.0,
                    max_distance=worst_d, ball_bound=5.0 * r / 6.0,
                    max_value=worst_u, level_bound=level, grid_tol=grid_tol,
                    tight_level=l + a * r * r / 72.0,
                    n_contact_nodes=int(len(nodes)))


def _location_premises(m, u, x0, r, y0, l, t):
    """Premise screening; u >= t is required on the annulus B_r minus B_{5r/6},
    which is the form the contradiction argument actually consumes."""
    grid = u.grid
    if not l < t:
        return "l < t"
    if m.distance(np.asarray(x0, float), np.asarray(y0, float)) > r / 2.0 + 1e-12:
        return "y0 in closed B_{r/2}(x0)"
    uy0 = float(u.value(y0)) if u.has_derivatives else None
    if uy0 is not None and abs(uy0 - l) > 1e-9 * max(1.0, abs(l)):
        return "u(y0) = l"
    annulus = ~grid.mask_within(x0, 5.0 * r / 6.0)
    if np.any(annulus) and np.min(u.values[annulus]) < t - 1e-12:
        return "u >= t on B_r(x0) minus B_{5r/6}(x0)"
    return None
