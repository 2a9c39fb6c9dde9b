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
that provably lie above the infimum plus the tie tolerance.  A table row
rises with sin^2 of half the angle difference, so the bound of a pair of
blocks is the one column of the row at the angle difference of least
sin^2 between them, lowered by a relative 2^-40.  The upper bound
they are compared with is F at real nodes, among them the 3x3 patch about
the contact found for the same vertex angle on an earlier ring, and each
chunk of vertices gathers its surviving nodes in one list.  The tables come
from the nodes' polar coordinates about the grid centre by the law of
cosines, so they keep full precision at every radius, and the scan reads no
stored point.  Each vertex ring tabulates only the band of node rings that a
ring-level floor of F, min u plus the table's own entry at angle difference
0 lowered by a relative 2^-40, cannot exclude.  A vectorized Riemannian
Newton refinement upgrades contact locations to sub-cell accuracy whenever
the field carries closed-form derivatives; on the flat charts it works in
chart coordinates, where rho_y^2/2 = |x - y|^2/2 has its jet in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import _I_ROWS, ScalarField, _radial_derivatives
from .geometry import (GeodesicBallGrid, ModelSpace, _grid_label, _model_label, _same_nodes,
                       _scale)
from .report import CheckReport, _premise_failure, check_le

__all__ = [
    "ContactSet",
    "compute_contact_set",
    "gradient_contact_residual",
    "check_contact_location",
    "refine_contact_points",
]

_BLOCK = 8            # angular nodes per block of the pruned scan
_TIE_TOL = 1e-12      # minimizers within this of the infimum are all retained
# (ring, angle) offsets of the 3x3 node patch about a vertex angle's seed
_PATCH = np.array([np.repeat([-1, 0, 1], 3), np.tile([-1, 0, 1], 3)])
_NEWTON_ITERS = 12    # most Newton steps of the refinement
_NEWTON_TOL = 1e-12   # it stops once both frame components of grad F are below this
_DET_TOL = 1e-14      # a point whose |det Hess F| is at most this times a^2 keeps its iterate


@dataclass
class ContactSet:
    vertex_indices: np.ndarray   # flat indices of E
    contact_of: np.ndarray       # primary contact node per vertex (same length)
    min_values: np.ndarray       # achieved infima per vertex
    ties: np.ndarray             # (n, 2) rows (y_index, x_index) beyond the primary,
                                 # by position in E, then by node

    @property
    def node_indices(self) -> np.ndarray:
        """Distinct contact-node indices (the set A as grid nodes), ascending:
        the nodes a mask over them marks, which takes a fraction of the time
        np.unique's hashing does."""
        nodes = np.concatenate([self.contact_of, self.ties[:, 1]])
        mark = np.zeros(int(nodes.max()) + 1, bool)
        mark[nodes] = True
        return np.flatnonzero(mark)

    def pairs(self):
        """Arrays (vertex, node, level) over every contact pair: the flat
        indices of the vertex and of its contact node, and the vertex's
        infimum of F_y, the paraboloid's level c_y.  The primary pairs come
        first, by vertex, then the ties, by vertex and node."""
        ties = self.ties[np.lexsort((self.ties[:, 1], self.ties[:, 0]))]
        order = np.lexsort((self.contact_of, self.vertex_indices))
        # the row of each tie's vertex in E, which need not be ascending; each
        # vertex has one primary contact, so order sorts E
        tie_rows = order[np.searchsorted(self.vertex_indices, ties[:, 0], sorter=order)]
        rows = np.concatenate([order, tie_rows])
        return (self.vertex_indices[rows], np.concatenate([self.contact_of[order], ties[:, 1]]),
                self.min_values[rows])


def compute_contact_set(u: ScalarField, a: float, E: np.ndarray,
                        Omega: Optional[GeodesicBallGrid] = None,
                        chunk: int = 128) -> ContactSet:
    """Exact contact-set computation over the grid closure, by pruned scan.

    Every model is isotropic about the grid centre, so rho^2 from vertex
    (ring iv, angle jv) to node (i, j) is T_iv[i, (j - jv) mod n_theta], with
    T_iv the distances from node (iv, 0): one table per vertex ring replaces
    every transcendental call of the scan.  The angles are split into blocks
    of _BLOCK nodes.  For each block of vertices on one ring, a node block
    is bounded below by min u over it plus (a/2) T_iv at the angle
    difference of least sin^2(dtheta/2) that the two blocks can have,
    lowered by a relative 2^-40.  That lies below every (a/2) T_iv over
    those differences: by the law of cosines of _polar_rho_sq each row of
    T_iv rises with sin^2(dtheta/2), as the product with psi psi >= 0, the
    sum, sqrt and the scalings are correctly rounded and so monotone, and
    the 2^-40 covers the libm asn (np.arcsin, np.arcsinh), monotone only in
    practice.  One per-grid index table gives that angle difference for
    each offset of a node block from a vertex block (_nearest_differences),
    so a ring's bounds read one table column per offset.  The upper bound
    of a vertex block is, at its worst vertex, the least F over the
    best-bounded node block and over the 3x3 node patch (rings +-1,
    clipped; angles +-1, wrapped) about a seed: the contact node last found
    for the vertex's angle, at first its node on the innermost vertex ring.
    Only node blocks whose lower bound is at most this upper bound plus
    _TIE_TOL are evaluated.  The upper bound is F at real nodes, computed as the scan
    computes it, and rounding is monotone, so every skipped node lies more
    than _TIE_TOL above the infimum: minimisers and ties (all nodes within
    _TIE_TOL of the infimum) are exactly those of a scan of all nodes with
    the tabulated distances.  Each ring is laid out in whole blocks of
    slots, the slots past its last node holding u = +inf, so F is +inf there
    and no padding slot is a minimiser or a tie.  The kept node blocks of a
    chunk form one slot list, vertex block after vertex block, each in
    ring-major order, so argmin breaks ties as a scan of all nodes does.

    The tables come from polar coordinates (rho_i, theta_j) about the
    centre, by the law of cosines of _polar_rho_sq, and the scan reads no
    stored point.  A vertex ring tabulates only a band of node rings.  Ring
    i is left out when min u over it plus its floor exceeds, by more than
    _TIE_TOL, the largest F at a seed over the vertex ring.  The floor is
    the table's expression at angle difference 0, lowered by a relative
    2^-40, and lies below every entry of its row: adding the non-negative
    angular term cannot lower a float, sqrt and the scalings are correctly
    rounded, and the 2^-40 covers the libm asn (np.arcsin, np.arcsinh),
    monotone only in practice.  Every node of a left-out ring then lies
    more than _TIE_TOL above every vertex's infimum.  The band is the
    contiguous span of the other rings and of the seeds' patches, so the
    scan above runs on it unchanged, in the same ring-major order, and
    returns what the full table would, bit for bit.

    Parameters
    ----------
    E : array of flat node indices (the vertex set, a subset of the grid).
    Omega : the grid of the minimization, u's own; one with other nodes or
        another model raises ValueError.
    chunk : most vertices evaluated together.
    """
    grid = u.grid
    if Omega is not None and not _same_nodes(grid, Omega):
        raise ValueError(f"Omega does not carry u's grid nodes: Omega is {_grid_label(Omega)},"
                         f" u's grid is {_grid_label(grid)}")
    m = grid.model
    E = np.asarray(E, dtype=np.int64)
    if E.size == 0:
        raise ValueError("empty vertex set E")
    if not a > 0:
        raise ValueError("opening a must be > 0")
    uf = u.values.reshape(-1)
    if np.any(np.isnan(uf)):
        raise ValueError("u has NaN values")
    n_r, n_t = grid.n_r, grid.n_theta
    ring, ang = np.divmod(E, n_t)
    if m.sectional() > 0:
        dE = float(grid.rho[np.max(ring)])
        if 2.0 * grid.radius + 2.0 * dE >= m.domain_radius_limit:
            raise ValueError("sphere domain too large: diam(Omega) + diam(E) "
                             "must stay below pi/(2 sqrt k)")
    B = _BLOCK
    n_b = -(-n_t // B)
    W = n_b * B   # slots per ring: the nodes, then +inf padding up to whole blocks
    u_slot = np.full((n_r, W), np.inf)
    u_slot[:, :n_t] = uf.reshape(n_r, n_t)
    u_block = u_slot.reshape(n_r, n_b, B).min(axis=2)
    u_ring = u_block.min(axis=1)
    u_slot = u_slot.reshape(-1)
    sin2 = np.sin(0.5 * grid.theta) ** 2   # sin^2 of half each angle difference
    # per offset d, the angle difference of least sin2 between a vertex block
    # and the node block d blocks away: its table column, lowered, bounds the
    # pair's entries; shift maps [bv, b] to d = b - bv + n_b - 1
    nearest = _nearest_differences(sin2, n_b)
    shift = np.arange(n_b)[None, :] - np.arange(n_b)[:, None] + n_b - 1
    # position of slot (i, j) in the doubled table at vertex angle 0; padding
    # reads a finite entry, so F is +inf there
    column = (np.arange(n_r)[:, None] * (2 * n_t) + np.arange(W)[None, :] % n_t + n_t).ravel()
    in_block = np.arange(B)

    order = np.lexsort((ang, ring))
    ring_starts = np.flatnonzero(np.diff(ring[order], prepend=-1))
    # the contact slot last found per vertex angle, at first the node of the
    # innermost vertex ring: its 3x3 patch seeds the upper bound
    seed = ring[order[0]] * W + np.arange(n_t)
    n_y = len(E)
    contact = np.empty(n_y, np.int64)
    minval = np.empty(n_y)
    tie_rows, tie_slots = [], []
    # per vertex ring, floors of (a/2) rho^2 to each node ring: the table's
    # entries at angle difference 0, lowered by a relative 2^-40
    floors = (0.5 * a) * _polar_rho_sq(m, grid.rho, ring[order[ring_starts]][:, None],
                                       np.arange(n_r), 0.0) * (1.0 - 2.0 ** -40)
    for s, e, floor in zip(ring_starts, np.append(ring_starts[1:], n_y), floors):
        iv = int(ring[order[s]])
        # the band of rings [lo, hi) that can hold a contact: the rings
        # whose floor of F is within _TIE_TOL of the ring's largest F at a
        # seed, and the seeds' patches.  F at a seed is the table's entry,
        # from node (iv, 0) to the seed turned back by the vertex angle; it
        # is raised and the floor lowered by a relative 2^-40, lest the
        # library's transcendentals round a lone pair otherwise than a row
        jr = ang[order[s:e]]
        seed_ring, seed_ang = np.divmod(seed[jr], W)
        rho_sq = _polar_rho_sq(m, grid.rho, iv, seed_ring, sin2[(seed_ang - jr) % n_t])
        ub = np.max(u_slot[seed[jr]] + ((0.5 * a) * rho_sq) * (1.0 + 2.0 ** -40)) + _TIE_TOL
        band = np.concatenate([np.flatnonzero(u_ring + floor <= ub), seed_ring - 1, seed_ring + 1])
        lo, hi = max(int(band.min()), 0), min(int(band.max()) + 1, n_r)
        T = (0.5 * a) * _polar_rho_sq(m, grid.rho, iv, np.arange(lo, hi)[:, None], sin2)
        T_wrap = np.concatenate([T, T], axis=1).reshape(-1)
        T_low = T[:, nearest] * (1.0 - 2.0 ** -40)
        for c in range(s, e, chunk):
            rows = order[c:min(c + chunk, e)]
            jv = ang[rows]   # ascending: E is ordered by ring, then angle
            # column[slot] - at is the slot's entry of T_wrap for vertex angle jv
            at = (jv + lo * 2 * n_t)[:, None]
            jb = jv // B
            first = np.flatnonzero(np.concatenate(([True], jb[1:] != jb[:-1])))
            vb, count = jb[first], np.concatenate((first[1:], [len(jv)])) - first
            lower = (u_block[None, lo:hi, :] + T_low[:, shift[vb]].transpose(1, 0, 2)
                     ).reshape(len(vb), -1)
            # upper bound per vertex block: each vertex's least F over its
            # best-bounded node block and the patch about its seed, at the
            # worst vertex of the block
            top = np.repeat(lower.argmin(axis=1), count) + lo * n_b
            seed_ring, seed_ang = np.divmod(seed[jv], W)
            slots = np.concatenate([
                top[:, None] * B + in_block,
                np.clip(seed_ring[:, None] + _PATCH[0], 0, n_r - 1) * W
                + (seed_ang[:, None] + _PATCH[1]) % n_t], axis=1)
            F = u_slot[slots] + T_wrap[column[slots] - at]
            ub = np.maximum.reduceat(F.min(axis=1), first) + _TIE_TOL
            # one slot list for the chunk, vertex block after vertex block (by
            # flatnonzero: np.nonzero of a 2-D mask takes several times longer)
            group, kept = np.divmod(np.flatnonzero(lower <= ub[:, None]), lower.shape[1])
            slots = ((kept + lo * n_b)[:, None] * B + in_block).ravel()
            slot_u, slot_col = u_slot[slots], column[slots]
            edges = np.append(0, np.cumsum(np.bincount(group, minlength=len(vb)) * B)).tolist()
            # each vertex's contact, as a place in slots, and its F; in_block[:n]
            # numbers the n vertices of a block, as a block has at most B
            best, fbest = np.empty(len(rows), np.int64), np.empty(len(rows))
            for g, (j, n) in enumerate(zip(first.tolist(), count.tolist())):
                x0, x1 = edges[g], edges[g + 1]
                r = slice(j, j + n)
                F = slot_u[None, x0:x1] + T_wrap[slot_col[None, x0:x1] - at[r]]
                amin = F.argmin(axis=1)
                fmin = fbest[r] = F[in_block[:n], amin]
                best[r] = amin + x0
                near = F <= (fmin + _TIE_TOL)[:, None]
                if np.count_nonzero(near) > n:
                    near[in_block[:n], amin] = False
                    v, k = near.nonzero()
                    tie_rows.append(rows[r][v])
                    tie_slots.append(slots[x0:x1][k])
            contact[rows], minval[rows] = slots[best], fbest
            seed[jv] = contact[rows]
    ties = np.empty((0, 2), dtype=np.int64)
    if tie_rows:
        tie_rows = np.concatenate(tie_rows)
        tie_nodes = _slot_node(np.concatenate(tie_slots), W, n_t)
        by_vertex = np.argsort(tie_rows, kind="stable")
        ties = np.stack([E[tie_rows[by_vertex]], tie_nodes[by_vertex]], axis=1)
    return ContactSet(E, _slot_node(contact, W, n_t), minval, ties)


def _nearest_differences(sin2, n_b):
    """Per block offset d = 1 - n_b .. n_b - 1, the angle difference of least
    sin2 among those j - jv, mod n_theta, between a vertex and a node d
    blocks of _BLOCK angles away: the first such, on ties."""
    B = _BLOCK
    window = (np.arange(1 - n_b, n_b)[:, None] * B + np.arange(1 - B, B)[None, :]) % len(sin2)
    return window[np.arange(len(window)), np.argmin(sin2[window], axis=1)]


def _polar_rho_sq(m: ModelSpace, rho, iv, i, sin2) -> np.ndarray:
    """rho^2 from node (iv, 0) to nodes of rings i whose angles have
    sin^2(dtheta/2) = sin2, rho the ring radii, by the polar law of cosines
    of an isotropic model: psi(d/2)^2 = psi((rho_i - rho_iv)/2)^2
    + psi(rho_i) psi(rho_iv) sin2, with d = m._rho(4 psi(d/2)^2)."""
    half = m.psi(0.5 * (rho[i] - rho[iv]))
    q = half * half + m.psi(rho[i]) * m.psi(rho[iv]) * sin2
    return m._rho(4.0 * q)[0] ** 2


def _slot_node(slot, W, n_t):
    """Flat node index of a slot of the padded (n_r, W) layout."""
    i, j = np.divmod(slot, W)
    return i * n_t + j


def gradient_contact_residual(u: ScalarField, a: float, X, Y) -> np.ndarray:
    """|grad u(x) + a rho grad rho_y(x)| over the pairs (x, y) of X and Y:
    zero certifies an interior contact."""
    if not u.has_derivatives:
        raise ValueError("gradient residual needs a closed-form gradient")
    m = u.grid.model
    X = np.asarray(X, float)
    g = u.grad(X) - a * m.log(X, Y)  # a * grad(rho_y^2/2) = -a log_x(y)
    return m.tangent_norm(X, g)


def refine_contact_points(m: ModelSpace, u: ScalarField, a: float,
                          Y: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Riemannian Newton descent of F_y from X0, vectorized over vertices.

    Requires closed-form derivatives of u, and m must be u's model (compared
    by value; ValueError otherwise).  Steps are clamped to half the
    grid radius; points whose Hessian degenerates, |det| at most _DET_TOL
    a^2 (the scale of the distance term's own determinant), keep their last
    iterate.  A point takes the step computed where both frame components
    of its grad F are below _NEWTON_TOL and then leaves the live set; the
    loop ends when the live set is empty or after _NEWTON_ITERS steps.

    The 2x2 algebra runs on the Hessian rows (h11, h12, h22) of the jets,
    a I adding a (1, 0, 1).  Flat charts refine in chart coordinates: the
    frame is the coordinate basis, built once per call and sliced to the
    live points at each step, the jet of rho_y^2/2 is (x - y, I) in
    closed form, grad F's frame components are its coordinates, and the
    step (d1, d2), capped by sqrt(d1^2 + d2^2), adds to each coordinate.
    Curved charts take the jet of rho_y^2/2 from _radial_derivatives, project
    onto the frame and step by exp along d1 e1 + d2 e2.  On every chart a
    first step from the vertices (X0 = Y) evaluates u's jet alone, since at
    x = y that of rho_y^2/2 is exactly (0, I): x - y is 0 on the flat charts,
    and _radial_derivatives gives (0, I) at its centre.
    """
    if not u.has_derivatives:
        raise ValueError("refinement needs closed-form derivatives")
    if m != u.grid.model:
        raise ValueError(f"m is {_model_label(m)}, but u's grid is on "
                         f"{_model_label(u.grid.model)}")
    X = np.array(X0, float)
    Y = np.asarray(Y, float)
    flat = m.is_flat_chart
    live = slice(None)   # every point, by view, until the first converges
    cap = 0.5 * u.grid.radius
    degenerate = _DET_TOL * a * a
    a_eye = (a * _I_ROWS)[:, None]
    basis = m.tangent_frame(X) if flat else None   # constant: built once, sliced per step
    for it in range(_NEWTON_ITERS):
        x = X[live]
        e1, e2 = frame = (basis[0][:len(x)], basis[1][:len(x)]) if flat else m.tangent_frame(x)
        gu, hu = u.jet(x, frame)
        if it == 0 and np.array_equal(X, Y):
            g, h = gu, hu + a_eye
        elif flat:
            # the jet of a rho_y^2 / 2 = a |x - y|^2 / 2 is (a (x - y), a I)
            g, h = gu + a * (x - Y[live]), hu + a_eye
        else:
            # a rho_y^2 / 2 is the radial function with f' = a rho, f'' = a
            g, h = _radial_derivatives(m, Y[live], x, lambda r: a * r,
                                       lambda r: np.full_like(r, a), frame)
            g += gu
            h += hu
        g1, g2 = (g[:, 0], g[:, 1]) if flat else (m.tangent_inner(x, g, e) for e in frame)
        h11, h12, h22 = h
        det = h11 * h22 - h12 * h12
        inv = 1.0 / np.where(np.abs(det) > degenerate, det, np.inf)   # 0 where h degenerates
        d1, d2 = (h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv
        if flat:
            ln = np.sqrt(d1 * d1 + d2 * d2)
            if np.any(ln > cap):
                s = cap / np.maximum(ln, cap)
                d1, d2 = d1 * s, d2 * s
            X[live, 0] = x[:, 0] + d1
            X[live, 1] = x[:, 1] + d2
        else:
            step = _scale(d1, e1)
            step += _scale(d2, e2)
            ln = m.tangent_norm(x, step)
            if np.any(ln > cap):
                _scale(cap / np.maximum(ln, cap), step, out=step)
            X[live] = m.exp(x, step)
        done = np.maximum(np.abs(g1), np.abs(g2)) < _NEWTON_TOL
        if done.any():
            live = np.arange(len(X))[live][~done]
            if live.size == 0:
                break
    return X


def check_contact_location(u: ScalarField, a: float,
                           x0, r: float, y0, l: float, t: float,
                           cs: ContactSet) -> CheckReport:
    """Inclusion of the contact set in the inner ball and low sub-level set.

    With u(y0) = l somewhere in the half ball and u >= t on the 5r/6 shell,
    l < t forces A(a, B_{r/6}(y0)/B_r(x0), u) into B_{5r/6}(x0) intersected
    with {u <= l + a r^2/36}.  Premise violations are reported, not raised.
    cs is the caller's scan of _location_vertices(u.grid, y0, r) with
    opening a; those vertices include y0's node, so the touching bound
    below is exact.
    """
    pre = _location_premises(u, x0, r, y0, l, t)
    if pre is not None:
        return _premise_failure("contact-location", pre)
    nodes = cs.node_indices
    pts = u.grid.flat_points()[nodes]
    d_x0 = u.grid.model.distance(np.asarray(x0, float), pts)
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


def _location_vertices(grid: GeodesicBallGrid, y0, r: float) -> np.ndarray:
    """The vertex set B_{r/6}(y0) as flat node indices."""
    return np.flatnonzero(grid.mask_within(y0, r / 6.0).ravel())


def _location_premises(u, x0, r, y0, l, t):
    """Premise screening; u >= t is required on the annulus B_r minus B_{5r/6},
    which is the form the contradiction argument actually consumes."""
    grid = u.grid
    if not l < t:
        return "l < t"
    if grid.model.distance(np.asarray(x0, float), np.asarray(y0, float)) > r / 2.0 + 1e-12:
        return "y0 in closed B_{r/2}(x0)"
    uy0 = float(u.value(y0)) if u.has_derivatives else None
    if uy0 is not None and abs(uy0 - l) > 1e-9 * max(1.0, abs(l)):
        return "u(y0) = l"
    annulus = ~grid.mask_within(x0, 5.0 * r / 6.0)
    if np.any(annulus) and np.min(u.values[annulus]) < t - 1e-12:
        return "u >= t on B_r(x0) minus B_{5r/6}(x0)"
    return None
