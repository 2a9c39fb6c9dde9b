"""Contact sets: where concave distance-squared paraboloids touch u from below.

For an opening a > 0 and a vertex y, the touching functional is

    F_y(x) = u(x) + (a/2) rho^2(x, y),

minimized over the closed grid ball.  A vertex set E yields the contact set
A(a, E/Omega, u) as the union of all minimizers; by construction every vertex
is covered by at least one contact node.  The a/2 normalization matches the
paraboloid form -(a/2) rho^2 + c, which is the convention every downstream
gradient/Hessian identity relies on.

The grid minimization is exact at node resolution: every F compared is u
at a node plus (a/2) rho^2 from one polar law-of-cosines table, and a
vertex's minimisers are those of a scan of every node, bit for bit.  Two
passes find them.  A vectorized Riemannian Newton refinement finds each
vertex's minimiser x* of F_y when the field has closed-form derivatives; a
point leaves it at its certified iterate, the norm of grad F's frame
components below _NEWTON_TOL a, and the transport reads u's jet there.  On
the flat charts it works in chart coordinates, where rho_y^2/2 = |x - y|^2/2
has its jet in closed form.  Where F_y is strongly convex on the ball, x*
certifies which few nodes can be minimisers (the certified pass); every
other vertex takes the pruned scan, which skips only nodes that provably
lie above the infimum plus the tie tolerance.

The certificate.  The ball of radius r about the grid centre o is convex
(r < pi/(2 sqrt k) on the sphere).  Let eta be the field's _hess_floor, a
floor on the least eigenvalue of Hess u over it (fields.py derives one per
closed-form builder), and mu the least eigenvalue of Hess(rho_y^2/2) over
it for y in it.  That Hessian has the eigenvalues 1 (radial) and tau(rho_y)
= t/tn(t), t = s rho_y (transverse): tau = 1 on the flat charts, tau >= 1
on the hyperboloid, and on the sphere tau falls with rho_y <= 2r, the
ball's diameter, so mu = 1 on the flat and hyperbolic charts and
min(1, tau(2r)) = 2 s r cot(2 s r) on the sphere.  With lambda = a mu + eta
> 0, F = F_y is lambda-strongly convex along the geodesic from x* to any
node x, so with d = rho(x*, x) and g >= |grad F(x*)|

    F(x) >= F(x*) - g d + (lambda/2) d^2.

Let ub be the least F over the 2x2 nodes about x* (the rings and angles on
either side of x*'s, clipped).  A minimiser or tie x has F(x) <= ub +
_TIE_TOL, so (lambda/2) d^2 - g d - D <= 0 with D = ub - F(x*) + _TIE_TOL:

    d <= delta = (g + sqrt(g^2 + 2 lambda D)) / lambda.

With x* at polar coordinates (rho*, theta*), the nodes within delta of it
lie on the rings with |rho_i - rho*| <= delta (the triangle inequality
about o), and on ring i at the angles with sin^2((theta_j - theta*)/2) <=
S_i = (psi(delta/2)^2 - psi((rho_i - rho*)/2)^2) / (psi(rho_i) psi(rho*))
(the polar law of cosines, psi rising on [0, r] and d/2, delta/2 < r: a
delta of 2r or more takes the pruned scan, below): the whole ring where
S_i >= 1 or rho* = 0, none where S_i < 0, else the window |theta_j -
theta*| <= 2 asin(sqrt S_i).  The candidates are those nodes.

Rounding.  Each margin is counted in units of _ROUND = 2^-40 of a scale,
some 2^12 eps, far above the few ulps it covers:
  - lambda is lowered by 2^-40 (a mu + |eta|): mu and eta come within a few
    ulps of their closed forms;
  - F at a node and F(x*) = u(x*) + (a/2) rho(y, x*)^2 lie within e =
    2^-40 kappa S of their exact values, S = max |u| + 2 a r^2 the largest
    |F| on the ball and kappa = (1 + max |p|/r)^2 with max |p| the largest
    embedding norm of a node.  The tables are within 4 eps of rho^2 (as
    tests/test_contact.py's TestRingBand checks against mpmath) and u's
    closed forms within a few ulps of their terms; the rounding of eps |p|
    in the stored nodes and in x* moves u by eps |p| |grad u| and rho^2 by
    up to eps |p|^2 (the hyperboloid's Minkowski chords), which kappa
    scales to S.  D takes 3e, one for each of ub, F(x) and F(x*);
  - g is a times Newton's final residual |grad F|/a, plus 2^-40 kappa 4 a r
    for the same rounding of grad u, near a rho_y(x*) <= 2 a r, and of
    a log_x*(y);
  - (rho*, theta*), from m.log at o, place x* within 2^-40 kappa r, and
    forming delta rounds it by a few ulps, so the windows take the reach
    delta' = delta (1 + 2^-40) + 2^-40 kappa r;
  - the ring window takes the floor and the ceiling of the ring positions
    rho/h - 1/2 of its ends, up to one ring more on each side than its
    rounding needs; psi(delta'/2)^2 is raised by 2^-40, more than the few
    ulps of each square and product in S_i; the half-angle is raised by
    2^-40 of itself and by 2^-40 2 pi, more than the rounding of theta* -+
    alpha and of the division by the angle step.
A vertex whose Newton point did not certify, is not finite or lies outside
the closed ball takes the pruned scan, and so does one whose delta' is not
finite (g^2 + 2 lambda D < 0, which the inequality excludes within these
margins: a node's F is at least F(x*) - g^2/(2 lambda)), whose least
candidate F exceeds ub (the window would have missed ub's node), whose
delta' is 2r or more (every pair of ball points is within 2r, so the
windows would prune nothing), or whose windows hold more than _WINDOW_MAX
nodes, more than the pruned scan evaluates a vertex.  The last two bound
the certified pass's work and memory where kappa is large: on a sphere of
s r near 0 (max |p| = 1/s) and far out on the hyperboloid (max |p| ~
cosh r), e reaches the scale of S and delta that of r.  There the whole
pass can be moot: a computed ub and F(x*) differ by at least -g^2/(2
lambda) - 2e, so g^2 + 2 lambda D >= 2 lambda (e + _TIE_TOL) and every
delta' exceeds sqrt(2 e/lambda), which reaches 2r from e = 2 lambda r^2
on.  And where ub >= F(x*), as for a near minimiser x*, D >= 3e and delta'
exceeds sqrt(6 e/lambda).  The grid's n nodes are least dense at its rim,
n/(2 pi r psi(r)) per unit area, where half of a window lies in the ball,
so a window of that reach holds about 3 e n/(2 lambda r psi(r)) nodes or
more, past _WINDOW_MAX from e = 2 lambda r psi(r) _WINDOW_MAX/(3n) on.
From the lesser of the two e's on, compute_contact_set runs neither Newton
nor the pass, and every vertex takes the pruned scan, as it would after
them; which pass runs moves no answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .fields import _I_ROWS, ScalarField, _radial_derivatives
from .geometry import (GeodesicBallGrid, ModelSpace, _dot, _grid_label, _half_sin2_angle,
                       _model_label, _same_nodes, _scale)
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
_NEWTON_TOL = 1e-12   # a point stops once |grad F| is below this times a
_DET_TOL = 1e-14      # a point whose |det Hess F| is at most this times a^2 keeps its iterate
_ROUND = 2.0 ** -40   # the certified pass's rounding unit, relative to its scales
_CANDIDATE_CHUNK = 1024   # vertices per chunk of the certified pass
# most nodes a vertex's window may hold in the certified pass; a larger one
# goes to the pruned scan, which evaluates 225-818 nodes a vertex on the
# scan benchmark's 96^2 and 128^2 grids, where the windows hold about 2
# (at most 96, seeds 1-3)
_WINDOW_MAX = 128
_CANDIDATE_SPAN = 2 ** 14   # about the most candidate nodes evaluated together
# points per Newton block of the contact set: the fastest of 2048-30000 at
# 256^2 on a 2 MB-L2 Xeon, where a block's Newton temporaries stay in cache
_NEWTON_BLOCK = 6144


@dataclass
class ContactSet:
    vertex_indices: np.ndarray   # flat indices of E
    contact_of: np.ndarray       # primary contact node per vertex (same length)
    min_values: np.ndarray       # achieved infima per vertex
    ties: np.ndarray             # (n, 2) rows (y_index, x_index) beyond the primary,
                                 # by position in E, then by node
    # Newton from each vertex of E, in E's order, where the certified pass ran:
    # the transport reads it in place of refining again
    refined: Optional["_Refinement"] = field(default=None, repr=False, compare=False)

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


class _Polar(NamedTuple):
    """The scan's polar tables: psi per ring, psi of half of each ring
    difference, half[iv, i] = psi((rho_i - rho_iv)/2) for the rings iv out
    to E's outermost, and sin^2 of half each angle difference."""
    psi: np.ndarray
    half: np.ndarray
    sin2: np.ndarray


def compute_contact_set(u: ScalarField, a: float, E: np.ndarray,
                        Omega: Optional[GeodesicBallGrid] = None,
                        chunk: int = 128) -> ContactSet:
    """Exact contact-set computation over the grid closure.

    Every F value compared is F_y(x) = u(x) + (a/2) rho^2 at a node x, with
    rho^2 from the polar law of cosines (_rho_sq) on the tables of _Polar:
    the entry T_iv[i, (j - jv) mod n_theta] for y = (iv, jv), x = (i, j).
    Two passes find each vertex's minimisers among those values.  Where u
    records a Hessian floor eta and lambda = a mu + eta > 0 (_convexity;
    the module docstring derives mu per model), every vertex is refined by
    _newton, in blocks of about _NEWTON_BLOCK, and the ContactSet hands
    those points and jets on as refined.  A vertex whose Newton point x*
    certified, is finite and lies in the closed ball then evaluates only
    the nodes within delta = (g + sqrt(g^2 + 2 lambda D))/lambda of x*,
    D = ub - F(x*) + _TIE_TOL plus the rounding allowance, found by a ring
    window and an angle window (_certified_pass; the module docstring
    derives delta, both windows and each margin).  Every other vertex, and
    every vertex of a field with no floor or lambda <= 0 (sampled fields,
    sums with such a part, as growth's barrier sum, planted ties), takes
    the pruned scan (_pruned_scan).  Both passes form F by the same
    operations on the same table entries, the least node on exact ties is
    the contact and every node within _TIE_TOL of the infimum a tie, so the
    result is that of a scan of every node, bit for bit, whichever pass a
    vertex takes.

    Parameters
    ----------
    E : array of flat node indices (the vertex set, a subset of the grid).
    Omega : the grid of the minimization, u's own; one with other nodes or
        another model raises ValueError.
    chunk : most vertices the pruned scan evaluates together.
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
    if not np.isfinite(uf).all():   # an infinite node would tie the +inf padding slots
        raise ValueError("u has non-finite values (NaN or inf)")
    rho, outer = grid.rho, int(np.max(E)) // grid.n_theta   # E's outermost ring
    if m.sectional() > 0 and 2.0 * grid.radius + 2.0 * float(rho[outer]) >= m.domain_radius_limit:
        raise ValueError("sphere domain too large: diam(Omega) + diam(E) "
                         "must stay below pi/(2 sqrt k)")
    tab = _Polar(m.psi(rho), m.psi(0.5 * (rho[None, :] - rho[:outer + 1, None])),
                 np.sin(0.5 * grid.theta) ** 2)
    n_y = len(E)
    contact, minval = np.empty(n_y, np.int64), np.empty(n_y)
    ties = ([], [])   # rows in E and nodes, pass by pass
    rest, refined = np.arange(n_y), None
    lam = _convexity(u, a)
    kappa, e = _rounding(u, a)
    # Newton runs below this e alone: from it on every vertex's windows
    # reach 2r or, in practice, hold more than _WINDOW_MAX nodes (module
    # docstring), so every vertex would take the pruned scan after it
    R, n = grid.radius, grid.n_r * grid.n_theta
    if lam > 0.0 and e < 2.0 * lam * min(R * R, R * float(m.psi(R)) * _WINDOW_MAX / (3.0 * n)):
        refined = _refine(u, a, grid.flat_points()[E])
        done = _certified_pass(u, a, E, lam, kappa, e, refined, tab, contact, minval, ties)
        rest = np.flatnonzero(~done)
    if len(rest):
        _pruned_scan(u, a, E, rest, chunk, tab, contact, minval, ties)
    pairs = np.empty((0, 2), dtype=np.int64)
    if ties[0]:
        tie_rows, tie_nodes = np.concatenate(ties[0]), np.concatenate(ties[1])
        by_vertex = np.argsort(tie_rows, kind="stable")
        pairs = np.stack([E[tie_rows[by_vertex]], tie_nodes[by_vertex]], axis=1)
    return ContactSet(E, contact, minval, pairs, refined)


def _convexity(u: ScalarField, a: float) -> float:
    """lambda = a mu + eta, lowered by 2^-40 (a mu + |eta|): a floor on the
    least eigenvalue of Hess F_y over the ball for every vertex y in it
    (module docstring); 0.0 where u records no floor eta or no value_fn,
    which F(x*) reads."""
    eta = u._hess_floor
    if eta is None or u.value_fn is None:
        return 0.0
    mu = min(1.0, float(u.grid.model.dist_hessian_transverse(2.0 * u.grid.radius)))
    return a * mu + eta - _ROUND * (a * abs(mu) + abs(eta))


def _rounding(u: ScalarField, a: float):
    """(kappa, e) of the certified pass's rounding allowance (module
    docstring): kappa = (1 + max |p|/r)^2 and e = 2^-40 kappa S."""
    grid = u.grid
    pts = grid.flat_points()
    kappa = (1.0 + math.sqrt(float(np.max(_dot(pts, pts)))) / grid.radius) ** 2
    return kappa, _ROUND * kappa * (float(np.max(np.abs(u.values))) + 2.0 * a * grid.radius ** 2)


def _refine(u: ScalarField, a: float, Y) -> "_Refinement":
    """_newton from the points Y, in as even blocks of at most about
    _NEWTON_BLOCK points as go (no value depends on the blocks)."""
    n = len(Y)
    step = -(-n // max(1, round(n / _NEWTON_BLOCK)))
    parts = [_newton(u, a, Y[lo:lo + step], Y[lo:lo + step]) for lo in range(0, n, step)]
    if len(parts) == 1:
        return parts[0]
    points = np.concatenate([p.points for p in parts])
    return _Refinement(points, np.concatenate([p.grad for p in parts]),
                       np.concatenate([p.hess for p in parts], axis=1),
                       u.grid.model.tangent_frame(points) if u.grid.model.is_flat_chart else
                       tuple(np.concatenate([p.frame[k] for p in parts]) for k in range(2)),
                       np.concatenate([p.certified for p in parts]),
                       np.concatenate([p.residual for p in parts]))


def _certified_pass(u: ScalarField, a: float, E, lam: float, kappa: float, e: float, refined,
                    tab: _Polar, contact, minval, ties) -> np.ndarray:
    """Contacts, infima and ties of the vertices the certificate covers
    (module docstring), written into contact, minval and ties; returns the
    mask of those vertices.  In chunks of _CANDIDATE_CHUNK vertices, whose
    candidates it evaluates in spans of about _CANDIDATE_SPAN.  Each
    vertex's candidates come ring by ring, a wrapped angle window as two
    runs, so they are in ascending node order, as in a scan of all nodes,
    and F on them is formed as the pruned scan forms it."""
    grid = u.grid
    m = grid.model
    n_r, n_t, R, h, dth = grid.n_r, grid.n_theta, grid.radius, grid.drho, grid.dtheta
    uf = u.values.reshape(-1)
    pts = grid.flat_points()
    X = refined.points
    done = np.zeros(len(E), bool)
    todo = np.flatnonzero(refined.certified & np.isfinite(X).all(axis=1))
    for c in range(0, len(todo), _CANDIDATE_CHUNK):
        rows = todo[c:c + _CANDIDATE_CHUNK]
        x = X[rows]
        rho_x, theta = grid.polar(x)
        inside = rho_x <= R
        rows, x, rho_x, theta = rows[inside], x[inside], rho_x[inside], theta[inside]
        if not len(rows):
            continue
        iv, jv = np.divmod(E[rows], n_t)
        # ub over the 2x2 nodes about x*
        i0 = np.clip(np.floor(rho_x / h - 0.5).astype(np.int64), 0, n_r - 1)
        j0 = np.floor(theta / dth).astype(np.int64) % n_t
        i1, j1 = np.minimum(i0 + 1, n_r - 1), (j0 + 1) % n_t
        ub = _table_F(m, uf, tab, a, iv, jv, np.stack([i0, i0, i1, i1]),
                      np.stack([j0, j1, j0, j1])).min(axis=0)
        Fx = u.value(x) + (0.5 * a) * m.distance(pts[E[rows]], x) ** 2
        g = a * (refined.residual[rows] + _ROUND * kappa * 4.0 * R)
        D = ub - Fx + _TIE_TOL + 3.0 * e
        with np.errstate(invalid="ignore"):
            delta = (g + np.sqrt(g * g + 2.0 * lam * D)) / lam
        reach = delta * (1.0 + _ROUND) + _ROUND * kappa * R
        ok = reach < 2.0 * R   # every pair of ball points is within 2r; NaN fails too
        rows, rho_x, theta, reach, iv, jv, ub = (
            z[ok] for z in (rows, rho_x, theta, reach, iv, jv, ub))
        if not len(rows):
            continue
        pv, ring, start, count = _windows(m, grid, tab, rho_x, theta, reach)
        counts = np.add.reduceat(count, np.flatnonzero(np.diff(pv, prepend=-1)))
        small = counts <= _WINDOW_MAX
        if not small.any():
            continue
        if not small.all():
            keep = small[pv]
            pv = (np.cumsum(small) - 1)[pv[keep]]
            ring, start, count = ring[keep], start[keep], count[keep]
            rows, iv, jv, ub, counts = (z[small] for z in (rows, iv, jv, ub, counts))
        # the candidates by spans of whole vertices, each of fewer than
        # _CANDIDATE_SPAN + _WINDOW_MAX nodes, which bound the temporaries;
        # no span is empty while _CANDIDATE_SPAN > _WINDOW_MAX, and an empty
        # one is skipped (np.unique would drop it, but its imports alone
        # raise the peak RSS by 1.5 MB)
        ends = np.cumsum(counts)
        cut = np.concatenate([
            [0], np.searchsorted(ends, np.arange(_CANDIDATE_SPAN, ends[-1], _CANDIDATE_SPAN),
                                 side="right"), [len(counts)]])
        first_ring = np.append(np.flatnonzero(np.diff(pv, prepend=-1)), len(pv))
        for v0, v1 in zip(cut[:-1], cut[1:]):
            r = slice(first_ring[v0], first_ring[v1])
            node, win = _window_nodes(n_t, ring[r], start[r], count[r])
            vid = pv[r][win]
            F = _table_F(m, uf, tab, a, iv[vid], jv[vid], *np.divmod(node, n_t))
            n = counts[v0:v1]
            has = n > 0
            if not has.any():
                continue
            starts = (np.cumsum(n) - n)[has]
            fmin = np.minimum.reduceat(F, starts)
            first = np.minimum.reduceat(np.where(F == np.repeat(fmin, n[has]), np.arange(len(F)),
                                                 len(F)), starts)
            good = fmin <= ub[v0:v1][has]   # the window holds the node ub came from
            near = F <= np.repeat(np.where(good, fmin + _TIE_TOL, -np.inf), n[has])
            near[first] = False
            at = rows[v0:v1][has][good]
            contact[at], minval[at], done[at] = node[first[good]], fmin[good], True
            tie = np.flatnonzero(near)
            ties[0].append(rows[vid[tie]])
            ties[1].append(node[tie])
    return done


def _windows(m: ModelSpace, grid: GeodesicBallGrid, tab: _Polar, rho_x, theta, reach):
    """(point, ring, start, count) per window ring: the ring and angle
    windows about the polar points (rho_x, theta) with reach delta' < 2r
    (module docstring), point by point, each point's rings ascending; ring
    ring of point point holds the count angles from start on, wrapping."""
    n_r, n_t, h, dth = grid.n_r, grid.n_theta, grid.drho, grid.dtheta
    lo = np.clip(np.floor((rho_x - reach) / h - 0.5).astype(np.int64), 0, n_r - 1)
    hi = np.clip(np.ceil((rho_x + reach) / h - 0.5).astype(np.int64), 0, n_r - 1)
    n_ring = hi - lo + 1
    pv = np.repeat(np.arange(len(rho_x)), n_ring)
    ring = np.arange(len(pv)) - np.repeat(np.cumsum(n_ring) - n_ring - lo, n_ring)
    rp = rho_x[pv]
    room = (m.psi(0.5 * reach) ** 2 * (1.0 + _ROUND))[pv] - m.psi(0.5 * (grid.rho[ring] - rp)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        S = room / (tab.psi[ring] * m.psi(rp))
        alpha = _half_sin2_angle(np.minimum(S, 1.0))
    alpha = alpha * (1.0 + _ROUND) + _ROUND * 2.0 * math.pi
    th = theta[pv]
    start = np.ceil((th - alpha) / dth)
    count = np.floor((th + alpha) / dth) - start + 1.0
    whole = ((room >= 0.0) & ~(S < 1.0)) | (count >= n_t)
    count = np.where(whole, n_t, np.where(room >= 0.0, count, 0.0)).astype(np.int64)
    start = np.where(whole | (room < 0.0), 0.0, start).astype(np.int64) % n_t
    return pv, ring, start, count


def _window_nodes(n_t: int, ring, start, count):
    """(node, window): the flat nodes of the angle windows of _windows, each
    window in ascending node order, as two runs, the wrapped one (from
    angle 0) first; window numbers each node's window."""
    wrap = np.maximum(start + count - n_t, 0)
    base = ring * n_t
    run_start = np.stack([base, base + start], axis=1).ravel()
    run_len = np.stack([wrap, count - wrap], axis=1).ravel()
    run = np.repeat(np.arange(len(run_len)), run_len)
    node = run_start[run] + np.arange(len(run)) - (np.cumsum(run_len) - run_len)[run]
    return node, run >> 1


def _table_F(m: ModelSpace, uf, tab: _Polar, a: float, iv, jv, i, j):
    """F_y(x) = u(x) + (a/2) rho^2 for vertices (iv, jv) and nodes (i, j),
    broadcast, from the polar tables, by the pruned scan's operations."""
    n_t = len(tab.sin2)
    return uf[i * n_t + j] + (0.5 * a) * _rho_sq(m, tab.half[iv, i], tab.psi[i], tab.psi[iv],
                                                  tab.sin2[(j - jv) % n_t])


def _pruned_scan(u: ScalarField, a: float, E, sub, chunk: int, tab: _Polar,
                 contact, minval, ties) -> None:
    """Contacts, infima and ties of the vertices E[sub] by pruned scan,
    written into contact, minval and ties at their rows in E.

    Every model is isotropic about the grid centre, so rho^2 from vertex
    (ring iv, angle jv) to node (i, j) is T_iv[i, (j - jv) mod n_theta], with
    T_iv the distances from node (iv, 0): one table per vertex ring replaces
    every transcendental call of the scan.  The angles are split into blocks
    of _BLOCK nodes.  For each block of vertices on one ring, a node block
    is bounded below by min u over it plus (a/2) T_iv at the angle
    difference of least sin^2(dtheta/2) that the two blocks can have,
    lowered by a relative 2^-40.  That lies below every (a/2) T_iv over
    those differences: by the law of cosines of _rho_sq each row of
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

    The scan reads no stored point.  A vertex ring tabulates only a band of
    node rings.  Ring i is left out when min u over it plus its floor
    exceeds, by more than _TIE_TOL, the largest F at a seed over the vertex
    ring.  The floor is _polar_rho_sq at angle difference 0, lowered by a
    relative 2^-40, and lies below every entry of its row: adding the
    non-negative angular term cannot lower a float, sqrt and the scalings
    are correctly rounded, and the 2^-40 covers the libm asn.  Every node
    of a left-out ring then lies more than _TIE_TOL above every vertex's
    infimum.  The band is the contiguous span of the other rings and of the
    seeds' patches, so the scan above runs on it unchanged, in the same
    ring-major order, and returns what the full table would, bit for bit.
    """
    grid = u.grid
    m = grid.model
    n_r, n_t = grid.n_r, grid.n_theta
    ring, ang = np.divmod(E, n_t)
    B = _BLOCK
    n_b = -(-n_t // B)
    W = n_b * B   # slots per ring: the nodes, then +inf padding up to whole blocks
    u_slot = np.full((n_r, W), np.inf)
    u_slot[:, :n_t] = u.values
    u_block = u_slot.reshape(n_r, n_b, B).min(axis=2)
    u_ring = u_block.min(axis=1)
    u_slot = u_slot.reshape(-1)
    sin2 = tab.sin2
    # per offset d, the angle difference of least sin2 between a vertex block
    # and the node block d blocks away: its table column, lowered, bounds the
    # pair's entries; shift maps [bv, b] to d = b - bv + n_b - 1
    nearest = _nearest_differences(sin2, n_b)
    shift = np.arange(n_b)[None, :] - np.arange(n_b)[:, None] + n_b - 1
    # position of slot (i, j) in the doubled table at vertex angle 0; padding
    # reads a finite entry, so F is +inf there
    column = (np.arange(n_r)[:, None] * (2 * n_t) + np.arange(W)[None, :] % n_t + n_t).ravel()
    in_block = np.arange(B)

    order = sub[np.lexsort((ang[sub], ring[sub]))]
    ring_starts = np.flatnonzero(np.diff(ring[order], prepend=-1))
    # the contact slot last found per vertex angle, at first the node of the
    # innermost vertex ring: its 3x3 patch seeds the upper bound
    seed = ring[order[0]] * W + np.arange(n_t)
    n_y = len(order)
    best_slot = np.empty(len(E), np.int64)
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
        rho_sq = _rho_sq(m, tab.half[iv, seed_ring], tab.psi[seed_ring], tab.psi[iv],
                         sin2[(seed_ang - jr) % n_t])
        ub = np.max(u_slot[seed[jr]] + ((0.5 * a) * rho_sq) * (1.0 + 2.0 ** -40)) + _TIE_TOL
        band = np.concatenate([np.flatnonzero(u_ring + floor <= ub), seed_ring - 1, seed_ring + 1])
        lo, hi = max(int(band.min()), 0), min(int(band.max()) + 1, n_r)
        T = (0.5 * a) * _rho_sq(m, tab.half[iv, lo:hi, None], tab.psi[lo:hi, None], tab.psi[iv],
                                sin2)
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
            best_slot[rows], minval[rows] = slots[best], fbest
            seed[jv] = best_slot[rows]
    contact[sub] = _slot_node(best_slot[sub], W, n_t)
    if tie_rows:
        ties[0].append(np.concatenate(tie_rows))
        ties[1].append(_slot_node(np.concatenate(tie_slots), W, n_t))


def _nearest_differences(sin2, n_b):
    """Per block offset d = 1 - n_b .. n_b - 1, the angle difference of least
    sin2 among those j - jv, mod n_theta, between a vertex and a node d
    blocks of _BLOCK angles away: the first such, on ties."""
    B = _BLOCK
    window = (np.arange(1 - n_b, n_b)[:, None] * B + np.arange(1 - B, B)[None, :]) % len(sin2)
    return window[np.arange(len(window)), np.argmin(sin2[window], axis=1)]


def _rho_sq(m: ModelSpace, half, psi_i, psi_v, sin2) -> np.ndarray:
    """rho^2 by the polar law of cosines of an isotropic model between
    nodes on rings i and iv whose angles have sin^2(dtheta/2) = sin2, from
    half = psi((rho_i - rho_iv)/2), psi_i = psi(rho_i) and psi_v =
    psi(rho_iv): psi(d/2)^2 = half^2 + psi_i psi_v sin2, with
    d = m._rho(4 psi(d/2)^2).  Elementwise, so one entry comes out the same
    in a table row or alone."""
    q = half * half + psi_i * psi_v * sin2
    return m._rho(4.0 * q)[0] ** 2


def _polar_rho_sq(m: ModelSpace, rho, iv, i, sin2) -> np.ndarray:
    """rho^2 from node (iv, 0) to nodes of rings i whose angles have
    sin^2(dtheta/2) = sin2, rho the ring radii: _rho_sq with psi taken
    here."""
    return _rho_sq(m, m.psi(0.5 * (rho[i] - rho[iv])), m.psi(rho[i]), m.psi(rho[iv]), sin2)


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
    """Riemannian Newton descent of F_y from X0: _newton's points.  m must
    be u's model (compared by value; ValueError otherwise)."""
    if m != u.grid.model:
        raise ValueError(f"m is {_model_label(m)}, but u's grid is on "
                         f"{_model_label(u.grid.model)}")
    return _newton(u, a, Y, X0)[0]


class _Refinement(NamedTuple):
    """_newton's result per point: the point, u's jet there, grad and h in
    frame (e1, e2) at the point (m.tangent_frame), whether it certified,
    and its final |grad F|/a, read where it left."""
    points: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    frame: tuple
    certified: np.ndarray
    residual: np.ndarray

    def rows(self, sl):
        """The refinement of the points in slice sl."""
        return _Refinement(self.points[sl], self.grad[sl], self.hess[:, sl],
                           tuple(e[sl] for e in self.frame), self.certified[sl], self.residual[sl])


def _newton(u: ScalarField, a: float, Y, X0) -> _Refinement:
    """Newton's points from X0, with u's jet at each in m.tangent_frame(X),
    m = u's model, that frame, and each point's certificate and residual.

    A point leaves at the iterate where g1^2 + g2^2 < (_NEWTON_TOL a)^2, (g1,
    g2) the frame components of grad F, with u's jet taken there: it is
    certified.  The others _step, clamped to half the grid radius; a
    degenerate Hessian, |det| at most _DET_TOL a^2, keeps its iterate (the
    distance term's scales: (c u, c a) refines as (u, a)).  Points live
    after _NEWTON_ITERS steps keep the last, take one jet there and leave
    uncertified.  The residual is sqrt(g1^2 + g2^2)/a where the point left;
    no step reads it.

    Flat charts work in chart coordinates: the frame is the coordinate
    basis, built once and sliced to the live points, and the jet of
    rho_y^2/2 is (x - y, I).  Curved charts take it from _radial_derivatives.
    A first pass from the vertices (X0 = Y) reads u's jet alone: at x = y
    that of rho_y^2/2 is exactly (0, I).
    """
    m = u.grid.model
    X = np.array(X0, float)
    Y = np.asarray(Y, float)
    flat = m.is_flat_chart
    live = slice(None)   # every point, by view, until the first leaves
    # what each point leaves with: u's jet, its frame, certificate and residual
    G, H = np.empty(X.shape), np.empty((3, len(X)))
    E1, E2 = (None, None) if flat else (np.empty(X.shape), np.empty(X.shape))
    ok, res = np.empty(len(X), bool), np.empty(len(X))
    cap = 0.5 * u.grid.radius
    tol, degenerate = _NEWTON_TOL * a, _DET_TOL * a * a
    a_eye = (a * _I_ROWS)[:, None]
    basis = m.tangent_frame(X) if flat else None
    for it in range(_NEWTON_ITERS + 1):   # the last pass takes the jet and leaves
        x = X[live]
        e1, e2 = frame = (basis[0][:len(x)], basis[1][:len(x)]) if flat else m.tangent_frame(x)
        gu, hu = u.jet(x, frame)
        hd = a_eye   # the rows of Hess(a rho_y^2 / 2) on the flat charts and at y
        if it == 0 and np.array_equal(X, Y):
            g = gu
        elif flat:   # grad(a |x - y|^2 / 2) = a (x - y)
            g = gu + a * (x - Y[live])
        else:   # a rho_y^2 / 2 is the radial function with f' = a rho, f'' = a
            g, hd = _radial_derivatives(m, Y[live], x, lambda r: a * r,
                                        lambda r: np.full_like(r, a), frame)
            g += gu
        g1, g2 = (g[:, 0], g[:, 1]) if flat else (m.tangent_inner(x, g, e) for e in frame)
        q = g1 * g1 + g2 * g2
        certified = q < tol * tol
        done = certified if it < _NEWTON_ITERS else np.ones(len(x), bool)
        out = np.flatnonzero(done)
        if len(out) == len(X):   # the whole batch leaves at once
            return _Refinement(X, gu, hu, frame, certified, np.sqrt(q) / a)
        if len(out):   # they keep their jets, by 1-D scatters: row scatters run slower
            live = np.arange(len(X))[live]
            at = live[out]
            for k in range(X.shape[1]):
                G[at, k] = gu[out, k]
                if not flat:
                    E1[at, k] = e1[out, k]
                    E2[at, k] = e2[out, k]
            for k in range(3):
                H[k, at] = hu[k, out]
            ok[at] = certified[out]
            res[at] = np.sqrt(q[out]) / a
            keep = ~done
            live = live[keep]
            if not len(live):
                break
            x, g1, g2, hu = x[keep], g1[keep], g2[keep], hu[:, keep]
            if not flat:
                e1, e2 = e1[keep], e2[keep]
                if hd is not a_eye:
                    hd = hd[:, keep]
        _step(m, X, live, x, e1, e2, g1, g2, hu + hd, cap, degenerate)
    return _Refinement(X, G, H, basis if flat else (E1, E2), ok, res)


def _step(m: ModelSpace, X, live, x, e1, e2, g1, g2, h, cap: float, degenerate: float):
    """X[live] = x moved by the Newton step (d1, d2) from grad F's frame
    components (g1, g2) and Hess F's rows h, capped at length cap: added to
    the flat charts' coordinates, by exp along d1 e1 + d2 e2 elsewhere.  Its
    temporaries die before _newton's next jet, its memory peak."""
    h11, h12, h22 = h
    det = h11 * h22 - h12 * h12
    inv = 1.0 / np.where(np.abs(det) > degenerate, det, np.inf)   # 0 where h degenerates
    d1, d2 = (h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv
    if m.is_flat_chart:
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
