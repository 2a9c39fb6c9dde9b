import math

import mpmath
import numpy as np
import pytest

from abplab import contact
from abplab.contact import (_BLOCK, _DET_TOL, _NEWTON_ITERS, _NEWTON_TOL, _TIE_TOL,
                            _location_vertices, _nearest_differences, _newton, _polar_rho_sq,
                            check_contact_location, compute_contact_set,
                            gradient_contact_residual, refine_contact_points)
from abplab.fields import (ScalarField, _radial_derivatives, bump_field, constant_field,
                           hess_form, quadratic_field, random_bump_field, sum_fields)
from abplab.geometry import (ModelSpace, build_polar_grid, euclidean, gaussian_plane,
                             hyperbolic, sphere)
from abplab.report import seeded_rng
from conftest import ALL_MODELS, random_point


def _grid(m, r=1.0, n=48):
    return build_polar_grid(m, m.origin(), r, n, n)


def _disc_indices(grid, radius):
    return np.flatnonzero(grid.mask_within(grid.center, radius).ravel())


class TestComputeContactSet:
    def test_constant_field_identity(self, model):
        r = min(0.3, 0.2 * model.domain_radius_limit)
        g = _grid(model, r=r, n=32)
        u = constant_field(g, 1.7)
        E = _disc_indices(g, 0.5 * r)
        cs = compute_contact_set(u, 2.0, E)
        assert np.array_equal(np.sort(cs.contact_of), np.sort(E))
        vertex, node, level = cs.pairs()
        assert np.allclose(g.flat_points()[node[:5]], g.flat_points()[vertex[:5]])
        assert level[:5] == pytest.approx(1.7)

    def test_euclidean_quadratic_map(self):
        # oracle: grad(u + a/2 |.-y|^2) = 0 at x = a y/(a+b)
        m = euclidean()
        g = _grid(m, n=64)
        b, a = 1.5, 0.75
        u = quadratic_field(g, np.zeros(2), b)
        E = _disc_indices(g, 0.4)
        cs = compute_contact_set(u, a, E)
        X = g.flat_points()[cs.contact_of]
        Y = g.flat_points()[cs.vertex_indices]
        assert np.max(np.abs(X - (a / (a + b)) * Y)) < 2.0 * g.drho

    def test_vshaped_field_unit_ring(self):
        # 1-D calculus oracle: -s + s^2/2 is minimized at s = 1
        m = euclidean()
        g = _grid(m, r=1.5, n=64)
        u = ScalarField(g, -np.broadcast_to(g.rho[:, None], g.shape).copy())
        center_idx = np.array([int(np.argmin(g.rho)) * g.n_theta])
        cs = compute_contact_set(u, 1.0, center_idx)
        rho_contact = g.rho[cs.node_indices // g.n_theta]
        assert np.all(np.abs(rho_contact - 1.0) <= 1.5 * g.drho)

    def test_empty_vertex_set_rejected(self):
        g = _grid(euclidean(), n=16)
        u = constant_field(g, 0.0)
        with pytest.raises(ValueError, match="empty"):
            compute_contact_set(u, 1.0, np.array([], dtype=np.int64))

    def test_nan_field_rejected(self):
        # a NaN would void the block lower bounds the scan prunes with
        g = _grid(euclidean(), n=16)
        vals = np.zeros(g.shape)
        vals[3, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            compute_contact_set(ScalarField(g, vals), 1.0, _disc_indices(g, 0.5))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_field_rejected(self, value):
        # an infinite node ties the +inf padding slots, which could then win
        # the argmin: an IndexError at 17^2, garbage pairs at 64^2
        g = _grid(euclidean(), n=16)
        vals = np.zeros(g.shape)
        vals[3, 5] = value
        with pytest.raises(ValueError, match=r"non-finite values \(NaN or inf\)"):
            compute_contact_set(ScalarField(g, vals), 1.0, _disc_indices(g, 0.5))

    def test_sphere_domain_size_guard(self):
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 0.7, 32, 32)
        u = constant_field(g, 0.0)
        with pytest.raises(ValueError, match="pi"):
            compute_contact_set(u, 1.0, _disc_indices(g, 0.6))

    def test_monotone_in_vertex_set(self, rng):
        m = euclidean()
        g = _grid(m, n=32)
        u = sum_fields([quadratic_field(g, np.zeros(2), 0.5),
                        bump_field(g, np.array([0.2, 0.1]), -0.2, 6.0)])
        big = _disc_indices(g, 0.35)
        small = rng.choice(big, size=len(big) // 3, replace=False)
        A_small = compute_contact_set(u, 1.0, small).node_indices
        A_big = compute_contact_set(u, 1.0, big).node_indices
        assert np.all(np.isin(A_small, A_big))

    def test_grid_refinement_hausdorff(self):
        # closedness proxy: contact nodes converge under grid refinement
        m = euclidean()
        sets = {}
        for n in (32, 64):
            g = _grid(m, n=n)
            u = sum_fields([quadratic_field(g, np.zeros(2), 1.0),
                            bump_field(g, np.array([0.15, -0.1]), 0.3, 4.0)])
            cs = compute_contact_set(u, 1.0, _disc_indices(g, 0.35))
            sets[n] = g.flat_points()[cs.node_indices]
        h = 1.0 / 32
        d = np.sqrt(((sets[32][:, None, :] - sets[64][None, :, :]) ** 2).sum(-1))
        hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert hausdorff <= 2.0 * h

    def test_uniform_limit_stability(self):
        m = euclidean()
        g = _grid(m, n=40)
        base = quadratic_field(g, np.zeros(2), 1.0)
        E = _disc_indices(g, 0.3)
        A = compute_contact_set(base, 1.0, E).node_indices
        pts = g.flat_points()
        k = 200.0
        wobble = np.sin(5.0 * g.points[..., 0]) / k
        uk = ScalarField(g, base.values + wobble)
        Ak = compute_contact_set(uk, 1.0, E).node_indices
        d = np.sqrt(((pts[Ak][:, None] - pts[A][None, :]) ** 2).sum(-1))
        assert float(d.min(axis=1).max()) <= 2.0 * g.drho + 2.0 * g.radius * g.dtheta

    def test_opening_limit_to_argmin(self):
        # a_k -> 0 sends contacts to the global minimizer of u
        m = euclidean()
        g = _grid(m, n=40)
        u = bump_field(g, np.array([0.2, 0.05]), -1.0, 6.0)
        E = _disc_indices(g, 0.3)
        argmin_pt = g.flat_points()[int(np.argmin(u.values))]
        for k in (10.0, 100.0, 1000.0):
            cs = compute_contact_set(u, 1.0 / k, E)
            pts = g.flat_points()[cs.node_indices]
            worst = np.max(np.linalg.norm(pts - argmin_pt, axis=1))
            if k == 1000.0:
                assert worst <= 2.0 * g.drho + 2.0 * g.radius * g.dtheta

    def test_exact_ties_all_retained(self):
        m = euclidean()
        g = _grid(m, n=32)
        a = 1.0
        yi = 5 * g.n_theta + 3
        y = g.flat_points()[yi]
        vals = np.zeros(g.n_r * g.n_theta)
        # plant two nodes with identical touching value by construction
        for node in (12 * g.n_theta + 10, 20 * g.n_theta + 25):
            d2 = float(np.sum((g.flat_points()[node] - y) ** 2))
            vals[node] = -5.0 - 0.5 * a * d2
        u = ScalarField(g, vals.reshape(g.shape))
        cs = compute_contact_set(u, a, np.array([yi]))
        assert len(cs.node_indices) == 2

    def test_pairs_sorted_and_levels(self):
        m = euclidean()
        g = _grid(m, n=24)
        u = quadratic_field(g, np.zeros(2), 1.0)
        cs = compute_contact_set(u, 1.0, _disc_indices(g, 0.3))
        vertex, node, level = cs.pairs()
        keys = list(zip(vertex.tolist(), node.tolist()))
        assert keys == sorted(keys)
        assert np.array_equal(level, cs.min_values[np.argsort(cs.vertex_indices)])

    def test_tie_levels_with_unsorted_vertices(self, model):
        # a tie pair's level is its own vertex's infimum even when E is not
        # ascending: two planted minimisers tie for the middle vertex of E
        g = _grid(model, r=min(0.8, 0.2 * model.domain_radius_limit), n=40)
        a = 1.0
        E = 7 * g.n_theta + np.array([5, 3, 9])
        planted = np.array([2 * g.n_theta + 30, 15 * g.n_theta + 12])
        X = g.flat_points()
        vals = np.zeros(g.n_r * g.n_theta)
        vals[planted] = -5.0 - 0.5 * a * model.distance(X[E[1]], X[planted]) ** 2
        u = ScalarField(g, vals.reshape(g.shape))
        cs = _assert_matches_brute_force(model, u, a, E)
        vertex, node, level = cs.pairs()
        assert len(vertex) == len(E) + 1 and vertex[-1] == E[1]
        assert level[-1] == cs.min_values[1] != cs.min_values[0]
        own = dict(zip(E.tolist(), cs.min_values.tolist()))
        assert level.tolist() == [own[v] for v in vertex.tolist()]


class TestOneModel:
    """The model and grid of a scan or a refinement are u's own."""

    def test_scan_refuses_omega_without_u_nodes(self):
        u = quadratic_field(_grid(euclidean(), n=32), np.zeros(2), 1.0)
        other = _grid(euclidean(), n=24)
        with pytest.raises(ValueError, match="Omega is 24x24 .* u's grid is 32x32"):
            compute_contact_set(u, 1.0, _disc_indices(u.grid, 0.3), Omega=other)

    def test_scan_refuses_omega_on_another_model(self):
        # the same node coordinates under another weight
        u = quadratic_field(_grid(euclidean(), n=32), np.zeros(2), 1.0)
        other = _grid(gaussian_plane(1.0), n=32)
        with pytest.raises(ValueError, match="gaussian_plane.*u's grid .*euclidean"):
            compute_contact_set(u, 1.0, _disc_indices(u.grid, 0.3), Omega=other)

    def test_scan_accepts_an_equal_omega(self):
        u = quadratic_field(_grid(euclidean(), n=32), np.zeros(2), 1.0)
        E = _disc_indices(u.grid, 0.3)
        twin = _grid(euclidean(), n=32)
        got, want = compute_contact_set(u, 1.0, E, Omega=twin), compute_contact_set(u, 1.0, E)
        assert np.array_equal(got.contact_of, want.contact_of)

    def test_refinement_refuses_another_model(self):
        g = _grid(euclidean(), n=32)
        u = quadratic_field(g, np.zeros(2), 1.0)
        Y = g.flat_points()[_disc_indices(g, 0.3)]
        with pytest.raises(ValueError, match="m is the hyperbolic model.*u's grid is on the "
                                             "euclidean model"):
            refine_contact_points(hyperbolic(1.0), u, 1.0, Y, Y.copy())


def _brute_force(m, u, a, E, tie_tol=1e-12):
    """Oracle: u + (a/2) rho^2 at every node, argmin and every node within
    tie_tol of the minimum."""
    X = u.grid.flat_points()
    rho = np.array([m.distance(X[y], X) for y in E])
    F = u.values.reshape(-1)[None, :] + 0.5 * a * rho ** 2
    contact = np.argmin(F, axis=1)
    best = F[np.arange(len(E)), contact]
    ties = [[int(y), int(x)] for k, y in enumerate(E)
            for x in np.flatnonzero(F[k] <= best[k] + tie_tol) if x != contact[k]]
    return contact, best, ties


def _assert_matches_brute_force(m, u, a, E, **kwargs):
    cs = compute_contact_set(u, a, E, **kwargs)
    contact, best, ties = _brute_force(m, u, a, E)
    assert np.array_equal(cs.vertex_indices, E)
    assert np.array_equal(cs.contact_of, contact)
    assert cs.ties.tolist() == ties
    extra = np.array([x for _, x in ties], dtype=np.int64)
    assert np.array_equal(cs.node_indices, np.unique(np.concatenate([contact, extra])))
    assert np.max(np.abs(cs.min_values - best)) <= 1e-14
    return cs


class TestPrunedScanMatchesBruteForce:
    """The pruned scan against an exhaustive scan of every node."""

    @staticmethod
    def _setup(m, rng, n_r=48, n_theta=48):
        r = min(0.8, 0.2 * m.domain_radius_limit)
        g = build_polar_grid(m, m.origin(), r, n_r, n_theta)
        return g, random_bump_field(g, rng, hess_bound=0.5)

    def test_disc_vertex_set(self, model, rng):
        g, u = self._setup(model, rng)
        _assert_matches_brute_force(model, u, 1.0, _disc_indices(g, 0.45 * g.radius))

    def test_off_centre_vertex_set(self, model, rng):
        # the growth check's vertex set: B_{r/6}(y0) around an off-centre node
        g, u = self._setup(model, rng)
        y0 = g.points[g.n_r // 3, g.n_theta // 5]
        E = np.flatnonzero(g.mask_within(y0, g.radius / 6.0).ravel())
        _assert_matches_brute_force(model, u, 1.0 / g.radius**2, E)

    def test_strided_vertex_set(self, model, rng):
        g, u = self._setup(model, rng)
        _assert_matches_brute_force(model, u, 1.0, _disc_indices(g, 0.6 * g.radius)[::7])

    @pytest.mark.parametrize("r", [5.0, 20.0])
    def test_far_out_hyperboloid(self, r, rng):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), r, 32, 36)
        u = random_bump_field(g, rng, hess_bound=0.5)
        _assert_matches_brute_force(m, u, 1.0 / r, _disc_indices(g, 0.6 * r)[::3])

    def test_ragged_last_block(self, model, rng):
        g, u = self._setup(model, rng, n_r=24, n_theta=50)
        _assert_matches_brute_force(model, u, 1.0, _disc_indices(g, 0.5 * g.radius))

    def test_small_chunks(self, model, rng):
        # the band of rings each vertex ring scans depends on the seeds of
        # its vertices; no chunking may change the contact set
        g, u = self._setup(model, rng, n_r=24, n_theta=40)
        y0 = g.points[g.n_r // 3, g.n_theta // 5]
        for E in (_disc_indices(g, 0.4 * g.radius),
                  np.flatnonzero(g.mask_within(y0, g.radius / 6.0).ravel())):
            for chunk in (1, 3, 128):
                _assert_matches_brute_force(model, u, 2.0, E, chunk=chunk)

    def test_planted_exact_ties(self, model):
        # u = c - (a/2) rho^2(., y) on four nodes in different rings and
        # angular blocks makes all four minimisers for y, zero elsewhere
        g = _grid(model, r=min(0.8, 0.2 * model.domain_radius_limit), n=40)
        a = 1.0
        yi = 7 * g.n_theta + 3
        planted = np.array([2 * g.n_theta + 30, 7 * g.n_theta + 3, 15 * g.n_theta + 12,
                            30 * g.n_theta + 39])
        X = g.flat_points()
        vals = np.zeros(g.n_r * g.n_theta)
        vals[planted] = -5.0 - 0.5 * a * model.distance(X[yi], X[planted]) ** 2
        u = ScalarField(g, vals.reshape(g.shape))
        E = np.array([yi, yi + 1, 20 * g.n_theta + 17])
        cs = _assert_matches_brute_force(model, u, a, E)
        assert set(planted) <= {int(cs.contact_of[0])} | {x for y, x in cs.ties.tolist() if y == yi}

    def test_ties_within_tolerance(self, model):
        # a node on the vertex's own ray, 5e-13 above the minimum at the
        # vertex: its block's lower bound is its exact value, so only the
        # tie_tol slack in the pruning keeps it
        g = _grid(model, r=min(0.8, 0.2 * model.domain_radius_limit), n=40)
        a = 1.0
        yi = 6 * g.n_theta + 9
        near = 25 * g.n_theta + 9
        X = g.flat_points()
        vals = np.zeros(g.n_r * g.n_theta)
        vals[yi] = -5.0
        vals[near] = -5.0 + 5e-13 - 0.5 * a * model.distance(X[yi], X[near]) ** 2
        u = ScalarField(g, vals.reshape(g.shape))
        cs = _assert_matches_brute_force(model, u, a, np.array([yi]))
        assert cs.ties.tolist() == [[yi, near]]

    def test_seeded_bound_keeps_exact_tie(self, model):
        # vertices on rings 5 and 6 of one angle both touch at x_star, on the
        # opposite ray; the outer vertex's seed patch then holds its exact
        # minimum, so its bound is min + tie_tol.  A node a quarter turn away,
        # 5e-13 above that minimum, must still be reported as a tie.
        g = _grid(model, r=min(0.8, 0.2 * model.domain_radius_limit), n=40)
        a = 1.0
        E = np.array([5, 6]) * g.n_theta + 9
        x_star = 25 * g.n_theta + 29
        near = 25 * g.n_theta + 19
        X = g.flat_points()
        vals = np.zeros(g.n_r * g.n_theta)
        vals[x_star] = -5.0 - 0.5 * a * model.distance(X[E[1]], X[x_star]) ** 2
        vals[near] = -5.0 + 5e-13 - 0.5 * a * model.distance(X[E[1]], X[near]) ** 2
        u = ScalarField(g, vals.reshape(g.shape))
        cs = _assert_matches_brute_force(model, u, a, E)
        assert cs.contact_of.tolist() == [x_star, x_star]
        assert cs.ties.tolist() == [[int(E[1]), near]]


def _table_brute_force(u, a, E):
    """Oracle through the scan's own per-ring table: F_y(x) = u(x) +
    T_iv[i, (j - jv) mod n_theta] for y = (iv, jv), x = (i, j), with T_iv the
    (a/2) rho^2 from node (iv, 0) in full _polar_rho_sq rows; argmin and
    every node within _TIE_TOL."""
    g = u.grid
    n_t = g.n_theta
    sin2 = np.sin(0.5 * g.theta) ** 2
    F = []
    for y in E:
        iv, jv = divmod(int(y), n_t)
        T = (0.5 * a) * _polar_rho_sq(g.model, g.rho, iv, np.arange(g.n_r)[:, None], sin2)
        F.append((u.values + T[:, (np.arange(n_t) - jv) % n_t]).reshape(-1))
    F = np.array(F)
    contact = np.argmin(F, axis=1)
    best = F[np.arange(len(E)), contact]
    ties = [[int(y), int(x)] for k, y in enumerate(E)
            for x in np.flatnonzero(F[k] <= best[k] + _TIE_TOL) if x != contact[k]]
    return contact, best, ties


def _exact_rho_sq(m, rho_v, rho, theta):
    """rho^2 between the polar nodes (rho_v, 0) and (rho, theta) of m, by the
    half-angle law of cosines at 60 digits."""
    with mpmath.workdps(60):
        s = mpmath.sqrt(abs(mpmath.mpf(m.sectional()))) or mpmath.mpf(1)
        sn, asn = {"sphere": (mpmath.sin, mpmath.asin),
                   "hyperbolic": (mpmath.sinh, mpmath.asinh)}.get(m.kind, (lambda t: t, lambda t: t))
        rv, r = mpmath.mpf(rho_v), mpmath.mpf(rho)
        q = (sn(s * (r - rv) / 2) ** 2
             + sn(s * r) * sn(s * rv) * mpmath.sin(mpmath.mpf(theta) / 2) ** 2)
        return (2 * asn(mpmath.sqrt(q)) / s) ** 2


class TestRingBand:
    """The scan's rho^2 tables come from the polar law of cosines, and each
    vertex ring scans only the band of rings that the table's entry at
    angle difference 0, lowered by 2^-40, cannot exclude."""

    CASES = ([(euclidean(), r) for r in (1.0, 1e4)] + [(gaussian_plane(1.0), 0.8)]
             + [(sphere(k), f * 0.5 * math.pi / math.sqrt(k)) for k in (1.0, 25.0)
                for f in (0.05, 0.2)]
             + [(hyperbolic(1.0), r) for r in (0.5, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0)])
    IDS = [f"{m.kind}-{r:g}" for m, r in CASES]

    @pytest.mark.parametrize("m, r", CASES, ids=IDS)
    def test_polar_table_matches_mpmath(self, m, r):
        g = _grid(m, r=r, n=48)
        rng = np.random.default_rng(0)
        iv, i, k = rng.integers(0, 48, size=(3, 300))
        sin2 = np.sin(0.5 * g.theta) ** 2
        got = _polar_rho_sq(m, g.rho, iv, i, sin2[k])
        eps = np.finfo(float).eps
        for n in range(len(got)):
            exact = _exact_rho_sq(m, g.rho[iv[n]], g.rho[i[n]], g.theta[k[n]])
            assert abs(got[n] - exact) <= 4 * eps * exact

    @pytest.mark.parametrize("m, r", CASES, ids=IDS)
    def test_floor_below_every_tabulated_distance(self, m, r):
        # the floor the scan bands its rings by, against every entry of the
        # table rows it stands for; it is the squared ring gap at every radius
        g = _grid(m, r=r, n=48)
        rings = np.arange(g.n_r)
        sin2 = np.sin(0.5 * g.theta) ** 2
        for iv in rings:
            floor = _polar_rho_sq(m, g.rho, iv, rings, 0.0) * (1.0 - 2.0 ** -40)
            T = _polar_rho_sq(m, g.rho, iv, rings[:, None], sin2)
            assert np.all(floor <= T.min(axis=1))
            assert np.all(floor >= (g.rho - g.rho[iv]) ** 2 * (1.0 - 1e-12))

    # rings out to the sphere's working limit and far out on the hyperboloid
    BOUND_CASES = CASES + [(sphere(k), 0.999 * 0.5 * math.pi / math.sqrt(k)) for k in (1.0, 25.0)]
    BOUND_IDS = IDS + [f"sphere-limit-k{k:g}" for k in (1.0, 25.0)]

    @pytest.mark.parametrize("n_theta", [48, 50, 13])
    @pytest.mark.parametrize("m, r", BOUND_CASES, ids=BOUND_IDS)
    def test_nearest_column_below_its_window(self, m, r, n_theta):
        # the lowered table column of least sin^2 against every entry of the
        # window of angle differences between two blocks of _BLOCK angles
        # d blocks apart, on every vertex ring
        g = build_polar_grid(m, m.origin(), r, 40, n_theta)
        n_b = -(-n_theta // _BLOCK)
        window = (np.arange(1 - n_b, n_b)[:, None] * _BLOCK
                  + np.arange(1 - _BLOCK, _BLOCK)[None, :]) % n_theta
        sin2 = np.sin(0.5 * g.theta) ** 2
        nearest = _nearest_differences(sin2, n_b)
        assert all(j in row for j, row in zip(nearest, window))
        rings = np.arange(g.n_r)
        for iv in rings:
            T = _polar_rho_sq(m, g.rho, iv, rings[:, None], sin2)
            assert np.all(T[:, nearest] * (1.0 - 2.0 ** -40) <= T[:, window].min(axis=2))

    @pytest.mark.parametrize("r", [10.0, 15.0])
    def test_table_exact_oracle_far_out(self, r):
        # Far out on the hyperboloid, rho^2 from the stored points falls
        # below the exact (rho_i - rho_iv)^2 on some rings.  A node planted
        # on the ray of a ring-40 vertex, on the ring where it falls
        # furthest below, has F from the stored points under the vertex's
        # own F = 0, while its exact F lies above _TIE_TOL: the polar table
        # keeps the exact gap, so the node loses and the vertex is returned.
        m = hyperbolic(1.0)
        g = _grid(m, r=r, n=48)
        n_t, a = g.n_theta, 1.0
        X = g.flat_points()
        iv, jv = 40, 5
        stored = m.distance(X[iv * n_t], X).reshape(g.shape) ** 2
        gap = (g.rho - g.rho[iv]) ** 2
        deficit = 1.0 - stored.min(axis=1) / np.where(gap > 0.0, gap, np.inf)
        deficit[iv] = 0.0
        i = int(np.argmax(deficit))
        y, x = iv * n_t + jv, i * n_t + jv
        assert np.argmin(stored[i]) == 0 and deficit[i] > 3e-9
        vals = np.zeros(g.n_r * n_t)
        vals[x] = -0.5 * a * gap[i] * (1.0 - 3e-9)
        u = ScalarField(g, vals.reshape(g.shape))
        assert vals[x] + 0.5 * a * stored[i, 0] < 0.0
        assert vals[x] + 0.5 * a * gap[i] * (1.0 - 2e-9) > _TIE_TOL
        cs = compute_contact_set(u, a, np.array([y]))
        contact, best, ties = _table_brute_force(u, a, np.array([y]))
        assert cs.contact_of.tolist() == contact.tolist() == [y]
        assert cs.min_values.tolist() == best.tolist() == [0.0]
        assert cs.ties.tolist() == ties == []

    @pytest.mark.parametrize("r", [10.0, 15.0, 20.0, 50.0])
    def test_scan_matches_table_oracle_far_out(self, r, rng):
        g = _grid(hyperbolic(1.0), r=r, n=32)
        u = random_bump_field(g, rng, hess_bound=0.5)
        E = np.flatnonzero(g.mask_within(g.center, 0.6 * r).ravel())[::5]
        cs = compute_contact_set(u, 1.0 / r, E)
        contact, best, ties = _table_brute_force(u, 1.0 / r, E)
        assert np.array_equal(cs.contact_of, contact)
        assert np.array_equal(cs.min_values, best) and cs.ties.tolist() == ties


class TestGradientResidual:
    def test_constant_pair_zero(self):
        m = euclidean()
        g = _grid(m, n=24)
        u = constant_field(g, 2.0)
        cs = compute_contact_set(u, 1.0, _disc_indices(g, 0.2))
        vertex, node, _ = cs.pairs()
        X = g.flat_points()
        assert gradient_contact_residual(u, 1.0, X[node[0]], X[vertex[0]]) \
            == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_refined_pair(self):
        m = euclidean()
        g = _grid(m, n=48)
        u = quadratic_field(g, np.zeros(2), 1.0)
        E = _disc_indices(g, 0.3)
        cs = compute_contact_set(u, 1.0, E)
        Y = g.flat_points()[cs.vertex_indices]
        X = refine_contact_points(m, u, 1.0, Y, g.flat_points()[cs.contact_of])
        # closed-form identity b x = a (y - x) at the refined points
        assert np.max(np.abs(1.0 * X - 1.0 * (Y - X))) < 1e-10
        assert np.max(gradient_contact_residual(u, 1.0, X, Y)) < 1e-10

    def test_boundary_contact_flagged_by_residual(self):
        # a linear field drags the minimizer onto the boundary ring, where the
        # first-order contact identity fails
        m = euclidean()
        g = _grid(m, n=48)
        slope = 3.0

        def val(p):
            return slope * np.asarray(p, float)[..., 0]

        def deriv(p, frame):
            grad = np.zeros(np.asarray(p).shape)
            grad[..., 0] = slope
            return grad if frame is None else (grad, np.zeros((3,) + grad.shape[:-1]))

        u = ScalarField(g, val(g.points), val, deriv)
        yi = int(np.argmin(np.abs(g.rho - 0.1))) * g.n_theta
        cs = compute_contact_set(u, 1.0, np.array([yi]))
        vertex, node, _ = cs.pairs()
        X = g.flat_points()
        assert gradient_contact_residual(u, 1.0, X[node[0]], X[vertex[0]]) > 0.1

    def test_vectorized_matches_per_pair_loop(self, model, rng):
        # the residuals of all pairs in one call against one call per pair
        g = _grid(model, r=0.5, n=32)
        u = random_bump_field(g, rng, hess_bound=0.5)
        cs = compute_contact_set(u, 1.0, _disc_indices(g, 0.2))
        vertex, node, _ = cs.pairs()
        X = g.flat_points()[node]
        Y = g.flat_points()[vertex]
        got = gradient_contact_residual(u, 1.0, X, Y)
        want = [float(gradient_contact_residual(u, 1.0, x, y)) for x, y in zip(X, Y)]
        assert got.shape == (len(vertex),)
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=1)


class TestContactLocation:
    def test_euclidean_well(self):
        m = euclidean()
        g = _grid(m, r=1.0, n=64)
        y0 = g.points[12, 5]
        u = sum_fields([constant_field(g, 1.0), bump_field(g, y0, -1.0, 8.0)])
        l = float(u.value(y0))
        t = 1.0 - math.exp(-8.0 / 9.0)
        cs = compute_contact_set(u, 1.0, _location_vertices(g, y0, 1.0))
        rep = check_contact_location(u, 1.0, m.origin(), 1.0, y0, l, t - 1e-9, cs)
        assert rep.passed
        assert rep.diagnostics["max_distance"] <= 5.0 / 6.0

    def test_sphere_transplanted_well(self):
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 0.35, 48, 48)
        y0 = g.points[6, 11]
        u = sum_fields([constant_field(g, 1.0), bump_field(g, y0, -1.0, 60.0)])
        l = float(u.value(y0))
        shell = ~g.mask_within(m.origin(), 5.0 * 0.35 / 6.0)
        t = float(np.min(u.values[shell]))
        cs = compute_contact_set(u, 1.0, _location_vertices(g, y0, 0.35))
        rep = check_contact_location(u, 1.0, m.origin(), 0.35, y0, l, t - 1e-9, cs)
        assert rep.passed

    def test_premise_violation_reported(self):
        m = euclidean()
        g = _grid(m, n=32)
        u = constant_field(g, 0.5)
        y0 = g.points[3, 0]
        cs = compute_contact_set(u, 1.0, _location_vertices(g, y0, 1.0))
        rep = check_contact_location(u, 1.0, m.origin(), 1.0, y0, 0.9, 0.5, cs)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "l < t"


class TestDistanceHessian:
    def test_matches_fd_on_models(self):
        # rho_y^2 / 2 through the shared radial routine: f' = rho, f'' = 1.
        # Its frame components against second differences along e1, e2 and
        # (e1 + e2)/sqrt(2), off the centre and at it, where the rows
        # (h11, h12, h22) are the identity's (1, 0, 1)
        for m in ALL_MODELS:
            o = m.origin()
            e1, e2 = m.tangent_frame(o)
            y = m.exp(o, 0.4 * e1)
            f = lambda p: 0.5 * m.distance(p, y) ** 2
            h = 1e-5
            for x in (m.exp(o, 0.25 * e2), y):
                a1, a2 = frame = m.tangent_frame(x)
                gd, hd = _radial_derivatives(m, y, x, lambda r: r, np.ones_like, frame)
                for e in (a1, a2):
                    fd = (f(m.exp(x, h * e)) - f(m.exp(x, -h * e))) / (2 * h)
                    assert fd == pytest.approx(float(m.tangent_inner(x, gd, e)), abs=1e-8)
                diagonal = 0.5 * (hd[0] + 2.0 * hd[1] + hd[2])
                for e, want in ((a1, hd[0]), (a2, hd[2]),
                                ((a1 + a2) / math.sqrt(2.0), diagonal)):
                    fd2 = (f(m.exp(x, h * e)) - 2 * f(x) + f(m.exp(x, -h * e))) / h**2
                    assert fd2 == pytest.approx(float(want), abs=1e-5)
            np.testing.assert_array_equal(hd, [1.0, 0.0, 1.0])


def _newton_all_points(m, u, a, Y, X):
    """Reference refinement: every point steps at every iteration until all
    frame components of grad F are below the tolerance.  The Hessian of u
    is read through hess_form, that of rho_y^2/2 from its eigenvalues, 1
    along e_r and dist_hessian_transverse across it."""
    cap = 0.5 * u.grid.radius
    for _ in range(_NEWTON_ITERS):
        e = m.tangent_frame(X)
        v = m.log(X, Y)
        rho = m.tangent_norm(X, v)
        er = -v / np.where(rho > 0, rho, 1.0)[:, None]
        t = m.dist_hessian_transverse(rho)
        H = u.hess(X)
        grad = u.grad(X) - a * v
        c = np.stack([m.tangent_inner(X, er, ea) for ea in e], -1)
        h = np.array([[hess_form(m, H, ea, eb) for eb in e] for ea in e]).transpose(2, 0, 1)
        h += a * (t[:, None, None] * np.eye(2)
                  + (1.0 - t)[:, None, None] * c[:, :, None] * c[:, None, :])
        gf = np.stack([m.tangent_inner(X, grad, ea) for ea in e], -1)
        d = -np.linalg.solve(h, gf[:, :, None])[:, :, 0]
        step = d[:, :1] * e[0] + d[:, 1:] * e[1]
        ln = m.tangent_norm(X, step)
        X = m.exp(X, step * np.minimum(1.0, cap / np.maximum(ln, 1e-300))[:, None])
        if np.max(np.abs(gf)) < _NEWTON_TOL:
            break
    return X


FLAT_MODELS = [euclidean(), gaussian_plane(1.0)]


class TestNewtonFreeze:
    def test_converged_points_leave_after_one_evaluation(self):
        # F_y = (b/2)|x|^2 + (a/2)|x - y|^2 is least at a y/(a + b) on both
        # flat charts.  The half of the vertices started there converge at
        # the first evaluation; the rest take one exact Newton step and
        # converge at the second
        for m in FLAT_MODELS:
            g = _grid(m, n=32)
            a, b = 1.0, 0.5
            u = quadratic_field(g, np.zeros(2), b)
            counts = []

            def deriv(p, frame):
                if frame is not None:
                    counts.append(len(p))
                return u.deriv_fn(p, frame)

            Y = g.flat_points()[_disc_indices(g, 0.4)]
            X0 = Y.copy()
            half = len(Y) // 2
            X0[:half] = a * Y[:half] / (a + b)
            X = refine_contact_points(m, ScalarField(g, u.values, u.value_fn, deriv), a, Y, X0)
            assert counts == [len(Y), len(Y) - half], m.kind
            assert np.max(np.abs(X - a * Y / (a + b))) < 1e-14, m.kind

    @pytest.mark.parametrize("m", FLAT_MODELS, ids=[m.kind for m in FLAT_MODELS])
    def test_flat_frame_is_built_once_and_sliced(self, m, monkeypatch):
        # the setting above: the flat charts ask for one frame per call and
        # hand u's jet the coordinate basis cut to the live points
        g = _grid(m, n=32)
        a, b = 1.0, 0.5
        u = quadratic_field(g, np.zeros(2), b)
        built, seen = [], []
        frame_of = ModelSpace.tangent_frame
        monkeypatch.setattr(ModelSpace, "tangent_frame",
                            lambda self, p: built.append(np.shape(p)) or frame_of(self, p))

        def deriv(p, frame):
            if frame is not None:
                seen.append((len(p), frame))
            return u.deriv_fn(p, frame)

        Y = g.flat_points()[_disc_indices(g, 0.4)]
        X0 = Y.copy()
        half = len(Y) // 2
        X0[:half] = a * Y[:half] / (a + b)
        refine_contact_points(m, ScalarField(g, u.values, u.value_fn, deriv), a, Y, X0)
        assert built == [Y.shape]
        assert [n for n, _ in seen] == [len(Y), len(Y) - half]
        for n, (e1, e2) in seen:
            np.testing.assert_array_equal(e1, np.broadcast_to([1.0, 0.0], (n, 2)))
            np.testing.assert_array_equal(e2, np.broadcast_to([0.0, 1.0], (n, 2)))

    def test_matches_all_points_newton(self, model, rng):
        g = _grid(model, r=0.5, n=48)
        a = 1.0
        u = random_bump_field(g, rng, hess_bound=0.5 * a)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        X = refine_contact_points(model, u, a, Y, Y.copy())
        want = _newton_all_points(model, u, a, Y, Y.copy())
        assert np.max(np.abs(X - want)) < 1e-12
        assert np.max(gradient_contact_residual(u, a, X, Y)) < 1e-12


def _newton_stacked(m, u, a, Y, X):
    """The flat-chart loop on stacked operands: a (n, 2, 2) Hessian, and a
    (n, 2) step capped through tangent_norm and taken through exp by every
    live point but those certified where they stand."""
    X = X.copy()
    live = np.arange(len(X))
    cap = 0.5 * u.grid.radius
    for _ in range(_NEWTON_ITERS):
        x = X[live]
        gu, (h11, h12, h22) = u.jet(x, m.tangent_frame(x))
        hu = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
        g, h = gu + a * (x - Y[live]), hu + a * np.eye(2)
        g1, g2 = g[:, 0], g[:, 1]
        h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        det = h11 * h22 - h12 * h12
        inv = 1.0 / np.where(np.abs(det) > _DET_TOL * a * a, det, np.inf)
        step = np.stack([(h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv], axis=1)
        ln = m.tangent_norm(x, step)
        if np.any(ln > cap):
            step *= (cap / np.maximum(ln, cap))[:, None]
        go = ~(g1 * g1 + g2 * g2 < (_NEWTON_TOL * a) ** 2)
        X[live[go]] = m.exp(x, step)[go]
        live = live[go]
        if live.size == 0:
            break
    return X


def _newton_curved_stacked(m, u, a, Y, X):
    """The curved-chart loop with the step scaled over the trailing axis:
    d1[:, None] * e1 + d2[:, None] * e2, capped by step *= s[:, None], and
    taken by every live point but those certified where they stand."""
    X = X.copy()
    live = np.arange(len(X))
    cap = 0.5 * u.grid.radius
    for it in range(_NEWTON_ITERS):
        x = X[live]
        e1, e2 = frame = m.tangent_frame(x)
        gu, hu = u.jet(x, frame)
        if it == 0 and np.array_equal(X, Y):
            g, h = gu, hu + (a * np.array([1.0, 0.0, 1.0]))[:, None]
        else:
            g, h = _radial_derivatives(m, Y[live], x, lambda r: a * r,
                                       lambda r: np.full_like(r, a), frame)
            g += gu
            h += hu
        g1, g2 = (m.tangent_inner(x, g, e) for e in frame)
        h11, h12, h22 = h
        det = h11 * h22 - h12 * h12
        inv = 1.0 / np.where(np.abs(det) > _DET_TOL * a * a, det, np.inf)
        d1, d2 = (h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv
        step = d1[:, None] * e1 + d2[:, None] * e2
        ln = m.tangent_norm(x, step)
        if np.any(ln > cap):
            step *= (cap / np.maximum(ln, cap))[:, None]
        go = ~(g1 * g1 + g2 * g2 < (_NEWTON_TOL * a) ** 2)
        X[live[go]] = m.exp(x, step)[go]
        live = live[go]
        if live.size == 0:
            break
    return X


class TestNewtonCurvedStep:
    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0)], ids=["sphere", "hyperbolic"])
    def test_capped_steps_match_the_stacked_loop(self, m, rng):
        # half the points start 0.4 from their vertices, where the first
        # steps exceed the cap 0.15; the steps formed per component land bit
        # for bit where the stacked loop does
        g = _grid(m, r=0.3, n=32)
        u = random_bump_field(g, rng, hess_bound=0.25)
        Y = g.flat_points()[_disc_indices(g, 0.15)]
        X0 = Y.copy()
        X0[::2] = m.exp(Y[::2], 0.4 * m.tangent_frame(Y[::2])[0])
        for start in (Y, X0):
            X = refine_contact_points(m, u, 1.0, Y, start)
            assert X.tobytes() == _newton_curved_stacked(m, u, 1.0, Y, start).tobytes()
            assert np.max(gradient_contact_residual(u, 1.0, X, Y)) < 1e-12


class TestNewtonFlatStep:
    @pytest.mark.parametrize("m", FLAT_MODELS, ids=[m.kind for m in FLAT_MODELS])
    def test_capped_steps_match_the_stacked_loop(self, m, rng, monkeypatch):
        # every other point starts about 0.9 from its contact, where the
        # first Newton steps exceed the cap 0.15 = half the grid radius, the
        # rest at their vertices, inside it; the steps from (d1, d2) land bit
        # for bit where the stacked loop does
        g = _grid(m, r=0.3, n=32)
        a = 1.0
        u = sum_fields([quadratic_field(g, np.zeros(2), 0.5),
                        random_bump_field(g, rng, hess_bound=0.25)])
        Y = g.flat_points()[_disc_indices(g, 0.15)]
        X0 = Y.copy()
        X0[::2] += np.array([0.8, -0.5])
        X = refine_contact_points(m, u, a, Y, X0)
        assert X.tobytes() == _newton_stacked(m, u, a, Y, X0).tobytes()
        assert np.max(gradient_contact_residual(u, a, X, Y)) < 1e-12
        monkeypatch.setattr(contact, "_NEWTON_ITERS", 1)
        first = np.hypot(*(refine_contact_points(m, u, a, Y, X0) - X0).T)
        np.testing.assert_allclose(first[::2], 0.15, rtol=1e-12)
        assert np.max(first[1::2]) < 0.1


class TestNewtonFirstStep:
    def test_jet_at_the_centre_is_exact(self, model, rng):
        # the first Newton step from the vertices takes (0, I) without
        # evaluating it; at p == centre the routine gives exactly that, the
        # rows (h11, h12, h22) = (1, 0, 1)
        Y = np.stack([random_point(model, rng, 0.5) for _ in range(16)])
        gd, hd = _radial_derivatives(model, Y, Y, lambda r: r, np.ones_like,
                                     model.tangent_frame(Y))
        assert np.all(model.distance(model.origin(), Y) > 0.0)
        np.testing.assert_array_equal(gd, 0.0)
        assert hd.shape == (3, len(Y))
        np.testing.assert_array_equal(hd, np.broadcast_to([[1.0], [0.0], [1.0]], hd.shape))

    def test_step_from_the_vertices_is_exact_newton(self):
        # F_y = (b/2)|x|^2 + (a/2)|x - y|^2 from X0 = Y on both flat charts:
        # the first step, with the distance jet (a (x - y), a I) in chart
        # coordinates, lands on a y/(a + b), and every point converges at
        # the second evaluation
        for m in FLAT_MODELS:
            g = _grid(m, n=32)
            a, b = 0.6, 1.7
            u = quadratic_field(g, np.zeros(2), b)
            counts = []

            def deriv(p, frame):
                if frame is not None:
                    counts.append(len(p))
                return u.deriv_fn(p, frame)

            Y = g.flat_points()[_disc_indices(g, 0.4)]
            X = refine_contact_points(m, ScalarField(g, u.values, u.value_fn, deriv), a, Y,
                                      Y.copy())
            assert counts == [len(Y), len(Y)], m.kind
            assert np.max(np.abs(X - a * Y / (a + b))) < 1e-14, m.kind


    @pytest.mark.parametrize("m", FLAT_MODELS, ids=[m.kind for m in FLAT_MODELS])
    def test_flat_first_step_takes_the_jet_of_u_alone(self, m):
        # from X0 = Y the flat charts skip the distance gradient a (x - y),
        # which is 0 there: the refined points equal, bit for bit, those of
        # a Newton loop that adds it at every step
        g = _grid(m, r=0.8, n=48)
        a = 1.0
        u = random_bump_field(g, seeded_rng(13, f"first-step-{m.kind}"), hess_bound=0.5 * a)
        Y = g.flat_points()[_disc_indices(g, 0.36)]
        X = refine_contact_points(m, u, a, Y, Y)
        assert np.max(np.abs(X - Y)) > 1e-3
        assert X.tobytes() == _flat_newton_adding_the_distance_gradient(u, a, Y).tobytes()


def _flat_newton_adding_the_distance_gradient(u, a, Y):
    """The flat-chart Newton loop of refine_contact_points with the jet
    (a (x - y), a I) of a rho_y^2/2 added at every step, the first one too;
    a point certified where it stands takes no step."""
    X = Y.copy()
    live = np.arange(len(X))
    cap = 0.5 * u.grid.radius
    for _ in range(_NEWTON_ITERS):
        x = X[live]
        gu, hu = u.jet(x)
        g1, g2 = (gu + a * (x - Y[live])).T
        h11, h12, h22 = hu + (a * np.array([1.0, 0.0, 1.0]))[:, None]
        det = h11 * h22 - h12 * h12
        inv = 1.0 / np.where(np.abs(det) > _DET_TOL * a * a, det, np.inf)
        d1, d2 = (h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv
        ln = np.sqrt(d1 * d1 + d2 * d2)
        if np.any(ln > cap):
            s = cap / np.maximum(ln, cap)
            d1, d2 = d1 * s, d2 * s
        go = ~(g1 * g1 + g2 * g2 < (_NEWTON_TOL * a) ** 2)
        live = live[go]
        X[live, 0] = x[go, 0] + d1[go]
        X[live, 1] = x[go, 1] + d2[go]
        if live.size == 0:
            break
    return X


def _certificate(m, u, a, Y, X):
    """g1^2 + g2^2 of grad F_y at X over m.tangent_frame(X), formed as the
    refinement forms it away from the vertices."""
    frame = m.tangent_frame(X)
    gu = u.jet(X, frame)[0]
    if m.is_flat_chart:
        g = gu + a * (X - Y)
        return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
    g = _radial_derivatives(m, Y, X, lambda r: a * r) + gu
    g1, g2 = (m.tangent_inner(X, g, e) for e in frame)
    return g1 * g1 + g2 * g2


def _counting(u, counts, degenerate=None):
    """u with the batch size of each jet recorded in counts; where
    degenerate(p) holds, Hess u is -I, so that Hess F is singular at x = y."""
    def deriv(p, frame):
        if frame is None:
            return u.deriv_fn(p, frame)
        counts.append(len(p))
        g, h = u.deriv_fn(p, frame)
        if degenerate is not None:
            h = np.where(degenerate(p), -np.array([1.0, 0.0, 1.0])[:, None], h)
        return g, h
    return ScalarField(u.grid, u.values, u.value_fn, deriv)


class TestNewtonJet:
    @pytest.mark.parametrize("iters", [_NEWTON_ITERS, 3])
    def test_jets_are_those_of_the_returned_points(self, model, rng, monkeypatch, iters):
        # a random bump field's points leave over two passes; with 3 steps
        # most are still live at the end and take one last jet there
        monkeypatch.setattr(contact, "_NEWTON_ITERS", iters)
        g = _grid(model, r=0.5, n=48)
        counts = []
        u = _counting(random_bump_field(g, rng, hess_bound=0.5), counts)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        X, grad, h = _newton(u, 1.0, Y, Y)
        assert counts[0] == len(Y) and len(set(counts)) > 1 and len(counts) <= iters + 1
        assert iters == _NEWTON_ITERS or len(counts) == iters + 1   # a last pass for the live
        want = u.jet(X, model.tangent_frame(X))
        assert grad.tobytes() == want[0].tobytes() and h.tobytes() == want[1].tobytes()
        assert X.tobytes() == refine_contact_points(model, u, 1.0, Y, Y).tobytes()
        if iters == _NEWTON_ITERS:
            assert np.all(_certificate(model, u, 1.0, Y, X) < _NEWTON_TOL * _NEWTON_TOL)

    def test_degenerate_points_keep_their_vertex_and_its_jet(self, model, rng):
        # where the first coordinate is positive, Hess F = Hess u + I is
        # singular at x = y: those points never step and never certify, and
        # take their jet at the end; the rest certify where they stop
        g = _grid(model, r=0.5, n=48)
        counts = []
        u = _counting(random_bump_field(g, rng, hess_bound=0.5), counts,
                      degenerate=lambda p: p[:, 0] > 0.0)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        stuck = Y[:, 0] > 0.0
        X, grad, h = _newton(u, 1.0, Y, Y)
        assert len(counts) == _NEWTON_ITERS + 1 and counts[-1] == np.count_nonzero(stuck)
        assert X[stuck].tobytes() == Y[stuck].tobytes()
        want = u.jet(X, model.tangent_frame(X))
        assert grad.tobytes() == want[0].tobytes() and h.tobytes() == want[1].tobytes()
        certified = _certificate(model, u, 1.0, Y, X) < _NEWTON_TOL * _NEWTON_TOL
        assert np.array_equal(certified, ~stuck)

    def test_a_batch_that_leaves_at_once_returns_its_own_jet(self, model, rng):
        # started from its own certified points, a refinement certifies every
        # point at the first pass and returns that pass's jet
        g = _grid(model, r=0.5, n=32)
        counts = []
        u = _counting(random_bump_field(g, rng, hess_bound=0.5), counts)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        X0 = _newton(u, 1.0, Y, Y)[0]
        counts.clear()
        X, grad, h = _newton(u, 1.0, Y, X0)
        assert counts == [len(Y)] and X.tobytes() == X0.tobytes()
        want = u.jet(X, model.tangent_frame(X))
        assert grad.tobytes() == want[0].tobytes() and h.tobytes() == want[1].tobytes()


class TestNewtonScale:
    def test_tiny_opening_lands_where_the_unit_opening_does(self, model):
        # (u, a) -> (c u, c a) scales F_y, its gradient and its Hessian by c
        # and leaves the Newton step as it is.  At c = 1e-8 det Hess F is
        # about 4e-16, which an absolute degeneracy test takes for singular,
        # freezing every point at its vertex
        g = _grid(model, r=0.5, n=48)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        X = {}
        for c in (1.0, 1e-8):
            u = quadratic_field(g, model.origin(), c)
            X[c] = refine_contact_points(model, u, c, Y, Y)
            assert np.max(gradient_contact_residual(u, c, X[c], Y)) < 1e-12 * c
        assert np.max(np.abs(X[1.0] - Y)) > 0.05
        assert np.max(np.abs(X[1e-8] - X[1.0])) < 1e-14

    def test_scaled_bump_field_lands_where_the_unit_opening_does(self, model, rng):
        # a bump field is not solved by one step: a certificate of |grad F|
        # below 1e-12 read at c = 1e-8 stops 1e-4 short of the unit
        # opening's points; below 1e-12 c, Newton stops where it does at c = 1
        g = _grid(model, r=0.5, n=48)
        Y = g.flat_points()[_disc_indices(g, 0.25)]
        u = random_bump_field(g, rng, hess_bound=0.5)
        X1 = refine_contact_points(model, u, 1.0, Y, Y)
        for c in (1e-4, 1e-8):
            def deriv(p, frame, c=c):
                d = u.deriv_fn(p, frame)
                return c * d if frame is None else (c * d[0], c * d[1])
            uc = ScalarField(g, None, lambda p, c=c: c * u.value_fn(p), deriv)
            Xc = refine_contact_points(model, uc, c, Y, Y)
            assert np.max(np.abs(Xc - X1)) < 1e-15
            assert np.max(gradient_contact_residual(uc, c, Xc, Y)) < 1e-12 * c
