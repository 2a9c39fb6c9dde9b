import inspect
import json
import math

import numpy as np
import pytest

from abplab import abp, contact
from abplab.abp import AbpInstance, abp_check, d_bound, disc_vertex_indices, transport_rhs
from abplab.cli import main
from abplab.constants import CurvatureParams
from abplab.contact import compute_contact_set
from abplab.fields import (ScalarField, _laplacian_nu, bump_field, constant_field,
                           quadratic_field, random_bump_field)
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.jacobi import integrate_jacobi
from abplab.report import seeded_rng
from conftest import ALL_MODELS, fd_gram


class TestDBound:
    def test_flat_two_dimensional(self):
        assert d_bound(0.0, 2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert d_bound(0.0, 2.0, 1.0, 2.0, 3.0) == pytest.approx(1.0 + 3.0 / 4.0, abs=1e-15)

    def test_infinite_dimension(self):
        assert d_bound(0.0, math.inf, 1.0, 1.0, 2.5) == 2.5
        assert d_bound(0.5, math.inf, 2.0, 1.0, 0.0) == pytest.approx(4.0, abs=1e-15)

    def test_curved_value(self):
        # S(w) H(w) = cosh(w) at w = sqrt(2)
        got = d_bound(1.0, 2.0, 1.0, 1.0, 0.0)
        assert got == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-12)

    def test_nonpositive_opening_rejected(self):
        with pytest.raises(ValueError):
            d_bound(0.0, 2.0, 1.0, 0.0, 1.0)


def _instance(m, params, r, n, field_fn, a):
    grid = build_polar_grid(m, m.origin(), r, n, n)
    n_rings = grid.radial_rings(0.45 * r)
    E = disc_vertex_indices(grid, n_rings)
    u = field_fn(grid)
    return AbpInstance(m, params, grid, E, u, a), n_rings


class TestEqualityCases:
    def test_constant_field_exact(self):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: constant_field(g, 0.7), 1.0)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.diagnostics["rhs_nodes"], rel=1e-14)
        assert rep.diagnostics["equality_gap"] < 1e-12

    @pytest.mark.parametrize("b,a", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_quadratic_transport_equality(self, b, a):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: quadratic_field(g, m.origin(), b), a)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert rep.passed
        assert rep.diagnostics["equality_gap"] <= 1e-13
        assert abs(rep.diagnostics["min_pointwise_density"] - 1.0) <= 1e-13

    @pytest.mark.parametrize("m,params,r", [
        (euclidean(), CurvatureParams(0, 2, 1.0), 1.0),
        (hyperbolic(1.0), CurvatureParams(1, 2, 0.5), 0.5),
    ], ids=["euclidean", "hyperbolic"])
    def test_transport_side_is_scale_free(self, m, params, r):
        # (u, a) -> (c u, c a) keeps the contact map and the integrand, a
        # function of lap/a: at c = 1e-8 the transport side reads as at c = 1.
        # A degeneracy test blind to the scale froze every point at its
        # vertex there, for rhs_transport 2.640 against lhs 0.660 on the plane
        rhs = []
        for c in (1.0, 1e-8):
            inst, nr = _instance(m, params, r, 48,
                                 lambda g: quadratic_field(g, m.origin(), c), c)
            rhs.append(transport_rhs(inst, nr)["rhs_transport"])
        assert rhs[1] == pytest.approx(rhs[0], rel=1e-12)

    def test_scaling_consistency(self):
        # (u, a) -> (c u, c a) leaves contact structure and bound untouched
        m = euclidean()
        c = 3.7
        inst1, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                              lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
        inst2, _ = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                             lambda g: quadratic_field(g, m.origin(), c), c)
        from abplab.contact import compute_contact_set
        cs1 = compute_contact_set(inst1.u, inst1.a, inst1.E)
        cs2 = compute_contact_set(inst2.u, inst2.a, inst2.E)
        assert np.array_equal(cs1.contact_of, cs2.contact_of)
        r1 = abp_check(inst1, set_stride=1, n_rings=nr)
        r2 = abp_check(inst2, set_stride=1, n_rings=nr)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)


class TestInequality:
    @pytest.mark.parametrize("m,params,r", [
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.3), 0.3),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 0.5), 0.5),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.8), 0.8),
        (gaussian_plane(1.0), CurvatureParams(0.0, math.inf, 0.8), 0.8),
    ], ids=["sphere", "hyperbolic", "gaussian-N4", "gaussian-inf"])
    def test_random_fields_hold(self, m, params, r):
        rng = seeded_rng(7, f"abp-{m.kind}-{params.N}")
        a = 1.0
        for trial in range(10):
            inst, nr = _instance(m, params, r, 48,
                                 lambda g: random_bump_field(g, rng, hess_bound=0.5 * a), a)
            rep = abp_check(inst, set_stride=1, n_rings=nr)
            assert rep.passed, (trial, rep.diagnostics)
            # D^N / det J(1) >= 1 pointwise by the Jacobi comparison, and the
            # area element is exact: only rounding may show below 1
            assert rep.diagnostics["min_pointwise_density"] >= 1.0 - 1e-12

    def test_sphere_bump_gap_positive_and_stable(self):
        m = sphere(1.0)
        params = CurvatureParams(0.0, 2.0, 0.3)
        gaps = []
        for n in (48, 96):
            inst, nr = _instance(m, params, 0.3, n,
                                 lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
            rep = abp_check(inst, set_stride=1, n_rings=nr)
            assert rep.passed
            gaps.append(rep.diagnostics["rhs_transport"] - rep.lhs)
        # curvature makes the bound strictly generous here; the gap is a
        # genuine positive quantity, stable under refinement
        assert gaps[1] > 0
        assert abs(gaps[0] - gaps[1]) < 0.2 * abs(gaps[1])


class TestHypothesisScreens:
    def test_ricci_premise_violation(self):
        m = hyperbolic(1.0)
        inst, nr = _instance(m, CurvatureParams(0.0, 2.0, 0.5), 0.5, 48,
                             lambda g: constant_field(g, 0.0), 1.0)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on the ball"

    @pytest.mark.parametrize("set_stride", [0, 1])
    def test_overflowing_refinement_is_a_numerical_failure(self, set_stride):
        # at b = 1e300 Newton's h11 h22 overflows and every refined point is
        # NaN: the verdict fails by name on either basis
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                             lambda g: quadratic_field(g, m.origin(), 1e300), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = abp_check(inst, set_stride=set_stride, n_rings=nr)
        assert not rep.passed
        n = len(inst.E)
        assert rep.diagnostics["numerical_failure"] == (
            f"{n} of {n} refined contact points are not finite")
        assert "rhs_transport" not in rep.diagnostics

    def test_nan_reach_fails_the_open_ball_premise(self, monkeypatch):
        # finite contact points whose chord from the centre overflows to
        # inf - inf on the hyperboloid: their reach is NaN, not inside the ball
        m = hyperbolic(1.0)
        inst, nr = _instance(m, CurvatureParams(1.0, 2.0, 0.5), 0.5, 48,
                             lambda g: constant_field(g, 0.0), 1.0)
        far = np.array([1e200, 0.0, 1e200])
        monkeypatch.setattr(abp, "transport_rhs", lambda inst, n_rings: {
            "rhs_transport": 1.0, "min_pointwise_density": 1.0,
            "contact_points": np.tile(far, (len(inst.E), 1))})
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(m.distance(inst.grid.center, far))
            rep = abp_check(inst, set_stride=0, n_rings=nr)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "contact set contained in the open ball"

    def test_ricci_premise_on_off_centre_ball(self):
        # B_0.5((1.3, 0)) reaches |x| = 1.8, where the gaussian plane's
        # Ric_{N,nu} at N = 4 falls below 0; the origin ball of radius 0.5 has no gap
        m = gaussian_plane(1.0)
        c = np.array([1.3, 0.0])
        grid = build_polar_grid(m, c, 0.5, 48, 48)
        E = disc_vertex_indices(grid, grid.radial_rings(0.45 * 0.5))
        inst = AbpInstance(m, CurvatureParams(0.0, 4.0, 1.0), grid, E,
                           quadratic_field(grid, c, 1.0), 1.0)
        rep = abp_check(inst)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on the ball"
        assert rep.diagnostics["ricci_gap"] == pytest.approx(0.62, rel=1e-12)

    def test_boundary_touching_contact(self):
        m = euclidean()
        grid = build_polar_grid(m, m.origin(), 1.0, 48, 48)

        def val(p):
            return 3.0 * np.asarray(p, float)[..., 0]

        def deriv(p, frame):
            grad = np.zeros(np.asarray(p).shape)
            grad[..., 0] = 3.0
            return grad, np.zeros(((3,) if frame is not None else ()) + grad.shape[:-1])

        u = ScalarField(grid, val(grid.points), val, deriv)
        E = disc_vertex_indices(grid, grid.radial_rings(0.3))
        inst = AbpInstance(m, CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)
        rep = abp_check(inst, set_stride=1)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "contact set contained in the open ball"

    def test_stride_without_transport_rejected(self):
        m = euclidean()
        inst, _ = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                            lambda g: constant_field(g, 0.0), 1.0)
        with pytest.raises(ValueError, match="transport"):
            abp_check(inst, set_stride=0, n_rings=None)

    def test_stride_above_one_rejected(self):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                             lambda g: constant_field(g, 0.0), 1.0)
        with pytest.raises(ValueError, match="set_stride"):
            abp_check(inst, set_stride=2, n_rings=nr)


    @pytest.mark.parametrize("set_stride", [0, 1])
    def test_n_rings_other_than_e_rejected(self, set_stride):
        # the transport side integrates over the disc n_rings names, so a
        # smaller disc than E would fail a true inequality
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
        with pytest.raises(ValueError, match=rf"E \({nr * 64} vertices\) .* first 10 rings "
                                             r"\(640 vertices\)"):
            abp_check(inst, set_stride=set_stride, n_rings=10)
        with pytest.raises(ValueError, match="not the disc"):
            transport_rhs(inst, nr + 1)

class TestInstanceSources:
    """model and grid must be u's; equal models built apart are one model."""

    def _parts(self, n=32):
        m = euclidean()
        grid = build_polar_grid(m, m.origin(), 1.0, n, n)
        return grid, disc_vertex_indices(grid, 5), quadratic_field(grid, m.origin(), 1.0)

    def test_model_differing_by_value_refused(self):
        grid, E, u = self._parts()
        with pytest.raises(ValueError, match="model is the hyperbolic model .*, but the grid "
                                             "is on the euclidean model"):
            AbpInstance(hyperbolic(1.0), CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)

    def test_grid_without_u_nodes_refused(self):
        grid, E, _ = self._parts(24)
        _, _, u = self._parts(32)
        with pytest.raises(ValueError, match="the grid is 24x24 .*, u's is 32x32"):
            AbpInstance(euclidean(), CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)

    def test_equal_model_instances_accepted(self):
        # a separate euclidean() and a twin grid are the same model and nodes
        grid, E, u = self._parts()
        twin, _, _ = self._parts()
        assert grid.model is not euclidean() and twin is not grid
        rep = abp_check(AbpInstance(euclidean(), CurvatureParams(0, 2, 1.0), twin, E, u, 1.0))
        assert rep.passed


class TestTransportInternals:
    def test_identity_reproduces_weights(self):
        m = hyperbolic(1.0)
        inst, nr = _instance(m, CurvatureParams(1.0, 2.0, 0.6), 0.6, 48,
                             lambda g: constant_field(g, 1.0), 1.0)
        tr = transport_rhs(inst, nr)
        K, N = 1.0, 2.0
        w = math.cosh(2.0 * math.sqrt(K / N) * 0.6)  # S(rw)H(rw) with lap = 0
        lhs = float(np.sum(inst.grid.flat_weights()[inst.E]))
        assert tr["rhs_transport"] == pytest.approx(w**N * lhs, rel=1e-12)
        # refined points sit at the arccosh conditioning floor (~sqrt(eps))
        Y = inst.grid.points[:nr].reshape(-1, inst.grid.points.shape[-1])
        assert np.max(m.distance(Y, tr["contact_points"])) < 1e-7

    @pytest.mark.parametrize("m,params,r", [
        (euclidean(), CurvatureParams(0.0, 2.0, 1.0), 1.0),
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.3), 0.3),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 0.5), 0.5),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.8), 0.8),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_reports_on_a_reused_grid_match_a_fresh_grid(self, m, params, r):
        # a verdict leaves nothing behind on its grid that a second run reads
        def field_fn(g):
            return random_bump_field(g, seeded_rng(3, f"reuse-{m.kind}"), hess_bound=0.5)

        inst, nr = _instance(m, params, r, 48, field_fn, 1.0)
        fresh, _ = _instance(m, params, r, 48, field_fn, 1.0)
        for set_stride in (0, 1):
            want = abp_check(fresh, set_stride=set_stride, n_rings=nr).to_dict()
            for _ in range(2):
                assert abp_check(inst, set_stride=set_stride, n_rings=nr).to_dict() == want

    def test_weighted_transport_applies_the_weight_ratio(self):
        # V != 0 on the gaussian plane: each vertex's term must carry
        # exp(-(V(x) - V(y))), in the order (D^N / det J(1)) * wr * weight,
        # Delta u read from the rows of the jet, h11 + h22
        m = gaussian_plane(1.0)
        K, N, a = 0.0, 4.0, 1.0
        inst, nr = _instance(m, CurvatureParams(K, N, 0.8), 0.8, 48,
                             lambda g: random_bump_field(g, seeded_rng(5, "weighted"),
                                                         hess_bound=0.5 * a), a)
        tr = transport_rhs(inst, nr)
        g = inst.grid
        X = tr["contact_points"]
        Y = g.points[:nr].reshape(X.shape)
        frame = m.tangent_frame(X)
        grad, h = inst.u.jet(X, frame)
        det = abp._jacobian_det(m, X, grad, h, a, frame)
        wr = np.exp(-(m.weight_V(X) - m.weight_V(Y)))
        Gv = abp._integrand(K, N, g.radius, a, _laplacian_nu(m, X, grad, h[0] + h[2]))
        W = g.weights[:nr].reshape(-1)
        assert np.max(np.abs(wr - 1.0)) > 1e-3
        assert tr["rhs_transport"] == float(np.sum(Gv / det * wr * W))
        assert tr["min_pointwise_density"] == float(np.min(Gv / det * wr))
        assert tr["rhs_transport"] != float(np.sum(Gv / det * W))

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_blocked_transport_equals_one_block(self, m, monkeypatch):
        # the quadrature is pointwise and summed once over the disc, so the
        # blocks move no bit: one block, 11 of 2 rings, and 4-ring blocks
        # with a 2-ring last one (22 rings of 48)
        r = 0.5
        params = CurvatureParams(1.0 if m.sectional() < 0 else 0.0, 4.0, r)
        inst, nr = _instance(m, params, r, 48,
                             lambda g: random_bump_field(g, seeded_rng(9, f"blocks-{m.kind}"),
                                                         hess_bound=0.5), 1.0)
        runs = []
        assert nr == 22
        for block in (10**6, 96, 151):
            monkeypatch.setattr(abp, "_BLOCK_POINTS", block)
            tr = transport_rhs(inst, nr)
            runs.append((tr["contact_points"].tobytes(), tr["rhs_transport"],
                         tr["min_pointwise_density"],
                         abp_check(inst, set_stride=0, n_rings=nr).to_dict()))
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestJacobianDet:
    """det J(1) of the contact map y(x) = exp_x(grad u(x)/a) in closed form,
    against an oracle that knows nothing of Jacobi fields."""

    @staticmethod
    def _fd_det(m, u, a, x, eps=1e-5):
        # central differences of y along exp_x(+-eps e_i); |det| from the Gram
        # of the two columns, both taken in the ambient (Minkowski) metric
        def y_of(p):
            return m.exp(p, u.grad(p) / a)

        cols = [(y_of(m.exp(x, eps * e)) - y_of(m.exp(x, -eps * e))) / (2.0 * eps)
                for e in m.tangent_frame(x)]
        g11, g12, g22 = (m.tangent_inner(x, v, w) for v, w in
                         ((cols[0], cols[0]), (cols[0], cols[1]), (cols[1], cols[1])))
        return np.sqrt(g11 * g22 - g12 * g12)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_closed_form_matches_the_difference_jacobian(self, m):
        # at scattered points of the unit ball: a random field (a generic
        # Hessian), an off-centre quadratic whose gradient reaches
        # L = |grad u|/a ~ 1, and one bump at its centre, where grad u = 0
        a = 1.0
        grid = build_polar_grid(m, m.origin(), 1.0, 16, 16)
        u = random_bump_field(grid, seeded_rng(13, f"jacobian-{m.kind}"), hess_bound=0.8 * a)
        c = grid.points[3, 5]
        quad = quadratic_field(grid, grid.points[6, 2], 0.8)
        bump = bump_field(grid, c, -0.2, 3.0)
        P = grid.points[::2, ::3].reshape(-1, grid.points.shape[-1])
        assert not np.any(bump.grad(c))
        for field, x in ((u, P), (quad, P), (bump, np.concatenate([c[None], P[:8]]))):
            frame = m.tangent_frame(x)
            grad, h = field.jet(x, frame)
            got = abp._jacobian_det(m, x, grad, h, a, frame)
            want = self._fd_det(m, field, a, x)
            assert np.all(got > 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-8)
            if field is quad and not m.is_flat_chart:
                # the curved terms carry weight: the flat form det(I + H/a) is off
                flat = (1.0 + h[0] / a) * (1.0 + h[2] / a) - (h[1] / a) ** 2
                assert np.max(np.abs(flat / want - 1.0)) > 0.05

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_equals_the_jacobi_field_at_time_one(self, m):
        # on the transport's own contacts (abp-check --u random --seed 1 at
        # 64^2, every seventh): the closed form is det J(1) of integrate_jacobi
        # with J'(0) = Hess u/a in the frame (v, v-perp), v = grad u/a
        a = 1.0
        inst, nr = _instance(m, CurvatureParams(0.0, 2.0, 1.0), 1.0, 64,
                             lambda g: random_bump_field(g, seeded_rng(1, "abp-cli"),
                                                         hess_bound=0.5 * a), a)
        X = transport_rhs(inst, nr)["contact_points"][::7]
        frame = m.tangent_frame(X)
        got = abp._jacobian_det(m, X, *inst.u.jet(X, frame), a, frame)
        want = []
        for x in X:
            v = inst.u.grad(x) / a
            L = float(m.tangent_norm(x, v))
            e1 = v / L if L > 0.0 else m.tangent_frame(x)[0]
            h11, h12, h22 = inst.u.jet(x, (e1, m.rotate90(x, e1)))[1] / a
            H = np.array([[h11, h12], [h12, h22]])
            want.append(integrate_jacobi(m, x, H, v, 64).det()[-1])
        assert len(X) > 50
        np.testing.assert_allclose(got, want, rtol=8.0 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("m,params,r", [
        (euclidean(), CurvatureParams(0.0, 2.0, 1.0), 1.0),
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.3), 0.3),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 0.5), 0.5),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.8), 0.8),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_fd_area_element_converges_to_it_at_second_order(self, m, params, r):
        # the same refined points integrated with the FD Gram of image and
        # source instead: the difference is the stencil's truncation, so it
        # falls like h^2 over one disc of radius 3r/8 at 48^2, 96^2, 192^2
        errs = []
        for n in (48, 96, 192):
            grid = build_polar_grid(m, m.origin(), r, n, n)
            nr = 3 * n // 8
            u = random_bump_field(grid, seeded_rng(11, f"rate-{m.kind}"), hess_bound=0.5)
            inst = AbpInstance(m, params, grid, disc_vertex_indices(grid, nr), u, 1.0)
            tr = transport_rhs(inst, nr)
            src = grid.points[:nr]
            T = tr["contact_points"].reshape(src.shape)
            ratio = np.sqrt(fd_gram(m, T, grid.rho[:nr], grid.dtheta)
                            / fd_gram(m, src, grid.rho[:nr], grid.dtheta))
            wr = np.exp(-(m.weight_V(T) - m.weight_V(src)))
            Gv = abp._integrand(params.K, params.N, r, 1.0, u.laplacian_nu(T))
            errs.append(abs(tr["rhs_transport"] - float(np.sum(Gv * grid.weights[:nr]
                                                               * ratio * wr))))
        assert errs[0] / errs[1] > 2.6 and errs[1] / errs[2] > 3.2, errs


class TestFolds:
    def test_planted_saddle_fails_by_name(self):
        # u = -(3a/2) x1^2 + x2^2: Hess F_y = diag(-2a, 2 + a) everywhere, so
        # Newton lands on the saddle x = (-y1/2, a y2/(2 + a)) of every F_y,
        # inside the ball, where det J(1) = det(I + H/a) = -2 (1 + 2/a) < 0
        m, a = euclidean(), 1.0
        grid = build_polar_grid(m, m.origin(), 1.0, 48, 48)

        def val(p):
            p = np.asarray(p, float)
            return -1.5 * a * p[..., 0] ** 2 + p[..., 1] ** 2

        def deriv(p, frame):
            p = np.asarray(p, float)
            grad = np.stack([-3.0 * a * p[..., 0], 2.0 * p[..., 1]], -1)
            if frame is None:
                return grad, np.full(p.shape[:-1], 2.0 - 3.0 * a)
            h = np.empty((3,) + p.shape[:-1])
            h[0], h[1], h[2] = -3.0 * a, 0.0, 2.0
            return grad, h

        u = ScalarField(grid, val(grid.points), val, deriv)
        nr = grid.radial_rings(0.45)
        E = disc_vertex_indices(grid, nr)
        rep = abp_check(AbpInstance(m, CurvatureParams(0, 2, 1.0), grid, E, u, a),
                        set_stride=0, n_rings=nr)
        assert not rep.passed
        d = rep.diagnostics
        n = len(E)
        assert d["fold_points"] == n
        assert d["least_jacobian_det"] == pytest.approx(-2.0 * (1.0 + 2.0 / a), rel=1e-14)
        assert d["numerical_failure"].startswith(f"{n} of {n} contact points are folds")
        assert "rhs_transport" not in d


@pytest.mark.parametrize("shape", [(17, 17), (33, 20), (64, 64)])
def test_disc_vertex_indices_own_their_data(shape):
    # the disc's indices are the first rings of the flat node order; a view
    # into a full-grid arange kept every node's index alive
    grid = build_polar_grid(euclidean(), np.zeros(2), 1.0, *shape)
    for n_rings in (0, 1, 5, grid.n_r, grid.n_r + 3):
        E = disc_vertex_indices(grid, n_rings)
        want = np.arange(grid.n_r * grid.n_theta).reshape(grid.shape)[:n_rings].reshape(-1)
        assert E.dtype == want.dtype and np.array_equal(E, want)
        assert E.base is None and E.flags.owndata


# base flags of the covariance runs: the sphere and the hyperboloid at unit
# curvature, the gaussian plane at N = inf, each ball well inside its model
_COVARIANT_BASES = {"euclidean": dict(r=1.0), "sphere": dict(k=1.0, r=0.3),
                    "hyperbolic": dict(k=1.0, K=1.0, r=0.5),
                    "gaussian": dict(lam=1.0, N=math.inf, r=0.8)}


def _scaled_abp_report(tmp_path, model, u, c):
    """abp-check's report for g -> c^2 g: k, K, lam, a and b over c^2, r times c."""
    flags = {"model": model, "u": u, "resolution": "48", "a": repr(1.0 / c**2),
             "b": repr(1.0 / c**2)}
    for key, v in _COVARIANT_BASES[model].items():
        flags["lambda" if key == "lam" else key] = repr(v * c if key == "r" else
                                                        v if key == "N" else v / c**2)
    out = tmp_path / f"{model}-{u}-{c!r}"
    main(["abp-check"] + [a for kv in flags.items() for a in (f"--{kv[0]}", kv[1])]
         + ["--out", str(out)])
    return json.loads((out / "abp_check_report.json").read_text())["reports"][0]


@pytest.mark.parametrize("u", ["const", "quadratic"])
@pytest.mark.parametrize("model", sorted(_COVARIANT_BASES))
def test_scale_covariance(tmp_path, capsys, model, u):
    # under g -> c^2 g the measures scale by c^2 and the verdict stays: lhs,
    # rhs, rhs_transport and quad_tol over c^2 within 16 eps of c = 1's, for
    # exact (powers of 2) and rounded (1e+-6) scalings
    ref = _scaled_abp_report(tmp_path, model, u, 1.0)
    keys = ("lhs", "rhs", "rhs_transport", "quad_tol")
    want = [ref.get(k, ref["diagnostics"].get(k)) for k in keys]
    for c in (2.0**10, 2.0**-10, 2.0**20, 2.0**-20, 1e6, 1e-6):
        rep = _scaled_abp_report(tmp_path, model, u, c)
        assert rep["pass"] == ref["pass"] and rep["pass"], c
        got = [rep.get(k, rep["diagnostics"].get(k)) / c**2 for k in keys]
        np.testing.assert_allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0.0,
                                   err_msg=f"c = {c!r}")
    capsys.readouterr()


class TestBenchmarkHooks:
    """What perfbench binds in the library: scan.py's _capture_scans rebinds
    abp's compute_contact_set to keep each verdict's contact set, and
    tracing.py's _count_scan binds its arguments by name.  A verdict that
    bypassed the attribute would leave every `scan` check without a
    contact set."""

    @staticmethod
    def _random_instance(m, floor=True):
        r = 0.5
        params = CurvatureParams(1.0 if m.sectional() < 0 else 0.0, 4.0, r)

        def field(g):
            u = random_bump_field(g, seeded_rng(3, f"hooks-{m.kind}"), hess_bound=0.5)
            return u if floor else ScalarField(g, None, u.value_fn, u.deriv_fn)

        return _instance(m, params, r, 40, field, 1.0)

    def test_the_verdict_scans_once_through_the_module_attribute(self, monkeypatch):
        inst, nr = self._random_instance(sphere(1.0))
        calls = []
        original = abp.compute_contact_set

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(abp, "compute_contact_set", recording)
        abp_check(inst, set_stride=1, n_rings=nr)
        assert len(calls) == 1
        (u, a, E), kwargs = calls[0]
        assert u is inst.u and a == inst.a and E is inst.E and kwargs == {}

    def test_scan_parameter_names(self):
        names = list(inspect.signature(compute_contact_set).parameters)
        assert names == ["u", "a", "E", "Omega", "chunk"]

    @pytest.mark.parametrize("floor", [True, False], ids=["certified", "scanned"])
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_newton_runs_once_per_verdict(self, m, floor, monkeypatch):
        # with a floor the contact set refines the vertices and hands the
        # points on; without one the transport refines them itself
        inst, nr = self._random_instance(m, floor)
        refined = []
        original = contact._newton

        def counting(u, a, Y, X0):
            refined.append(len(Y))
            return original(u, a, Y, X0)

        monkeypatch.setattr(contact, "_newton", counting)
        monkeypatch.setattr(abp, "_newton", counting)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert "rhs_transport" in rep.diagnostics
        assert refined == [len(inst.E)]
