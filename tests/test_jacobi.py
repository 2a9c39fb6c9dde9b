import math

import numpy as np
import pytest

from abplab.contact import compute_contact_set, refine_contact_points
from abplab.fields import bump_field, quadratic_field, sum_fields
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.jacobi import (JacobiState, _rk4_linear, _velocity, curvature_matrix, dn_functional,
                           integrate_jacobi, verify_comparison)
from conftest import (ALL_MODELS, random_point, random_tangent, solve_jacobi_pair,
                      verify_ode_structure)


class TestCurvatureMatrix:
    def test_flat_zero(self):
        assert np.all(curvature_matrix(euclidean(), 1.7) == 0.0)
        assert np.all(curvature_matrix(gaussian_plane(2.0), 0.5) == 0.0)

    def test_constant_curvature_blocks(self):
        assert np.allclose(curvature_matrix(sphere(1.0), 1.0), np.diag([0.0, 1.0]))
        assert np.allclose(curvature_matrix(hyperbolic(1.0), 1.0), np.diag([0.0, -1.0]))
        assert np.allclose(curvature_matrix(sphere(2.0), 0.3), np.diag([0.0, 0.6]))


class TestIntegrateJacobi:
    def test_identity_flow(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.zeros((2, 2)), np.array([0.4, 0.1]))
        assert np.allclose(st.det(), 1.0, atol=1e-12)
        assert np.allclose(st.J[-1], np.eye(2), atol=1e-12)

    def test_euclid_quadratic_closed_form(self):
        b = 0.8
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), b * np.eye(2), np.array([0.3, -0.2]), 128)
        assert np.max(np.abs(st.det() - (1.0 + b * st.times) ** 2)) < 1e-12

    def test_sphere_cosine_determinant(self):
        m = sphere(1.0)
        o = m.origin()
        s = 0.9
        v = s * m.tangent_frame(o)[0]
        st = integrate_jacobi(m, o, np.zeros((2, 2)), v, 256)
        assert np.max(np.abs(st.det() - np.cos(s * st.times))) < 1e-8

    def test_wronskian_conserved(self, rng):
        m = hyperbolic(1.0)
        p = random_point(m, rng, 0.3)
        H = rng.normal(size=(2, 2))
        H = 0.5 * (H + H.T)
        st = integrate_jacobi(m, p, H, random_tangent(m, p, 0.7, rng), 128)
        # J^T J' - J'^T J is conserved when R is symmetric
        W = np.einsum("tij,tik->tjk", st.J, st.Jdot) - np.einsum("tij,tik->tjk", st.Jdot, st.J)
        assert np.max(np.abs(W - W[0])) < 1e-9

    def test_linear_in_initial_hessian(self, rng):
        m = sphere(1.0)
        o = m.origin()
        v = 0.6 * m.tangent_frame(o)[0]
        H1 = np.diag([0.4, -0.1])
        H2 = np.array([[0.0, 0.3], [0.3, 0.2]])
        a = integrate_jacobi(m, o, H1 + H2, v, 128).J
        b = integrate_jacobi(m, o, H1, v, 128).J
        c = integrate_jacobi(m, o, H2, v, 128).J
        z = integrate_jacobi(m, o, np.zeros((2, 2)), v, 128).J
        assert np.max(np.abs(a - b - c + z)) < 1e-10

    def test_step_halving_fourth_order(self):
        m = sphere(1.0)
        o = m.origin()
        v = 1.1 * m.tangent_frame(o)[1]
        ref = math.cos(1.1)
        errs = [abs(float(np.linalg.det(integrate_jacobi(m, o, np.zeros((2, 2)), v, n).J[-1])) - ref)
                for n in (64, 128)]
        # fourth order gives 2^4 = 16 (15.9 measured); a third-order scheme gives about 8
        assert errs[0] / max(errs[1], 1e-18) >= 14.0

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="64"):
            integrate_jacobi(euclidean(), np.zeros(2), np.zeros((2, 2)), np.array([0.1, 0.0]), 16)

    def test_weight_ratio_gaussian(self):
        m = gaussian_plane(1.0)
        x = np.array([0.2, -0.1])
        v = np.array([0.4, 0.3])
        st = integrate_jacobi(m, x, np.zeros((2, 2)), v)
        g = x[None, :] + st.times[:, None] * v[None, :]
        expect = np.exp(-(0.5 * np.einsum("ij,ij->i", g, g) - 0.5 * x @ x))
        assert np.allclose(st.weight_ratio, expect, atol=1e-14)


class TestDnFunctional:
    def test_identity_states(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.zeros((2, 2)), np.array([0.2, 0.0]))
        assert np.allclose(dn_functional(st, 2.0), 1.0, atol=1e-12)
        assert np.allclose(dn_functional(st, math.inf), 0.0, atol=1e-12)

    def test_euclid_quadratic_dn(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.eye(2), np.array([0.1, 0.1]), 128)
        assert np.max(np.abs(dn_functional(st, 2.0) - (1.0 + st.times))) < 1e-12

    def test_truncation_at_sign_change(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), -2.0 * np.eye(2), np.array([0.1, 0.0]), 128)
        t0 = st.times[np.flatnonzero(st.det() * st.weight_ratio <= 0.0)[0]]
        assert t0 == pytest.approx(0.5, abs=1e-2)
        D = dn_functional(st, 2.0)
        assert np.all(np.isnan(D[st.times >= 0.5 + 1e-2]))


class TestComparison:
    def test_euclidean_equality_branch(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), 0.5 * np.eye(2), np.array([0.3, 0.1]), 256)
        rep = verify_comparison(st, m, 2.0, 0.0, r=0.5)
        assert rep.passed

    def test_uniform_form_failure_is_in_the_stored_sides(self):
        # the comparison itself holds here but the radius-uniform form at
        # r = 0.1 does not: the verdict and the stored sides both say so
        m = hyperbolic(1.0)
        o = m.origin()
        st = integrate_jacobi(m, o, np.zeros((2, 2)), m.tangent_frame(o)[0], 256)
        rep = verify_comparison(st, m, 2.0, 1.0, r=0.1)
        assert not rep.passed
        assert rep.lhs > rep.rhs * (1 + rep.rel_tol) + rep.abs_tol
        assert rep.diagnostics["comparison_gap"] <= rep.abs_tol < rep.lhs
        assert rep.lhs == rep.diagnostics["uniform_form_gap"]

    def test_sphere_numeric(self):
        m = sphere(1.0)
        o = m.origin()
        st = integrate_jacobi(m, o, np.zeros((2, 2)), 0.8 * m.tangent_frame(o)[0], 256)
        assert verify_comparison(st, m, 2.0, 0.0, r=0.4).passed

    def test_gaussian_inf_equality(self):
        m = gaussian_plane(1.0)
        x = np.array([0.3, -0.2])
        v = np.array([0.5, 0.4])
        st = integrate_jacobi(m, x, np.zeros((2, 2)), v, 256)
        D = dn_functional(st, math.inf)
        expect = 0.5 * (x @ x) - 0.5 * np.einsum("ij,ij->i", st.gamma, st.gamma)
        assert np.max(np.abs(D - expect)) < 1e-12
        assert verify_comparison(st, m, math.inf, 0.0, r=0.5).passed

    @pytest.mark.parametrize("m,N,K", [
        (euclidean(), 2.0, 0.0),
        (sphere(1.0), 2.0, 0.0),
        (hyperbolic(1.0), 2.0, 1.0),
        (gaussian_plane(1.0), 4.0, 0.0),
        (gaussian_plane(1.0), math.inf, 0.0),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian-N4", "gaussian-inf"])
    def test_seeded_geodesics(self, m, N, K, rng):
        r = 0.4
        for _ in range(25):
            p = random_point(m, rng, 0.3)
            v = random_tangent(m, p, rng.uniform(0.1, 2.0 * r), rng)
            H = 0.8 * rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            st = integrate_jacobi(m, p, H, v, 256)
            rep = verify_comparison(st, m, N, K, r=r)
            assert rep.passed, rep.diagnostics


FOUR_R = pytest.mark.parametrize(
    "R", [np.zeros((2, 2)), 0.49 * np.eye(2), -np.eye(2), np.diag([0.3, -0.5])],
    ids=["flat", "positive", "negative", "mixed"])


class TestOdeStructure:
    def test_flat_slope_matrix(self):
        J10, J01 = solve_jacobi_pair(np.zeros((2, 2)), 256)
        times = np.linspace(0, 1, 257)
        keep = times >= 0.2
        S = np.linalg.solve(J01[keep], J10[keep])
        assert np.max(np.abs(S - (1.0 / times[keep])[:, None, None] * np.eye(2))) < 1e-10

    def test_trig_and_hyperbolic_closed_forms(self):
        s = 0.7
        J10, J01 = solve_jacobi_pair(s * s * np.eye(2), 256)
        t = np.linspace(0, 1, 257)[128]
        S = np.linalg.solve(J01[128], J10[128])
        assert np.allclose(S, s / math.tan(s * t) * np.eye(2), atol=1e-9)
        J10, J01 = solve_jacobi_pair(-np.eye(2), 256)
        S = np.linalg.solve(J01[128], J10[128])
        assert np.allclose(S, 1.0 / math.tanh(t) * np.eye(2), atol=1e-9)

    @FOUR_R
    def test_structure_and_equivalence(self, R, rng):
        rep = verify_ode_structure(R, rng=rng, n_random=24)
        assert rep.passed, rep.diagnostics

    def test_conjugate_point_reported(self):
        with pytest.raises(ValueError, match="singular"):
            verify_ode_structure((math.pi ** 2) * np.eye(2))

    @FOUR_R
    def test_propagator_matches_stepwise_rk4(self, R, rng):
        # the doubling fills blocks of 1, 2, 4, ... samples: n = 255 ends on a
        # full block, the others on a partial one (of one sample for 64, 256, 512)
        Z0 = np.hstack([np.eye(4), rng.normal(size=(4, 3))])
        for n in (64, 100, 255, 256, 257, 512):
            Z = _rk4_linear(R, Z0, n)
            assert Z.shape == (n + 1, 4, 7)
            assert np.array_equal(Z[0], Z0)
            err = float(np.max(np.abs(Z - _stepwise_rk4(R, Z0, n))))
            assert err < 1e-12, (n, err)

    @FOUR_R
    def test_jacobi_pair_matches_stepwise_rk4(self, R):
        J10, J01 = solve_jacobi_pair(R, 512)
        ref = _stepwise_rk4(R, np.eye(4), 512)
        assert np.max(np.abs(J10 - ref[:, :2, :2])) < 1e-12
        assert np.max(np.abs(J01 - ref[:, :2, 2:])) < 1e-12


def _stepwise_rk4(R, Z0, n):
    """The classical four-stage RK4 step for J'' = -R J, taken n times."""
    h = 1.0 / n
    j, jd = Z0[:2], Z0[2:]
    ref = [Z0]
    for _ in range(n):
        k1j, k1d = jd, -R @ j
        k2j, k2d = jd + 0.5 * h * k1d, -R @ (j + 0.5 * h * k1j)
        k3j, k3d = jd + 0.5 * h * k2d, -R @ (j + 0.5 * h * k2j)
        k4j, k4d = jd + h * k3d, -R @ (j + h * k3j)
        j = j + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
        jd = jd + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        ref.append(np.vstack([j, jd]))
    return np.array(ref)


class TestVelocity:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    @pytest.mark.parametrize("L", [0.0, 0.4, 0.9])
    def test_matches_centred_difference_of_exp(self, m, L, rng):
        x = random_point(m, rng, 0.5)
        v = random_tangent(m, x, L, rng)
        times = np.linspace(0.0, 1.0, 9)
        state = JacobiState(m, x, v, times, None, None, None, None)
        idx = np.arange(len(times))
        h = 1e-5
        fd = (m.exp(x, (times + h)[:, None] * v) - m.exp(x, (times - h)[:, None] * v)) / (2 * h)
        vel = _velocity(state, idx)
        assert vel.shape == fd.shape
        assert float(np.max(np.abs(vel - fd))) < 1e-8
        if L == 0.0:
            assert not np.any(vel)


class TestContactPositivity:
    def test_det_nonnegative_at_contact_pairs(self):
        # contact condition Hess(u/a) + Hess(rho_y^2/2) >= 0 forces the flow
        # determinant to stay nonnegative up to time 1
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 0.3, 32, 32)
        u = sum_fields([quadratic_field(g, m.origin(), 0.4),
                        bump_field(g, g.points[10, 3], -0.2, 5.0)])
        a = 1.0
        E = np.flatnonzero(g.mask_within(m.origin(), 0.1).ravel())[::5]
        cs = compute_contact_set(u, a, E)
        Y = g.flat_points()[cs.vertex_indices]
        X = refine_contact_points(m, u, a, Y, g.flat_points()[cs.contact_of])
        for x, y in zip(X[:10], Y[:10]):
            v = m.log(x, y)
            L = float(m.tangent_norm(x, v))
            e1 = v / L if L > 0 else m.tangent_frame(x)[0]
            e2 = m.rotate90(x, e1)
            h11, h12, h22 = u.jet(x, (e1, e2))[1] / a
            H = np.array([[h11, h12], [h12, h22]])
            st = integrate_jacobi(m, x, H, v, 128)
            assert float(np.min(st.det())) > -1e-9
            # the flow lands on the vertex at time 1
            assert float(np.max(np.abs(st.gamma[-1] - y))) < 1e-9
