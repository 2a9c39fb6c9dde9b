import math

import numpy as np
import pytest
from scipy.integrate import quad

from abplab.geometry import (ModelSpace, build_polar_grid, euclidean,
                             gaussian_plane, hyperbolic, sphere)
from conftest import random_point, random_tangent


class TestDistance:
    def test_euclidean_pythagoras(self):
        assert euclidean().distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_sphere_quarter_circle(self):
        m = sphere(1.0)
        pole = np.array([0.0, 0.0, 1.0])
        equator = np.array([1.0, 0.0, 0.0])
        assert abs(m.distance(pole, equator) - math.pi / 2) < 1e-15

    def test_hyperbolic_unit_step(self):
        # oracle: the Minkowski product of the two points is cosh(1)
        m = hyperbolic(1.0)
        p = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        q = np.array([0.0, 0.0, 1.0])
        mink = p[0] * q[0] + p[1] * q[1] - p[2] * q[2]
        assert abs(-mink - math.cosh(1.0)) < 1e-15
        assert abs(m.distance(p, q) - 1.0) < 1e-12

    def test_symmetry_and_identity(self, model, rng):
        p = random_point(model, rng, 0.5)
        q = random_point(model, rng, 0.5)
        assert model.distance(p, q) == pytest.approx(model.distance(q, p), abs=1e-14)
        assert model.distance(p, p) < 1e-9

    def test_antipodal_rejected(self):
        m = sphere(1.0)
        with pytest.raises(ValueError, match="antipodal"):
            m.distance(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))

    def test_triangle_inequality(self, model, rng):
        for _ in range(200):
            p, q, r = (random_point(model, rng, 0.7) for _ in range(3))
            assert model.distance(p, r) <= model.distance(p, q) + model.distance(q, r) + 1e-12


class TestExpLog:
    def test_zero_vector_fixed_point(self, model):
        o = model.origin()
        z = np.zeros(model.embedding_dim)
        assert np.allclose(model.exp(o, z), o, atol=1e-15)

    def test_euclidean_translation(self):
        m = euclidean()
        assert np.allclose(m.exp([0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])
        assert np.allclose(m.log([1.0, 1.0], [4.0, -2.0]), [3.0, -3.0])

    def test_sphere_pole_to_equator(self):
        # oracle: the great-circle formula cos|v| p + sin|v| v_hat
        m = sphere(1.0)
        pole = np.array([0.0, 0.0, 1.0])
        v = (math.pi / 2) * np.array([1.0, 0.0, 0.0])
        expect = math.cos(math.pi / 2) * pole + math.sin(math.pi / 2) * np.array([1.0, 0.0, 0.0])
        got = m.exp(pole, v)
        assert np.allclose(got, expect, atol=1e-15)
        assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-15)
        back = m.log(pole, got)
        assert np.allclose(back, v, atol=1e-12)

    def test_log_at_base_is_zero(self, model):
        o = model.origin()
        assert np.linalg.norm(model.log(o, o)) < 1e-12

    def test_round_trip_thousand(self, model, rng):
        o = model.origin()
        worst = 0.0
        cap = min(2.0, 0.9 * model.cut_radius)
        for _ in range(1000):
            p = random_point(model, rng, 0.4)
            v = random_tangent(model, p, rng.uniform(0.0, 0.9) * cap, rng)
            q = model.exp(p, v)
            assert model.embedding_residual(q) < 1e-12
            worst = max(worst, float(np.max(np.abs(model.log(p, q) - v))))
        assert worst < 1e-9

    def test_exp_distance_consistency(self, model, rng):
        p = random_point(model, rng, 0.3)
        v = random_tangent(model, p, 0.8, rng)
        assert model.distance(p, model.exp(p, v)) == pytest.approx(0.8, abs=1e-10)

    def test_cut_radius_rejected(self):
        m = sphere(1.0)
        o = m.origin()
        v = random_tangent(m, o, math.pi + 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cut radius"):
            m.exp(o, v)

    def test_geodesic_constant_speed(self, model, rng):
        p = random_point(model, rng, 0.2)
        v = random_tangent(model, p, 0.7, rng)
        h = 1e-4
        for t in (0.2, 0.5, 0.9):
            a = model.exp(p, (t - h) * v)
            b = model.exp(p, (t + h) * v)
            speed = model.distance(a, b) / (2 * h)
            assert speed == pytest.approx(0.7, abs=1e-6)


class TestTangency:
    def test_frame_orthonormal(self, model, rng):
        p = random_point(model, rng, 0.6)
        e1, e2 = model.tangent_frame(p)
        assert model.tangency_residual(p, e1) < 1e-12
        assert model.tangency_residual(p, e2) < 1e-12
        assert model.tangent_inner(p, e1, e1) == pytest.approx(1.0, abs=1e-12)
        assert model.tangent_inner(p, e2, e2) == pytest.approx(1.0, abs=1e-12)
        assert abs(model.tangent_inner(p, e1, e2)) < 1e-12

    def test_rotate90_preserves_norm(self, model, rng):
        p = random_point(model, rng, 0.5)
        v = random_tangent(model, p, 1.3, rng)
        w = model.rotate90(p, v)
        assert model.tangency_residual(p, w) < 1e-10
        assert model.tangent_inner(p, v, w) == pytest.approx(0.0, abs=1e-10)
        assert model.tangent_norm(p, w) == pytest.approx(1.3, abs=1e-10)


class TestBallMeasure:
    def test_euclidean(self):
        bm = euclidean().ball_measure(np.zeros(2), 0.8)
        assert bm.value == pytest.approx(math.pi * 0.64, rel=1e-14)
        assert bm.method == "closed_form"

    def test_sphere_against_quadrature(self):
        # oracle: integral of the circumference 2 pi sin(s)
        m = sphere(1.0)
        val, _ = quad(lambda s: 2 * math.pi * math.sin(s), 0.0, 1.1)
        assert m.ball_measure(m.origin(), 1.1).value == pytest.approx(val, rel=1e-10)

    def test_gaussian_against_quadrature(self):
        lam = 1.7
        m = gaussian_plane(lam)
        val, _ = quad(lambda s: 2 * math.pi * s * math.exp(-0.5 * lam * s * s), 0.0, 0.9)
        got = m.ball_measure(np.zeros(2), 0.9)
        assert got.value == pytest.approx(val, rel=1e-10)
        assert got.method == "closed_form"

    def test_gaussian_off_center_flagged(self):
        m = gaussian_plane(1.0)
        got = m.ball_measure(np.array([0.4, 0.0]), 0.5)
        assert got.method == "quadrature"
        # weight at the off-center disc is below the origin-centered one
        assert got.value < m.ball_measure(np.zeros(2), 0.5).value


class TestPolarGrid:
    def test_weight_sum_matches_measure(self, model):
        g = build_polar_grid(model, model.origin(), 1.0, 256, 256)
        ref = model.ball_measure(model.origin(), 1.0).value
        assert abs(g.weights.sum() - ref) / ref < 1e-6

    def test_euclid_integrate_constant(self):
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(math.pi, rel=1e-6)

    def test_sphere_integrate_constant(self):
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(2 * math.pi * (1 - math.cos(1.0)), rel=1e-6)

    def test_integrate_rho_squared(self):
        # oracle: 2 pi * integral rho^3 = pi/2 on the unit disc
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        vals = np.broadcast_to((g.rho**2)[:, None], g.shape)
        assert g.integrate(vals) == pytest.approx(math.pi / 2, rel=1e-4)

    def test_quadrature_convergence(self, model):
        # smooth radial integrand, reference from adaptive quadrature
        f = lambda r: math.exp(-1.3 * r * r)
        if model.kind == "gaussian_plane":
            ref, _ = quad(lambda s: f(s) * s * math.exp(-0.5 * model.lam * s * s), 0, 1)
        else:
            ref, _ = quad(lambda s: f(s) * float(model.psi(s)), 0, 1)
        ref *= 2 * math.pi
        errs = []
        for n in (32, 64):
            g = build_polar_grid(model, model.origin(), 1.0, n, n)
            vals = np.exp(-1.3 * g.rho**2)[:, None] * np.ones(g.shape)
            errs.append(abs(g.integrate(vals) - ref))
        assert errs[0] / max(errs[1], 1e-16) >= 3.0

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="minimum"):
            build_polar_grid(euclidean(), np.zeros(2), 1.0, 4, 64)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError, match="positive"):
            build_polar_grid(euclidean(), np.zeros(2), r, 64, 64)

    def test_sphere_domain_limit(self):
        with pytest.raises(ValueError, match="working-ball"):
            build_polar_grid(sphere(1.0), sphere(1.0).origin(), 1.6, 64, 64)


class TestRicciLowerBound:
    def test_euclidean_zero(self):
        assert euclidean().ricci_lower_bound(7.0, 1.0) == 0.0

    def test_constant_curvature(self):
        assert hyperbolic(1.0).ricci_lower_bound(2.0, 1.0) == -1.0
        assert sphere(2.0).ricci_lower_bound(2.0, 0.5) == 2.0

    def test_gaussian_eigenvalue_formula(self):
        # lam - lam^2 R^2 / (N-2) at R = 1, lam = 1, N = 4
        m = gaussian_plane(1.0)
        assert m.ricci_lower_bound(4.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert m.ricci_lower_bound(math.inf, 3.0) == 1.0

    def test_dim_with_weight_rejected(self):
        with pytest.raises(ValueError, match="trivial weight"):
            gaussian_plane(1.0).ricci_lower_bound(2.0, 1.0)


class TestJson:
    def test_round_trip(self, model):
        d = model.to_json_dict()
        m2 = ModelSpace.from_json_dict(d)
        assert m2 == model
