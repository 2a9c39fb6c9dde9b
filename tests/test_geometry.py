import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from abplab.geometry import (ModelSpace, build_polar_grid, euclidean,
                             gaussian_plane, hyperbolic, sphere)
from abplab.report import seeded_rng
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
        assert model.distance(p, p) == 0.0

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

    @pytest.mark.parametrize("k", [1.0, 2.0**20, 2.0**-20])
    @pytest.mark.parametrize("curved", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
    def test_sn_over_t_matches_mpmath_near_zero(self, curved, k):
        # exp(o, v)[0] = (sn(t)/t) |v| along e_x at the origin, t = s|v|; with
        # s and |v| powers of 2 it reads sn(t)/t unrounded, which holds to
        # 2 eps from 1e-12 to 1e-2, with no switch of form about t = 1e-6
        m = curved(k)
        t = 2.0 ** np.arange(-40, -6)
        v = np.zeros((len(t), 3))
        v[:, 0] = t / math.sqrt(k)
        got = m.exp(m.origin(), v)[:, 0] / v[:, 0]
        sn = mpmath.sin if m.sectional() > 0 else mpmath.sinh
        with mpmath.workdps(40):
            want = [float(sn(x) / mpmath.mpf(x)) for x in t]
        np.testing.assert_allclose(got, want, rtol=2 * np.finfo(float).eps, atol=0.0)

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
        assert np.all(model.log(o, o) == 0.0)

    def test_round_trip_thousand(self, model, rng):
        o = model.origin()
        worst = 0.0
        cap = min(2.0, 0.9 * model.cut_radius)
        for _ in range(1000):
            p = random_point(model, rng, 0.4)
            v = random_tangent(model, p, rng.uniform(0.0, 0.9) * cap, rng)
            q = model.exp(p, v)
            assert model.on_model(q.tolist())
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

    @pytest.mark.parametrize("norm", [800.0, 1e160])
    def test_hyperboloid_exp_beyond_float64_rejected(self, norm):
        # cosh(s|v|) overflows past 710: no NaN points, and no cut radius named
        m = hyperbolic(1.0)
        with np.errstate(over="ignore"):   # |v|^2 itself overflows at 1e160
            with pytest.raises(ValueError, match=re.escape(
                    f"radius {norm:g} is too large for the float64 range")):
                m.exp(m.origin(), np.array([norm, 0.0, 0.0]))

    def test_geodesic_constant_speed(self, model, rng):
        p = random_point(model, rng, 0.2)
        v = random_tangent(model, p, 0.7, rng)
        h = 1e-4
        for t in (0.2, 0.5, 0.9):
            a = model.exp(p, (t - h) * v)
            b = model.exp(p, (t + h) * v)
            speed = model.distance(a, b) / (2 * h)
            assert speed == pytest.approx(0.7, abs=1e-6)


CURVED = [sphere(1.0), hyperbolic(1.0)]


def _atan2_distance(m, p, q):
    """Oracle: rho from cs(s rho) = kappa <p, q> and sn(s rho) = s |w|,
    w = q - kappa <p, q> p; atan2 on the sphere, asinh on the hyperboloid."""
    kappa = m.sectional()
    s = math.sqrt(abs(kappa))
    J = np.array([1.0, 1.0, -1.0]) if kappa < 0 else np.ones(3)
    c = kappa * np.sum(J * p * q, -1)
    w = q - c[..., None] * p
    sn = s * np.sqrt(np.sum(J * w * w, -1))
    return (np.arctan2(sn, c) if kappa > 0 else np.arcsinh(sn)) / s


@pytest.mark.parametrize("m", CURVED, ids=[m.kind for m in CURVED])
class TestChordAccuracy:
    """distance and log at off-origin points, where <c, c> = 1/kappa holds
    only to rounding: exact at q == p, and to a few ulps at any separation."""

    @staticmethod
    def _points(m, rng):
        c = np.array([random_point(m, rng, 1.0) for _ in range(200)])
        v = np.array([random_tangent(m, x, 1.0, rng) for x in c])
        return c, v

    def test_coincident_pairs_exactly_zero(self, m, rng):
        c, _ = self._points(m, rng)
        assert np.all(m.distance(c, c) == 0.0)
        assert np.all(m.log(c, c) == 0.0)

    def test_near_pairs_to_rounding(self, m, rng):
        c, v = self._points(m, rng)
        tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.max(np.abs(c), -1))
        for eps in 10.0 ** np.arange(-12, -2):
            err = np.abs(m.distance(c, m.exp(c, eps * v)) - eps)
            assert np.all(err <= tol), (eps, float(np.max(err / tol)))

    def test_far_pairs_match_atan2_oracle(self, m, rng):
        c, v = self._points(m, rng)
        t = rng.uniform(0.1, 0.9 * math.pi if m.sectional() > 0 else 2.0, len(c))
        q = m.exp(c, t[:, None] * v)
        want = _atan2_distance(m, c, q)
        np.testing.assert_allclose(m.distance(c, q), want, rtol=4e-15, atol=0.0)


class TestOneChord:
    """distance sums the chord over per-component differences and log over the
    batch q - p; both give the same rho, bit for bit."""

    def test_one_to_many(self, model):
        g = build_polar_grid(model, model.origin(), 0.2 * min(1.0, model.domain_radius_limit),
                             24, 24)
        X = g.flat_points()
        for p in X[::37]:
            assert np.array_equal(model.distance(p, X), model._polar(p, X)[0])
            assert np.array_equal(model.distance(X, p), model._polar(X, p)[0])

    def test_pairwise(self, model, rng):
        spread = 0.4 * min(1.0, model.domain_radius_limit)
        p = np.array([random_point(model, rng, spread) for _ in range(300)])
        q = np.array([random_point(model, rng, spread) for _ in range(300)])
        assert np.array_equal(model.distance(p, q), model._polar(p, q)[0])
        assert np.array_equal(model.distance(p.reshape(20, 15, -1), q.reshape(20, 15, -1)),
                              model._polar(p, q)[0].reshape(20, 15))
        assert np.array_equal(model.distance(p, q), [model.distance(a, b) for a, b in zip(p, q)])


def _tangency_residual(model, p, v):
    """|<p, v>|, 0 for a tangent vector of a curved model; every vector of a
    flat chart is tangent."""
    return 0.0 if model.is_flat_chart else abs(model.lower(p) @ v)


class TestTangency:
    def test_frame_orthonormal(self, model, rng):
        p = random_point(model, rng, 0.6)
        e1, e2 = model.tangent_frame(p)
        assert _tangency_residual(model, p, e1) < 1e-12
        assert _tangency_residual(model, p, e2) < 1e-12
        assert model.tangent_inner(p, e1, e1) == pytest.approx(1.0, abs=1e-12)
        assert model.tangent_inner(p, e2, e2) == pytest.approx(1.0, abs=1e-12)
        assert abs(model.tangent_inner(p, e1, e2)) < 1e-12

    @pytest.mark.parametrize("m", [euclidean(), gaussian_plane(1.0)], ids=["euclidean", "gaussian"])
    @pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=["point", "n", "n_r-n_t"])
    def test_flat_frame_is_a_read_only_view_of_the_tiled_basis(self, m, batch, rng):
        p = rng.uniform(-1.0, 1.0, size=batch + (2,))
        e1, e2 = m.tangent_frame(p)
        reps = batch + (1,)
        for e, want in ((e1, np.tile([1.0, 0.0], reps)), (e2, np.tile([0.0, 1.0], reps))):
            assert e.shape == want.shape and not e.flags.writeable
            assert e.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                e[...] = 0.0
        np.testing.assert_array_equal(m.tangent_frame(p)[0], e1)   # the constants are intact

    def test_lower_gives_the_inner_product(self, model, rng):
        p = random_point(model, rng, 0.5)
        v = random_tangent(model, p, 0.7, rng)
        w = random_tangent(model, p, 1.1, rng)
        assert model.tangent_inner(p, v, w) == pytest.approx(
            float(np.sum(model.lower(v) * w)), rel=1e-14, abs=1e-15)

    def test_rotate90_preserves_norm(self, model, rng):
        p = random_point(model, rng, 0.5)
        v = random_tangent(model, p, 1.3, rng)
        w = model.rotate90(p, v)
        assert _tangency_residual(model, p, w) < 1e-10
        assert model.tangent_inner(p, v, w) == pytest.approx(0.0, abs=1e-10)
        assert model.tangent_norm(p, w) == pytest.approx(1.3, abs=1e-10)


def _disc_measure(lam, c, r):
    """oracle: nested quad of exp(-lam |c + rho e|^2/2) rho over the disc."""
    cx, cy = map(float, c)

    def ring(rho):
        val, _ = quad(lambda th: math.exp(-0.5 * lam * ((cx + rho * math.cos(th)) ** 2
                                                       + (cy + rho * math.sin(th)) ** 2)),
                      0.0, 2 * math.pi, epsabs=0.0, epsrel=2e-14, limit=200)
        return rho * val

    return quad(ring, 0.0, r, epsabs=0.0, epsrel=2e-14, limit=200)[0]


class TestBallMeasure:
    def test_euclidean(self):
        bm = euclidean().ball_measure(np.zeros(2), 0.8)
        assert isinstance(bm, float)
        assert bm == pytest.approx(math.pi * 0.64, rel=1e-14)

    def test_sphere_against_quadrature(self):
        # oracle: integral of the circumference 2 pi sin(s)
        m = sphere(1.0)
        val, _ = quad(lambda s: 2 * math.pi * math.sin(s), 0.0, 1.1)
        assert m.ball_measure(m.origin(), 1.1) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("k", [1.0, 4.0])
    def test_hyperbolic_against_quadrature(self, k):
        # oracle: integral of the circumference 2 pi sinh(sqrt(k) s)/sqrt(k)
        m = hyperbolic(k)
        sk = math.sqrt(k)
        val, _ = quad(lambda s: 2 * math.pi * math.sinh(sk * s) / sk, 0.0, 0.9)
        assert m.ball_measure(m.origin(), 0.9) == pytest.approx(val, rel=1e-10)

    def test_gaussian_against_quadrature(self):
        lam = 1.7
        m = gaussian_plane(lam)
        val, _ = quad(lambda s: 2 * math.pi * s * math.exp(-0.5 * lam * s * s), 0.0, 0.9)
        assert m.ball_measure(np.zeros(2), 0.9) == pytest.approx(val, rel=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_gaussian_off_center_against_oracle(self):
        rng = seeded_rng(17, "off-origin-balls")
        for i in range(60):
            lam = (0.5, 1.0, 2.0)[i % 3]
            th = rng.uniform(0.0, 2 * math.pi)
            c = rng.uniform(0.05, 2.8) * np.array([math.cos(th), math.sin(th)])
            r = rng.uniform(0.05, 1.5)
            got = gaussian_plane(lam).ball_measure(c, r)
            assert got == pytest.approx(_disc_measure(lam, c, r), rel=1e-13, abs=0.0)
        m = gaussian_plane(1.0)
        # weight at the off-center disc is below the origin-centered one
        assert m.ball_measure(np.array([0.4, 0.0]), 0.5) < m.ball_measure(np.zeros(2), 0.5)

    def test_gaussian_off_center_negative_weight(self):
        # lam < 0: the exponent pairs rho with +|c|, where the weight peaks
        for c, r in (((1.0, 0.5), 1.2), ((0.0, 2.0), 0.7), ((-0.3, 0.1), 1.5)):
            got = gaussian_plane(-0.5).ball_measure(np.array(c), r)
            assert got == pytest.approx(_disc_measure(-0.5, c, r), rel=1e-13, abs=0.0)

    def test_gaussian_off_center_at_the_i0_bound(self):
        # |lam| |c| r = 699.4 is in range; 702 is past np.i0's overflow margin
        m = gaussian_plane(1.0)
        c = np.array([0.0, 26.0])
        got = m.ball_measure(c, 26.9)
        assert got == pytest.approx(_disc_measure(1.0, c, 26.9), rel=1e-12, abs=0.0)
        with pytest.raises(ValueError, match="700"):
            m.ball_measure(c, 27.0)

    @pytest.mark.parametrize("m, sn", [(sphere(1.0), math.sin), (hyperbolic(1.0), math.sinh)],
                             ids=["sphere", "hyperbolic"])
    @pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4])
    def test_small_radius_accuracy(self, m, sn, r):
        # 2 pi/kappa (1 - dpsi(r)) cancels to ~7e-9 relative at r = 1e-4
        val, _ = quad(lambda s: 2 * math.pi * sn(s), 0.0, r, epsabs=0.0, epsrel=2e-14)
        assert m.ball_measure(m.origin(), r) == pytest.approx(val, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s", [1e-10, 1e-14, 1e-16])
    def test_off_origin_gaussian_ball_scales_with_the_metric(self, s):
        # g -> s^2 g takes lam to lam/s^2 and (c, r) to (s c, s r), so nu/s^2
        # is one number.  lam, |c| and r each carry one rounding of s, which
        # moves the bounded exponents and the prefactor by a few eps, and the
        # 64 positive terms of the radial sum cancel nothing: 16 eps.  A
        # cut-off to the origin's closed form below an absolute |c| read
        # 13% high here at s = 1e-14 and 1e-16.
        def scaled(s):
            return gaussian_plane(1.0 / s**2).ball_measure(np.array([0.5 * s, 0.0]), 0.3 * s) / s**2

        ref = scaled(1.0)
        assert abs(scaled(s) - ref) <= 16 * np.finfo(float).eps * ref

    def test_weight_free_gaussian_off_center_closed_form(self):
        got = gaussian_plane(0.0).ball_measure(np.array([0.4, 0.0]), 0.5)
        assert got == pytest.approx(math.pi * 0.25, rel=1e-15, abs=0.0)


class TestWeight:
    def test_weight_off_the_gaussian_plane_rejected(self):
        with pytest.raises(ValueError, match="lam must be 0"):
            ModelSpace("sphere", k=1, lam=3)

    def test_gaussian_closed_forms(self, rng):
        lam = 1.7
        m = gaussian_plane(lam)
        p = rng.normal(size=(50, 2))
        np.testing.assert_allclose(m.weight_V(p), 0.5 * lam * (p[:, 0] ** 2 + p[:, 1] ** 2),
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(m.grad_V(p), lam * p, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("m", [euclidean(), sphere(1.0), hyperbolic(1.0)],
                             ids=["euclidean", "sphere", "hyperbolic"])
    def test_unweighted_models_exactly_zero(self, m, rng):
        p = np.array([random_point(m, rng, 1.0) for _ in range(20)])
        assert np.all(m.weight_V(p) == 0.0) and m.weight_V(p).shape == (20,)
        assert np.all(m.grad_V(p) == 0.0) and m.grad_V(p).shape == p.shape


class TestDistHessianTransverse:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0), hyperbolic(1e6)],
                             ids=["sphere", "hyperbolic", "hyperbolic-k1e6"])
    def test_against_mpmath(self, m):
        # oracle: t cot t on the sphere and t coth t on the hyperboloid,
        # t = s rho in 50 digits, on the hyperboloid also far past s rho =
        # 710, where sinh and cosh leave float64
        s = math.sqrt(m.k)
        ts = [1e-300, 1e-12, 1e-4, 0.5, 1.5, 3.0]
        if m.kind == "hyperbolic":
            ts += [710.0, 800.0, 1e4, 1e300]
        rho = np.array(ts) / s
        got = m.dist_hessian_transverse(rho)
        with mpmath.workdps(50):
            for r, g in zip(rho, got):
                t = mpmath.mpf(s) * mpmath.mpf(float(r))
                want = t * (mpmath.cot(t) if m.kind == "sphere" else mpmath.coth(t))
                assert abs(g - want) <= 64 * np.finfo(float).eps * abs(want), (r, g, want)

    @pytest.mark.parametrize("m", [euclidean(), gaussian_plane(1.0)], ids=["euclidean", "gaussian"])
    def test_flat_charts_read_one(self, m):
        rho = np.array([0.0, 1e-300, 1.0, 1e300])
        assert np.all(m.dist_hessian_transverse(rho) == 1.0)
        assert np.isnan(m.dist_hessian_transverse(np.nan))


class TestPolarGrid:
    def test_weight_sum_matches_measure(self, model):
        g = build_polar_grid(model, model.origin(), 1.0, 256, 256)
        ref = model.ball_measure(model.origin(), 1.0)
        assert abs(g.weights.sum() - ref) / ref < 1e-6

    def test_euclid_integrate_constant(self):
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        assert np.sum(g.weights * np.ones(g.shape)) == pytest.approx(math.pi, rel=1e-6)

    def test_sphere_integrate_constant(self):
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        assert np.sum(g.weights * np.ones(g.shape)) == pytest.approx(2 * math.pi * (1 - math.cos(1.0)), rel=1e-6)

    def test_integrate_rho_squared(self):
        # oracle: 2 pi * integral rho^3 = pi/2 on the unit disc
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 256, 256)
        vals = np.broadcast_to((g.rho**2)[:, None], g.shape)
        assert np.sum(g.weights * vals) == pytest.approx(math.pi / 2, rel=1e-4)

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
            errs.append(abs(np.sum(g.weights * vals) - ref))
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

    @pytest.mark.parametrize("make", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
    @pytest.mark.parametrize("k", [1e-14, 1e-13, 1e-11, 1e-10, 1.0, 1e10])
    def test_centre_on_model_relative_to_its_norm(self, make, k):
        # the origin's <x, x> = 1/k carries an ulp of 1/k, above any fixed
        # bound at small k; the on-model bound 32 eps |x|^2 admits it at
        # every k, and refuses a centre 2e-12 |x|^2 off the model at every k
        m = make(k)
        o = m.origin()
        r = 0.5 / math.sqrt(k)
        assert build_polar_grid(m, o, r, 8, 8).center.tolist() == o.tolist()
        with pytest.raises(ValueError, match="grid center is not a valid embedded point"):
            build_polar_grid(m, o * (1.0 + 1e-12), r, 8, 8)

    def test_on_model_within_a_few_ulps(self, model, rng):
        # points 8 ulps of |x| off an exact point of the model are on it; a
        # residual that left float64 is not
        for _ in range(50):
            p = random_point(model, rng, 0.8)
            xn = float(np.linalg.norm(p))
            assert model.on_model((p + 8.0 * np.finfo(float).eps * xn
                                   * rng.choice([-1.0, 1.0], p.shape)).tolist())
        big = np.full(model.embedding_dim, 1e200)
        assert model.on_model(big.tolist()) == model.is_flat_chart

    @pytest.mark.parametrize("name", ["points", "weights", "rho", "theta"])
    def test_grid_arrays_are_read_only(self, model, name):
        # every check built on the grid reads these arrays, so no caller may
        # write into them
        g = build_polar_grid(model, model.origin(), 0.5, 16, 16)
        arr = getattr(g, name)
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
        np.testing.assert_array_equal(arr, before)

    @pytest.mark.parametrize("name", ["points", "weights", "rho", "theta", "center",
                                      "radius", "n_r", "model"])
    def test_grid_fields_cannot_be_rebound(self, name):
        g = build_polar_grid(euclidean(), np.zeros(2), 0.5, 16, 16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, getattr(g, name))

    def test_grid_leaves_the_callers_centre_writable(self):
        c = np.array([0.1, -0.2])
        g = build_polar_grid(euclidean(), c, 0.5, 16, 16)
        assert g.center is c and c.flags.writeable

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r,end", [(1e160, "large"), (1e154, "large"), (1e-300, "small")])
    def test_radius_outside_float64_names_its_end(self, r, end):
        # at 1e160 the euclidean Gauss points square past float64, at 1e154
        # the weights' sum overflows, at 1e-300 the weights underflow to 0
        with pytest.raises(ValueError, match=re.escape(f"radius {r:g} is too {end} for the float64")):
            build_polar_grid(euclidean(), np.zeros(2), r, 8, 8)


def _stacked_weights(model, center, r, n_r, n_theta):
    """The grid weights with exp(-V) taken at the Gauss points on every
    model, as the weighted form computes them."""
    drho, dth = r / n_r, 2.0 * math.pi / n_theta
    rho = (np.arange(n_r) + 0.5) * drho
    e1, e2 = model.tangent_frame(center)
    theta = np.arange(n_theta) * dth
    dirs = np.cos(theta)[:, None] * e1[None, :] + np.sin(theta)[:, None] * e2[None, :]
    weights = np.zeros((n_r, n_theta))
    for s in (-0.5 * drho / math.sqrt(3.0), 0.5 * drho / math.sqrt(3.0)):
        pg = model.exp(center, (rho + s)[:, None, None] * dirs[None, :, :])
        weights += 0.5 * model.psi(rho + s)[:, None] * np.exp(-model.weight_V(pg))
    return weights * (drho * dth)


class TestUnweightedGridWeights:
    """Off the gaussian plane exp(-V) is exactly 1, and the grid adds psi
    alone; the weights are those of the Gauss-point form, bit for bit."""

    @pytest.mark.parametrize("n", [33, 64, 256])
    def test_weights_equal_the_gauss_point_form(self, model, n):
        r = min(1.0, 0.6 * model.domain_radius_limit)
        for center in (model.origin(), random_point(model, seeded_rng(5, "grid-centre"), 0.3)):
            g = build_polar_grid(model, center, r, n, n + 3)
            assert g.weights.tobytes() == _stacked_weights(model, center, r, n, n + 3).tobytes()

    def test_far_hyperboloid_weights(self):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 30.0, 64, 64)
        assert g.weights.tobytes() == _stacked_weights(m, m.origin(), 30.0, 64, 64).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [360.0, 700.0])
    def test_gauss_points_past_float64_refused(self, r):
        # the Gauss-point form reads exp(-0 * inf) = NaN there
        with pytest.raises(ValueError, match=f"radius {r:g} is too large for the float64 range"):
            build_polar_grid(hyperbolic(1.0), hyperbolic(1.0).origin(), r, 16, 16)


def _polar_stacked(m, p, q):
    """_polar with the batch expressions q - p and (2h)[..., None] * p."""
    d = np.asarray(q, float) - np.asarray(p, float)
    if m.is_flat_chart:
        rho = np.sqrt(np.maximum(m._inner(d, d), 0.0))
        return rho, rho, np.ones_like(rho), d + 0.0
    rho, chord = m._rho(m._inner(d, d))
    h = (0.25 * m.sectional()) * chord * chord
    return rho, chord * np.sqrt(1.0 - h), 1.0 - 2.0 * h, d + (2.0 * h)[..., None] * p


def _exp_stacked(m, p, v):
    if m.is_flat_chart:
        return p + v
    t = m._s * m.tangent_norm(p, v)
    safe = np.where(t == 0.0, 1.0, t)
    sn_over = np.where(t == 0.0, 1.0, m._sn(safe) / safe)
    return m._cs(t)[..., None] * p + sn_over[..., None] * v


def _frame_stacked(m, p):
    def project(w):
        return w - (m.sectional() * m._inner(w, p))[..., None] * p
    e1 = project(np.array([1.0, 0.0, 0.0]))
    n1 = m.tangent_norm(p, e1)
    bad = n1 < 1e-6
    if np.any(bad):
        e1 = np.where(bad[..., None], project(np.array([0.0, 1.0, 0.0])), e1)
        n1 = m.tangent_norm(p, e1)
    e1 = e1 / n1[..., None]
    return e1, m.lower(np.cross(m._s * p, e1))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _batches(m, gen):
    """(p, q) pairs: one centre against a batch and the batch against it,
    per-row centres, and grid-shaped points against one centre."""
    X = np.array([random_point(m, gen, 0.5) for _ in range(40)])
    Y = np.array([random_point(m, gen, 0.5) for _ in range(40)])
    c = random_point(m, gen, 0.3)
    grid = build_polar_grid(m, c, 0.4, 8, 9).points
    return [(c, X), (X, c), (X, Y), (grid, c), (c, grid), (X[0], X[0]), (X, X)]


class TestComponentForms:
    """_polar, log, exp and the tangent frame form their per-point scalings
    component by component; every value is that of the stacked expressions."""

    def test_polar_and_log(self, model):
        gen = seeded_rng(7, "component-polar")
        for p, q in _batches(model, gen):
            got, want = model._polar(p, q), _polar_stacked(model, p, q)
            assert all(_same_bits(a, b) for a, b in zip(got, want))
            rho, psi, _, w = want
            log = (rho / np.where(psi > 0.0, psi, 1.0))[..., None] * w
            assert _same_bits(model.log(p, q), log)

    def test_exp(self, model):
        gen = seeded_rng(7, "component-exp")
        for p, q in _batches(model, gen):
            v = model.log(p, q)
            assert _same_bits(model.exp(p, v), _exp_stacked(model, p, v))
        c = model.origin()
        v = 0.3 * np.stack([model.tangent_frame(c)[0]] * 5)   # a batch of tangents at one point
        assert _same_bits(model.exp(c, v), _exp_stacked(model, c, v))

    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0), sphere(4.0)],
                             ids=["sphere", "hyperbolic", "sphere-k4"])
    def test_tangent_frame(self, m):
        gen = seeded_rng(7, "component-frame")
        X = np.array([random_point(m, gen, 0.5) for _ in range(40)])
        batches = [X, X[3], X.reshape(8, 5, 3)]
        if m.sectional() > 0:
            # at the sphere's pole on the ambient x-axis the frame takes the y-axis
            pole = m.exp(m.origin(), np.array([0.5 * math.pi / m._s, 0.0, 0.0]))
            assert m.tangent_norm(pole, np.array([1.0, 0.0, 0.0]) - pole * m._s ** 2 * pole[0]) < 1e-6
            batches.append(np.vstack([X, pole]))
        for p in batches:
            for got, want in zip(m.tangent_frame(p), _frame_stacked(m, p)):
                assert _same_bits(got, want)


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

    def test_weight_free_gaussian_at_dim(self):
        # lam = 0 keys the weight off: kappa = 0, no division by N - dim
        assert gaussian_plane(0.0).ricci_lower_bound(2.0, 1.0) == 0.0

    def test_dim_with_weight_rejected(self):
        with pytest.raises(ValueError, match="trivial weight"):
            gaussian_plane(1.0).ricci_lower_bound(2.0, 1.0)

    @pytest.mark.parametrize("lam, N, K", [(1.0, 4.0, 0.0), (2.0, 3.0, 0.5), (-1.0, 6.0, 2.0)])
    def test_reach_is_where_the_bound_meets_minus_k(self, lam, N, K):
        m = gaussian_plane(lam)
        reach = m.ricci_reach(N, K)
        assert m.ricci_lower_bound(N, reach) == pytest.approx(-K, abs=1e-12)
        assert m.ricci_lower_bound(N, 0.999 * reach) > -K > m.ricci_lower_bound(N, 1.001 * reach)

    def test_reach_unbounded_where_the_bound_is_constant_or_already_below(self):
        # no weight, N = inf, or lam + K <= 0: no radius to shrink draws to
        for m, N, K in ((hyperbolic(1.0), 2.0, 0.0), (euclidean(), 4.0, 0.0),
                        (gaussian_plane(1.0), math.inf, 0.0), (gaussian_plane(-1.0), 4.0, 0.5)):
            assert m.ricci_reach(N, K) == math.inf

