import math

import numpy as np
import pytest

from abplab.constants import CurvatureParams
from abplab.fields import ScalarField
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.measure import doubling_check, integral_I
from abplab.report import seeded_rng
from conftest import BallFamily, lp_distribution_check, random_point, vitali_cover, vitali_verify


class TestDoubling:
    def test_euclid_exact_power(self):
        m = euclidean()
        rep = doubling_check(m, CurvatureParams(0.0, 2.0, 1.0), np.zeros(2), 0.8, 0.4)
        assert rep.passed
        assert rep.diagnostics["two_ball_ratio"] == pytest.approx(4.0, rel=1e-12)

    def test_sphere_ratio_below_flat(self):
        m = sphere(1.0)
        for r in (0.1, 0.3, 0.7):
            ratio = m.ball_measure(m.origin(), 2 * r) / m.ball_measure(m.origin(), r)
            assert ratio < 4.0

    def test_hyperbolic_cosh_bound(self):
        # the curvature-weighted doubling bound 2^N cosh(2 sqrt(K/(N-1)) R)^{N-1}
        m = hyperbolic(1.0)
        K, N, R = 1.0, 2.0, 1.0
        bound = 2.0**N * math.cosh(2.0 * math.sqrt(K / (N - 1)) * R) ** (N - 1)
        for r in (0.2, 0.35, 0.5):
            ratio = m.ball_measure(m.origin(), 2 * r) / m.ball_measure(m.origin(), r)
            assert ratio <= bound

    @pytest.mark.parametrize("m,params", [
        (euclidean(), CurvatureParams(0.0, 2.0, 1.0)),
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.7)),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0)),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.9)),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_random_pairs(self, m, params):
        rng = seeded_rng(5, f"doubling-{m.kind}")
        for _ in range(30):
            limit = min(params.R, 0.45 * m.domain_radius_limit)
            r1 = limit * rng.uniform(0.3, 1.0)
            r2 = r1 * rng.uniform(0.15, 0.8)
            c = random_point(m, rng, 0.15 * limit)
            rep = doubling_check(m, params, c, r1, r2)
            assert rep.passed, rep.diagnostics

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError):
            doubling_check(euclidean(), CurvatureParams(0, 2, 1.0), np.zeros(2), 0.2, 0.4)

    def test_infinite_N_rejected(self):
        with pytest.raises(ValueError, match="N < inf"):
            doubling_check(gaussian_plane(1.0), CurvatureParams(0, math.inf, 0.9),
                           np.zeros(2), 0.8, 0.4)

    def test_ricci_premise_screened(self):
        # Ric = -4 on hyperbolic(4) breaks Ric_{N,nu} >= -K g for K = 0
        rep = doubling_check(hyperbolic(4.0), CurvatureParams(0.0, 2.0, 1.0),
                             hyperbolic(4.0).origin(), 0.8, 0.3)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on the ball"
        assert rep.diagnostics["ricci_gap"] == pytest.approx(4.0, rel=1e-15)

    def test_ricci_premise_reaches_the_largest_ball(self):
        # gaussian plane, lam = 1, N = 4: Ric_{N,nu} >= 0 exactly on |x| <= sqrt 2.
        # B_{2 r2}(c) reaches |c| + 2 r2 = 1.5 though B_r1(c) stays inside
        m, params = gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.9)
        c = np.array([0.3, 0.0])
        assert not doubling_check(m, params, c, 0.65, 0.6).passed
        assert doubling_check(m, params, c, 0.65, 0.5).passed


class TestIntegralI:
    def _field(self, m, values_fn, r=1.0, n=48):
        g = build_polar_grid(m, m.origin(), r, n, n)
        return ScalarField(g, values_fn(g))

    def test_constant_exact(self):
        m = euclidean()
        f = self._field(m, lambda g: np.full(g.shape, -2.5))
        got = integral_I(CurvatureParams(0, 2, 1.0), f, m.origin(), 0.8, 1.0)
        assert got == pytest.approx(0.8**2 * 2.5, rel=1e-12)

    def test_monotone_in_exponent(self, rng):
        # power-mean inequality: q = 1 vs q = 2
        m = euclidean()
        f = self._field(m, lambda g: np.abs(rng.normal(size=g.shape)) + 0.1)
        p = CurvatureParams(0.0, 2.0, 1.0)
        assert integral_I(p, f, m.origin(), 0.9, 1.0) <= integral_I(p, f, m.origin(), 0.9, 2.0) * (1 + 1e-12)

    @pytest.mark.parametrize("m,params", [
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.7)),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0)),
    ], ids=["sphere", "hyperbolic"])
    def test_monotone_in_ball(self, m, params, rng):
        limit = min(params.R, 0.45 * m.domain_radius_limit)
        f = self._field(m, lambda g: np.abs(rng.normal(size=g.shape)) + 0.05, r=limit)
        from abplab.constants import build_ledger
        eta = build_ledger(params).eta
        vals = [integral_I(params, f, m.origin(), r, eta) for r in (0.4 * limit, 0.7 * limit, limit)]
        assert vals[0] <= vals[1] * (1 + 1e-9) <= vals[2] * (1 + 1e-9) ** 2

    def test_average_about_the_given_centre(self):
        # f = 0 on B_1 and 16 outside, on a grid of B_2: the ball B_1((0.9, 0))
        # reaches into the outer shell, the ball about the grid centre does not
        m = euclidean()
        f = self._field(m, lambda g: np.where(g.rho[:, None] <= 1.0, 0.0, 16.0)
                        * np.ones(g.shape), r=2.0, n=96)
        params = CurvatureParams(0, 2, 1.0)
        assert integral_I(params, f, m.origin(), 1.0, 1.0) == 0.0
        assert integral_I(params, f, np.array([0.9, 0.0]), 1.0, 1.0) == pytest.approx(
            11.9, abs=0.05)

    def test_exponent_floor(self):
        m = euclidean()
        f = self._field(m, lambda g: np.ones(g.shape))
        with pytest.raises(ValueError):
            integral_I(CurvatureParams(0, 2, 1.0), f, m.origin(), 0.5, 0.5)


class TestLpBracketing:
    def test_constant_one_degenerate(self):
        rep = lp_distribution_check(np.ones(100), np.ones(100), 2.0, 1.0)
        assert rep.passed

    def test_two_atom_hand_value(self):
        # f in {1, C^2} with equal mass, p = 1, C = 2: S = 1.5 and the upper
        # bound 1 + (C-1) S = 2.5 meets the true mean exactly
        rep = lp_distribution_check(np.array([1.0, 4.0]), np.array([0.5, 0.5]), 2.0, 1.0)
        assert rep.passed
        assert rep.diagnostics["moment"] == pytest.approx(2.5)
        assert rep.diagnostics["upper"] == pytest.approx(2.5)
        assert rep.diagnostics["lower"] == pytest.approx(0.5 * 1.5 + 0.5 * 0.5)

    def test_lognormal_field(self, rng):
        f = np.exp(rng.normal(size=4000) * 0.8)
        w = np.abs(rng.normal(size=4000)) + 0.1
        rep = lp_distribution_check(f, w, 2.0, 0.5)
        assert rep.passed
        assert rep.diagnostics["lower"] <= rep.diagnostics["moment"] <= rep.diagnostics["upper"]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lp_distribution_check(np.array([-1.0]), np.array([1.0]), 2.0, 1.0)
        with pytest.raises(ValueError):
            lp_distribution_check(np.array([1.0]), np.array([1.0]), 0.9, 1.0)


class TestVitali:
    def test_single_ball_selected(self):
        fam = BallFamily(euclidean(), np.zeros((1, 2)), np.array([0.5]))
        sel = vitali_cover(fam)
        assert list(sel) == [0]
        assert vitali_verify(fam, sel).passed

    def test_two_identical_overlapping(self):
        fam = BallFamily(euclidean(), np.array([[0.0, 0.0], [0.1, 0.0]]),
                         np.array([1.0, 1.0]))
        sel = vitali_cover(fam)
        assert len(sel) == 1
        rep = vitali_verify(fam, sel)
        assert rep.passed and rep.diagnostics["uncovered_centers"] == 0

    @pytest.mark.parametrize("m", [euclidean(), hyperbolic(1.0)],
                             ids=["euclidean", "hyperbolic"])
    def test_random_family_exhaustive(self, m):
        rng = seeded_rng(17, f"vitali-{m.kind}")
        n = 200
        centers = np.stack([random_point(m, rng, 1.0) for _ in range(n)])
        radii = rng.uniform(0.02, 0.3, size=n)
        fam = BallFamily(m, centers, radii)
        sel = vitali_cover(fam)
        rep = vitali_verify(fam, sel)
        assert rep.passed, rep.diagnostics
        # the coverage argument: every unselected ball meets a selected one of
        # no smaller radius within the quarter-radius margin
        sel_set = set(sel.tolist())
        for i in range(n):
            if i in sel_set:
                continue
            d = m.distance(centers[i], centers[sel])
            close = d < 0.25 * (radii[i] + radii[sel])
            assert np.any(close & (radii[sel] >= radii[i] - 1e-12))

    def test_matches_pairwise_greedy_and_audit(self, model):
        # the per-pair loops the distance-matrix cover and audit replace
        rng = seeded_rng(23, f"vitali-ref-{model.kind}")
        centers = np.stack([random_point(model, rng, 0.8) for _ in range(60)])
        radii = rng.uniform(0.05, 0.4, size=60)
        d = lambda i, j: float(model.distance(centers[i], centers[j]))
        chosen = []
        for i in np.argsort(-radii, kind="stable"):
            if all(d(i, j) >= 0.25 * (radii[i] + radii[j]) for j in chosen):
                chosen.append(int(i))
        fam = BallFamily(model, centers, radii)
        assert vitali_cover(fam).tolist() == chosen
        worst = max(0.25 * (radii[i] + radii[j]) - d(i, j)
                    for k, i in enumerate(chosen) for j in chosen[k + 1:])
        uncovered = sum(not any(d(i, j) <= radii[j] + 1e-12 for j in chosen) for i in range(60))
        rep = vitali_verify(fam, np.array(chosen))
        assert rep.diagnostics["worst_quarter_overlap"] == worst
        assert rep.diagnostics["uncovered_centers"] == uncovered == 0

    def test_empty_family_rejected(self):
        fam = BallFamily(euclidean(), np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            vitali_cover(fam)

    def test_unbounded_radii_rejected(self):
        with pytest.raises(ValueError):
            BallFamily(euclidean(), np.zeros((1, 2)), np.array([math.inf]))
