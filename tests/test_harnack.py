import math

import numpy as np
import pytest

from abplab.constants import CurvatureParams, build_ledger
from abplab.fields import ScalarField, constant_field, quadratic_field, sum_fields
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic
from abplab.harnack import growth_check, harnack_check_full, harnack_check_sub, harnack_check_sup
from abplab.measure import log_lp_average
from abplab.pde import DirichletProblem, solve_poisson
from abplab.report import seeded_rng

FLAT = CurvatureParams(0.0, 2.0, 1.0)
CURVED = CurvatureParams(1.0, 2.0, 0.5)


def _flat_grid(n=96, R=1.0):
    m = euclidean()
    return m, build_polar_grid(m, m.origin(), 2.0 * R, n, n)


class TestLogLpAverage:
    def test_geometric_mean_limit(self):
        v = np.array([1.0, 4.0])
        w = np.ones(2)
        got = log_lp_average(v, w, 1e-18)
        assert got == pytest.approx(0.5 * math.log(4.0), abs=1e-12)

    def test_matches_direct_power_mean(self, rng):
        v = np.abs(rng.normal(size=200)) + 0.1
        w = np.abs(rng.normal(size=200)) + 0.1
        for p in (0.5, 1.0, 3.0):
            direct = (np.sum(w * v**p) / np.sum(w)) ** (1.0 / p)
            assert log_lp_average(v, w, p) == pytest.approx(math.log(direct), abs=1e-12)

    def test_zero_mass_sends_to_zero(self):
        v = np.array([0.0, 1.0])
        assert log_lp_average(v, np.ones(2), 1e-18) == -math.inf


class TestSupCheck:
    def test_trivial_constant(self):
        m, g = _flat_grid()
        rep = harnack_check_sup(FLAT, constant_field(g, 1.0), constant_field(g, 0.0))
        assert rep.passed
        assert rep.diagnostics["sharpness"] == "non-sharp"

    def test_supersolution_paraboloid(self):
        # u = 4.05 - |x|^2 on B_2 with Delta u = -2, a strict supersolution of 0
        m, g = _flat_grid()
        u = sum_fields([constant_field(g, 4.05), quadratic_field(g, m.origin(), -0.5)])
        rep = harnack_check_sup(FLAT, u, constant_field(g, 0.0))
        assert rep.passed

    def test_negative_u_rejected(self):
        m, g = _flat_grid()
        u = sum_fields([constant_field(g, 0.5), quadratic_field(g, m.origin(), -0.5)])
        rep = harnack_check_sup(FLAT, u, constant_field(g, 0.0))
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "u >= 0 on B_2R"

    def test_not_supersolution_rejected(self):
        m, g = _flat_grid()
        u = quadratic_field(g, m.origin(), 1.0)  # Delta u = 2 > 0
        rep = harnack_check_sup(FLAT, u, constant_field(g, 0.0))
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Delta_nu u <= f nodewise"

    def test_ricci_premise_rejected(self):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        bad = CurvatureParams(0.0, 2.0, 0.5)
        rep = harnack_check_sup(bad, constant_field(g, 1.0), constant_field(g, 0.0))
        assert not rep.passed
        assert "Ric" in rep.diagnostics["violated_premise"]


class TestSubCheck:
    def test_trivial_constant(self):
        m, g = _flat_grid()
        assert harnack_check_sub(FLAT, constant_field(g, 1.0), constant_field(g, 0.0), 1.0).passed

    def test_quadratic_subsolution(self):
        m, g = _flat_grid()
        u = quadratic_field(g, m.origin(), 2.0)  # Delta u = 4
        assert harnack_check_sub(FLAT, u, constant_field(g, 4.0), 1.0).passed

    def test_p_at_p0(self):
        m, g = _flat_grid()
        ledger = build_ledger(FLAT)
        u = quadratic_field(g, m.origin(), 2.0)
        assert harnack_check_sub(FLAT, u, constant_field(g, 4.0), ledger.p0).passed

    def test_small_p_unsupported(self):
        m, g = _flat_grid()
        ledger = build_ledger(FLAT)
        rep = harnack_check_sub(FLAT, constant_field(g, 1.0), constant_field(g, 0.0),
                                0.5 * ledger.p0)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "p >= p0"
        assert "unsupported_p" in rep.diagnostics


    def test_not_subsolution_rejected(self):
        m, g = _flat_grid()
        u = quadratic_field(g, m.origin(), -1.0)  # Delta u = -2 < 0
        rep = harnack_check_sub(FLAT, u, constant_field(g, 0.0), 1.0)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Delta_nu u >= f nodewise"


class TestFullCheck:
    def test_affine_positive_harmonic(self):
        # sup/inf over the half ball of 1 + x1 is (1+1/2R)/(1-1/2R) -> 3 at R=1/2
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)  # 2R = 1
        params = CurvatureParams(0.0, 2.0, 0.5)

        def val(p):
            return 1.0 + np.asarray(p, float)[..., 0]

        def deriv(p, frame):
            grad = np.zeros(np.asarray(p).shape)
            grad[..., 0] = 1.0
            return grad, np.zeros(((3,) if frame is not None else ()) + grad.shape[:-1])

        u = ScalarField(g, val(g.points), val, deriv)
        rep = harnack_check_full(params, u, constant_field(g, 0.0))
        assert rep.passed
        # closed form on the node set: (1 + rho_max)/(1 - rho_max) over the
        # half ball, the affine analogue of the textbook ratio 3 at rho = 1/2
        rho_max = float(np.max(g.rho[g.rho <= 0.25]))
        assert rep.diagnostics["sup_over_inf"] == pytest.approx(
            (1 + rho_max) / (1 - rho_max), rel=1e-12)

    def test_solver_produced_hyperbolic(self):
        m = hyperbolic(1.0)
        params = CURVED
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        rng = seeded_rng(8, "harnack-full")
        bnd = 1.0 + 0.3 * np.cos(g.theta) + 0.1 * np.sin(2 * g.theta)
        f = rng.normal(size=g.shape) * 0.05
        u, _ = solve_poisson(DirichletProblem(g, f, bnd))
        assert float(np.min(u.values)) > 0
        rep = harnack_check_full(params, u, ScalarField(g, f), bnd)
        assert rep.passed


    def test_not_solution_rejected(self):
        m, g = _flat_grid()
        u = sum_fields([constant_field(g, 1.0), quadratic_field(g, m.origin(), 0.1)])
        rep = harnack_check_full(FLAT, u, constant_field(g, 0.0))
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Delta_nu u = f nodewise"


class TestGrowth:
    def _well(self, m, grid, r, depth=2.0):
        # dips safely below 1 on the half-ball nodes, stays positive on B_r
        return sum_fields([constant_field(grid, 0.9 + depth * r * r / 8.0),
                           quadratic_field(grid, m.origin(), -depth)])

    @pytest.mark.parametrize("m,params", [
        (euclidean(), CurvatureParams(0.0, 2.0, 1.0)),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0)),
    ], ids=["euclidean", "hyperbolic"])
    def test_superharmonic_pipeline(self, m, params):
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        u = self._well(m, g, 1.0)
        f = constant_field(g, 0.0)
        rep = growth_check(params, u, f, m.origin(), 1.0)
        assert rep.passed, rep.diagnostics
        assert rep.diagnostics["pipeline_pass"]
        assert rep.diagnostics["location_check_pass"]
        assert rep.diagnostics["contact_mass_ratio"] >= rep.diagnostics["contact_mass_bound"]

    def test_trivial_zero_field(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        rep = growth_check(params, constant_field(g, 0.0), constant_field(g, 0.0),
                           m.origin(), 1.0)
        assert rep.passed
        # {u <= M} is everything, so the ratio is the 1/18-ball share
        share = rep.diagnostics["measure_ratio"]
        # node-mask quantization of the tiny 1/18 ball dominates here
        assert share == pytest.approx((1.0 / 18.0) ** 2, rel=0.2)

    def test_premise_violations_named(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        f0 = constant_field(g, 0.0)
        high = sum_fields([constant_field(g, 3.0), quadratic_field(g, m.origin(), -2.0)])
        rep = growth_check(params, high, f0, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "inf_{B_{r/2}} u <= 1"
        neg = quadratic_field(g, m.origin(), -2.0)
        rep = growth_check(params, neg, f0, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "u >= 0 on B_r"
        # an upward paraboloid needs a large forcing, which breaks the
        # f-integral premise while satisfying the pointwise ones
        bowl = quadratic_field(g, m.origin(), 8.0)
        fbig = constant_field(g, 16.0)
        rep = growth_check(params, bowl, fbig, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "I_{K,N}(f, B_r, 1) <= delta0"

    def test_f_integral_premise_on_b_r(self):
        # u and f live on B_2r; f vanishes on B_r, so I_{K,N}(f, B_r, 1) = 0
        # however large f is outside it
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 2.0, 96, 96)
        f = ScalarField(g, np.where(g.rho[:, None] <= 1.0, 0.0, 16.0) * np.ones(g.shape))
        rep = growth_check(params, self._well(m, g, 1.0, depth=0.4), f, m.origin(), 1.0)
        assert "violated_premise" not in rep.diagnostics
        assert rep.passed, rep.diagnostics

    def test_f_integral_premise_about_x0(self):
        # the same f about x0 = (0.9, 0): B_r(x0) reaches into the shell where
        # f = 16, so I_{K,N}(f, B_r(x0), 1) is about 11.9 > delta0
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 2.0, 96, 96)
        f = ScalarField(g, np.where(g.rho[:, None] <= 1.0, 0.0, 16.0) * np.ones(g.shape))
        rep = growth_check(params, constant_field(g, 0.5), f, np.array([0.9, 0.0]), 1.0)
        assert rep.diagnostics["violated_premise"] == "I_{K,N}(f, B_r, 1) <= delta0"

    def test_screen_premises_named(self):
        params = CurvatureParams(0.0, 2.0, 1.0)
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        rep = growth_check(params, self._well(m, g, 1.0), constant_field(g, 0.0),
                           m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on B_r"
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        bowl = quadratic_field(g, m.origin(), 8.0)  # Delta u = 16 > 0
        rep = growth_check(params, bowl, constant_field(g, 0.0), m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "Delta_nu u <= f nodewise"

    def test_ricci_premise_on_off_centre_ball(self):
        # the grid of B_0.5((1.3, 0)) reaches |x| = 1.8, past the gaussian
        # plane's N = 4 premise; every other premise holds for u = 0.5, f = 0
        m = gaussian_plane(1.0)
        params = CurvatureParams(0.0, 4.0, 1.0)
        x0 = np.array([1.3, 0.0])
        g = build_polar_grid(m, x0, 0.5, 48, 48)
        rep = growth_check(params, constant_field(g, 0.5), constant_field(g, 0.0), x0, 0.5)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on B_r"

    @pytest.mark.parametrize("R,n", [(1.0, 8), (2.0, 16)])
    def test_grid_without_a_node_in_the_core_is_refused(self, R, n):
        # the first ring sits at R/(2n) > r/18: B_{r/18} holds no node, and
        # the empty {u <= M} cap B_{r/18} read as a failed growth bound
        m = euclidean()
        g = build_polar_grid(m, m.origin(), R, n, n)
        with pytest.raises(ValueError, match=r"lies in B_\{r/18\}\(x0\), radius 0.0555556"):
            growth_check(CurvatureParams(0.0, 2.0, 1.0), self._well(m, g, 1.0),
                         constant_field(g, 0.0), m.origin(), 1.0)

    def test_operator_premise_screened_before_inf(self):
        # Delta u > 0 and inf_{B_{r/2}} u = 3 > 1: the screen names the operator
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        u = sum_fields([constant_field(g, 3.0), quadratic_field(g, m.origin(), 8.0)])
        rep = growth_check(params, u, constant_field(g, 0.0), m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "Delta_nu u <= f nodewise"


class TestFOnUsGrid:
    """The checks pair Delta_nu u with f node by node, so f must be sampled at
    u's nodes; a field on any other grid is a ValueError, not a verdict."""

    PARAMS = CurvatureParams(0.0, 2.0, 1.0)

    def _u_and_wide_f(self):
        # u on a 96^2 grid of B_1 with Delta u = -4; f on a 96^2 grid of B_2,
        # 0 on B_1 and -5 outside, so Delta u <= f holds on all of B_1
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        u = sum_fields([constant_field(g, 1.15), quadratic_field(g, m.origin(), -2.0)])
        g2 = build_polar_grid(m, m.origin(), 2.0, 96, 96)
        f = ScalarField(g2, np.where(g2.rho[:, None] <= 1.0, 0.0, -5.0) * np.ones(g2.shape))
        return m, g, u, f

    def test_growth_check_rejects_f_on_a_wider_grid(self):
        m, _, u, f = self._u_and_wide_f()
        with pytest.raises(ValueError, match="not sampled on u's grid nodes.*radius 2.*radius 1"):
            growth_check(self.PARAMS, u, f, m.origin(), 1.0)

    def test_growth_check_accepts_f_on_an_equal_grid(self):
        # the same f restricted to B_1, on a second grid built with u's arguments
        m, g, u, _ = self._u_and_wide_f()
        twin = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        assert twin is not g
        rep = growth_check(self.PARAMS, u, constant_field(twin, 0.0), m.origin(), 1.0)
        assert "violated_premise" not in rep.diagnostics
        assert rep.passed, rep.diagnostics

    @pytest.mark.parametrize("check", [
        harnack_check_sup, harnack_check_full,
        lambda params, u, f: harnack_check_sub(params, u, f, build_ledger(params).p0),
    ], ids=["sup", "full", "sub"])
    def test_instance_checks_reject_f_on_another_grid(self, check):
        m, g = _flat_grid()
        other = build_polar_grid(m, m.origin(), g.radius, 64, 96)
        with pytest.raises(ValueError, match="f's grid is 64x96.*u's is 96x96"):
            check(FLAT, constant_field(g, 1.0), constant_field(other, 0.0))

    def test_f_on_the_same_nodes_of_another_model_rejected(self):
        # the gaussian grid has u's node coordinates but other weights
        _, g = _flat_grid()
        mg = gaussian_plane(1.0)
        other = build_polar_grid(mg, mg.origin(), g.radius, 96, 96)
        assert np.array_equal(other.points, g.points)
        with pytest.raises(ValueError, match="f's grid is .*gaussian_plane.*u's is .*euclidean"):
            harnack_check_sup(FLAT, constant_field(g, 1.0), constant_field(other, 0.0))

    @pytest.mark.parametrize("check", [
        harnack_check_sup, harnack_check_full,
        lambda params, u, f: harnack_check_sub(params, u, f, 1.0),
    ], ids=["sup", "full", "sub"])
    def test_r_is_half_the_grid_radius(self, check):
        # R has one source: a grid of radius 4 is B_2R for R = 2, not for R = 0.1
        _, g = _flat_grid(R=2.0)
        u, f = constant_field(g, 1.0), constant_field(g, 0.0)
        with pytest.raises(ValueError, match=r"radius 4\.0, but params\.R = 0\.1 .* radius 0\.2"):
            check(CurvatureParams(0.0, 2.0, 0.1), u, f)
        assert check(CurvatureParams(0.0, 2.0, 2.0), u, f).passed
