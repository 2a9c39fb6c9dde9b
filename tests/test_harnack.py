import math

import numpy as np
import pytest

from abplab.constants import CurvatureParams, build_ledger
from abplab.fields import ScalarField, constant_field, quadratic_field, sum_fields
from abplab.geometry import build_polar_grid, euclidean, hyperbolic
from abplab.harnack import (HarnackInstance, growth_check, harnack_check_full,
                            harnack_check_sub, harnack_check_sup, log_lp_average)
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
        ledger = build_ledger(FLAT)
        inst = HarnackInstance(m, FLAT, g, constant_field(g, 1.0), constant_field(g, 0.0))
        rep = harnack_check_sup(inst, ledger)
        assert rep.passed
        assert rep.diagnostics["sharpness"] == "non-sharp"

    def test_supersolution_paraboloid(self):
        # u = 4.05 - |x|^2 on B_2 with Delta u = -2, a strict supersolution of 0
        m, g = _flat_grid()
        u = sum_fields([constant_field(g, 4.05), quadratic_field(g, m.origin(), -0.5)])
        inst = HarnackInstance(m, FLAT, g, u, constant_field(g, 0.0))
        rep = harnack_check_sup(inst, build_ledger(FLAT))
        assert rep.passed

    def test_negative_u_rejected(self):
        m, g = _flat_grid()
        u = sum_fields([constant_field(g, 0.5), quadratic_field(g, m.origin(), -0.5)])
        rep = harnack_check_sup(HarnackInstance(m, FLAT, g, u, constant_field(g, 0.0)),
                                build_ledger(FLAT))
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "u >= 0 on B_2R"

    def test_not_supersolution_rejected(self):
        m, g = _flat_grid()
        u = quadratic_field(g, m.origin(), 1.0)  # Delta u = 2 > 0
        rep = harnack_check_sup(HarnackInstance(m, FLAT, g, u, constant_field(g, 0.0)),
                                build_ledger(FLAT))
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Delta_nu u <= f nodewise"

    def test_ricci_premise_rejected(self):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        bad = CurvatureParams(0.0, 2.0, 0.5)
        rep = harnack_check_sup(HarnackInstance(m, bad, g, constant_field(g, 1.0),
                                                constant_field(g, 0.0)),
                                build_ledger(bad))
        assert not rep.passed
        assert "Ric" in rep.diagnostics["violated_premise"]


class TestSubCheck:
    def test_trivial_constant(self):
        m, g = _flat_grid()
        inst = HarnackInstance(m, FLAT, g, constant_field(g, 1.0), constant_field(g, 0.0))
        assert harnack_check_sub(inst, build_ledger(FLAT), p=1.0).passed

    def test_quadratic_subsolution(self):
        m, g = _flat_grid()
        u = quadratic_field(g, m.origin(), 2.0)  # Delta u = 4
        inst = HarnackInstance(m, FLAT, g, u, constant_field(g, 4.0))
        assert harnack_check_sub(inst, build_ledger(FLAT), p=1.0).passed

    def test_p_at_p0(self):
        m, g = _flat_grid()
        ledger = build_ledger(FLAT)
        u = quadratic_field(g, m.origin(), 2.0)
        inst = HarnackInstance(m, FLAT, g, u, constant_field(g, 4.0))
        assert harnack_check_sub(inst, ledger, p=ledger.p0).passed

    def test_small_p_unsupported(self):
        m, g = _flat_grid()
        ledger = build_ledger(FLAT)
        inst = HarnackInstance(m, FLAT, g, constant_field(g, 1.0), constant_field(g, 0.0))
        rep = harnack_check_sub(inst, ledger, p=0.5 * ledger.p0)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "p >= p0"
        assert "unsupported_p" in rep.diagnostics


class TestFullCheck:
    def test_affine_positive_harmonic(self):
        # sup/inf over the half ball of 1 + x1 is (1+1/2R)/(1-1/2R) -> 3 at R=1/2
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)  # 2R = 1
        params = CurvatureParams(0.0, 2.0, 0.5)

        def val(p):
            return 1.0 + np.asarray(p, float)[..., 0]

        def deriv(p, hessian):
            grad = np.zeros(np.asarray(p).shape)
            grad[..., 0] = 1.0
            return (grad, np.zeros(np.asarray(p).shape + (2,))) if hessian else grad

        u = ScalarField(g, val(g.points), val, deriv)
        inst = HarnackInstance(m, params, g, u, constant_field(g, 0.0))
        rep = harnack_check_full(inst, build_ledger(params))
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
        inst = HarnackInstance(m, params, g, u, ScalarField(g, f), boundary=bnd)
        rep = harnack_check_full(inst, build_ledger(params))
        assert rep.passed


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
        ledger = build_ledger(params)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        u = self._well(m, g, 1.0)
        f = constant_field(g, 0.0)
        rep = growth_check(m, params, ledger, u, f, m.origin(), 1.0)
        assert rep.passed, rep.diagnostics
        assert rep.diagnostics["pipeline_pass"]
        assert rep.diagnostics["location_check_pass"]
        assert rep.diagnostics["contact_mass_ratio"] >= rep.diagnostics["contact_mass_bound"]

    def test_trivial_zero_field(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        rep = growth_check(m, params, build_ledger(params),
                           constant_field(g, 0.0), constant_field(g, 0.0),
                           m.origin(), 1.0)
        assert rep.passed
        # {u <= M} is everything, so the ratio is the 1/18-ball share
        share = rep.diagnostics["measure_ratio"]
        # node-mask quantization of the tiny 1/18 ball dominates here
        assert share == pytest.approx((1.0 / 18.0) ** 2, rel=0.2)

    def test_premise_violations_named(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        ledger = build_ledger(params)
        g = build_polar_grid(m, m.origin(), 1.0, 96, 96)
        f0 = constant_field(g, 0.0)
        high = sum_fields([constant_field(g, 3.0), quadratic_field(g, m.origin(), -2.0)])
        rep = growth_check(m, params, ledger, high, f0, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "inf_{B_{r/2}} u <= 1"
        neg = quadratic_field(g, m.origin(), -2.0)
        rep = growth_check(m, params, ledger, neg, f0, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "u >= 0 on B_r"
        # an upward paraboloid needs a large forcing, which breaks the
        # f-integral premise while satisfying the pointwise ones
        bowl = quadratic_field(g, m.origin(), 8.0)
        fbig = constant_field(g, 16.0)
        rep = growth_check(m, params, ledger, bowl, fbig, m.origin(), 1.0)
        assert rep.diagnostics["violated_premise"] == "I_{K,N}(f, B_2R, 1) <= delta0"
