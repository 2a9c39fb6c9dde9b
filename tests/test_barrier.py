import math

import numpy as np
import pytest

from abplab.barrier import (BarrierSpec, barrier_dh, barrier_d2h, barrier_field,
                            barrier_h, barrier_psi, check_ricci_comparison,
                            junction_residuals, verify_barrier)
from abplab.constants import CurvatureParams, build_ledger
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere


class TestBarrierH:
    def test_flat_slope_at_zero(self):
        assert barrier_dh(BarrierSpec(2.0), 0.0) == 0.0
        assert barrier_dh(BarrierSpec(7.3), 0.0) == 0.0

    def test_junction_vanishes_from_both_sides(self):
        sp = BarrierSpec(2.0)
        j = sp.junction
        cubic = sp.beta0 + sp.beta1 * j * j + sp.beta2 * j**3
        tail = 18.0**2 - j ** (-2.0)
        assert cubic == pytest.approx(0.0, abs=1e-9)
        assert tail == pytest.approx(0.0, abs=1e-9)

    def test_tail_values(self):
        sp = BarrierSpec(2.0)
        assert barrier_h(sp, 0.5) == pytest.approx(18.0**2 - 2.0**2, abs=1e-12)
        assert barrier_h(sp, 0.75) == pytest.approx(18.0**2 - (4.0 / 3.0) ** 2, abs=1e-12)

    def test_beta0_bound(self):
        sp = BarrierSpec(2.0)
        assert sp.beta0 == pytest.approx(-756.0, abs=1e-12)
        assert sp.beta0 >= -sp.alpha**2 * 18.0**sp.alpha

    @pytest.mark.parametrize("alpha", [2.0, 3.1, 5.0, 10.0])
    def test_c2_junction(self, alpha):
        sp = BarrierSpec(alpha)
        res = junction_residuals(sp)
        scale = max(1.0, abs(barrier_d2h(sp, sp.junction)))
        assert all(x <= 1e-8 * scale for x in res)

    @pytest.mark.parametrize("alpha", [2.0, 3.1, 5.0, 10.0])
    def test_monotone_increasing(self, alpha):
        sp = BarrierSpec(alpha)
        t = np.linspace(0.0, 3.0, 4000)
        assert np.all(barrier_dh(sp, t) >= -1e-12)
        hv = barrier_h(sp, t)
        assert float(np.min(hv)) == pytest.approx(sp.beta0, abs=1e-12)

    def test_tail_derivative_identities(self):
        # symbolic forms on the tail: h'' - h'/t = -a(a+2) t^{-(a+2)},
        # h'/t = a t^{-(a+2)}
        sp = BarrierSpec(3.1)
        a = sp.alpha
        for t in (0.08, 0.2, 0.5, 1.3):
            assert barrier_dh(sp, t) / t == pytest.approx(a * t ** (-(a + 2)), rel=1e-13)
            got = barrier_d2h(sp, t) - barrier_dh(sp, t) / t
            assert got == pytest.approx(-a * (a + 2) * t ** (-(a + 2)), rel=1e-13)

    def test_core_quantitative_bounds(self):
        sp = BarrierSpec(4.0)
        a = sp.alpha
        t = np.linspace(1e-9, sp.junction, 2000)
        ratio = barrier_dh(sp, t) / t
        assert np.all(ratio > 0)
        assert float(np.max(ratio)) <= 972.0 * a * a * 18.0**a
        assert float(np.max(np.abs(barrier_d2h(sp, t) - ratio))) <= 972.0 * a * a * 18.0**a

    def test_alpha_floor(self):
        with pytest.raises(ValueError, match=">= 2"):
            BarrierSpec(1.5)

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError, match="positive"):
            BarrierSpec(2.0, euclidean(), np.zeros(2), r)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            barrier_h(BarrierSpec(2.0), -0.1)


class TestBarrierPsi:
    def test_center_value(self):
        m = euclidean()
        sp = BarrierSpec(2.0, m, m.origin(), 1.0)
        assert barrier_psi(sp, m.origin()) == pytest.approx(sp.beta0, abs=1e-12)

    def test_radial_values(self):
        m = euclidean()
        sp = BarrierSpec(2.0, m, m.origin(), 1.0)
        assert barrier_psi(sp, np.array([0.5, 0.0])) == pytest.approx(320.0, abs=1e-12)
        assert barrier_psi(sp, np.array([0.0, 0.75])) == pytest.approx(
            18.0**2 - (4.0 / 3.0) ** 2, abs=1e-12)

    def test_field_matches_pointwise(self):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 32, 32)
        sp = BarrierSpec(3.0, m, m.origin(), 1.0)
        f = barrier_field(g, sp)
        assert f.check_consistency() < 1e-9
        assert np.allclose(f.values, barrier_psi(sp, g.points), atol=1e-10)


class TestVerifyBarrier:
    def test_euclid_flat_alpha2(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        reports = verify_barrier(BarrierSpec(2.0, m, m.origin(), 1.0), params)
        assert [r.name for r in reports] == ["barrier-inf", "barrier-derivatives",
                                             "barrier-inside", "barrier-outside"]
        assert all(r.passed for r in reports)

    def test_hyperbolic_with_ledger_alpha(self):
        m = hyperbolic(1.0)
        params = CurvatureParams(1.0, 2.0, 1.0)
        alpha = build_ledger(params).alpha
        reports = verify_barrier(BarrierSpec(alpha, m, m.origin(), 1.0), params)
        assert all(r.passed for r in reports)
        inside = next(r for r in reports if r.name == "barrier-inside")
        # the 4^alpha variant of the inside bound is recorded for comparison
        assert inside.diagnostics["stated_variant_4_alpha"] < inside.rhs


class TestRicciComparison:
    @pytest.mark.parametrize("m,params,rad", [
        (euclidean(), CurvatureParams(0.0, 2.0, 1.0), 2.0),
        (sphere(1.0), CurvatureParams(0.0, 2.0, 1.0), 1.5),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0), 2.0),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 1.0), 0.6),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_models(self, m, params, rad):
        y = np.array([0.3, 0.2]) if m.kind == "gaussian_plane" else m.origin()
        rep = check_ricci_comparison(m, params, y, rad)
        assert rep.passed, rep.diagnostics

    def test_euclid_equality(self):
        rep = check_ricci_comparison(euclidean(), CurvatureParams(0.0, 2.0, 1.0),
                                     np.zeros(2), 1.0)
        assert rep.diagnostics["max_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_sphere_cotangent_oracle(self):
        # calculus oracle: rho cot(rho) <= 1 makes 1 + rho cot(rho) <= 2
        rho = np.linspace(1e-6, math.pi / 2 - 1e-6, 5000)
        assert np.all(rho / np.tan(rho) <= 1.0 + 1e-12)
