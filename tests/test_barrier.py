import math

import numpy as np
import pytest

from abplab import barrier
from abplab.barrier import (BarrierSpec, barrier_dh, barrier_d2h, barrier_field,
                            barrier_h, check_ricci_comparison, junction_residuals,
                            verify_barrier)
from abplab.constants import CurvatureParams, build_ledger
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere


class TestBarrierH:
    def test_flat_slope_at_zero(self):
        assert barrier_dh(BarrierSpec(2.0), 0.0) == 0.0
        assert barrier_dh(BarrierSpec(7.3), 0.0) == 0.0

    def test_junction_vanishes_from_both_sides(self):
        sp = BarrierSpec(2.0)
        j = 1.0 / 18.0
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
        scale = max(1.0, abs(barrier_d2h(sp, 1.0 / 18.0)))
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
        t = np.linspace(1e-9, 1.0 / 18.0, 2000)
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


def _psi(sp, p):
    """psi(p) = h(rho(x0, p)/r), the barrier on the ball."""
    return barrier_h(sp, sp.model.distance(sp.center, np.asarray(p, float)) / sp.r)


class TestBarrierPsi:
    def test_center_value(self):
        m = euclidean()
        sp = BarrierSpec(2.0, m, m.origin(), 1.0)
        assert _psi(sp, m.origin()) == pytest.approx(sp.beta0, abs=1e-12)

    def test_radial_values(self):
        m = euclidean()
        sp = BarrierSpec(2.0, m, m.origin(), 1.0)
        assert _psi(sp, [0.5, 0.0]) == pytest.approx(320.0, abs=1e-12)
        assert _psi(sp, [0.0, 0.75]) == pytest.approx(18.0**2 - (4.0 / 3.0) ** 2, abs=1e-12)

    def test_field_matches_pointwise(self):
        m = hyperbolic(1.0)
        g = build_polar_grid(m, m.origin(), 1.0, 32, 32)
        sp = BarrierSpec(3.0, m, m.origin(), 1.0)
        f = barrier_field(g, sp)
        assert np.max(np.abs(f.value(g.points) - f.values)) < 1e-9
        assert np.allclose(f.values, _psi(sp, g.points), atol=1e-10)

    def test_field_refuses_a_spec_on_another_model(self):
        # the field is built on the grid's model, so a spec on another one
        # would silently become the grid model's barrier
        g = build_polar_grid(euclidean(), euclidean().origin(), 1.0, 16, 16)
        m = hyperbolic(1.0)
        with pytest.raises(ValueError, match="the barrier is on the hyperbolic model .*"
                                             "but the grid is on the euclidean model"):
            barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0))

    def test_field_accepts_an_equal_model(self):
        m = euclidean()
        g = build_polar_grid(m, m.origin(), 1.0, 16, 16)
        f = barrier_field(g, BarrierSpec(3.0, euclidean(), m.origin(), 1.0))
        assert np.array_equal(f.values, barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0)).values)


class TestVerifyBarrier:
    def test_euclid_flat_alpha2(self):
        m = euclidean()
        params = CurvatureParams(0.0, 2.0, 1.0)
        reports = verify_barrier(BarrierSpec(2.0, m, m.origin(), 1.0), params)
        assert [r.name for r in reports] == ["barrier-inf", "barrier-derivatives",
                                             "barrier-inside", "barrier-outside"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("N", [2.0, 60.0, 70.0, 100.0, 200.0])
    def test_tail_identity_within_its_rounding(self, N):
        # divided by a 18^a, the tail residual read 3.6e-12 > 1e-12 at N = 70
        # and 3.6e-45 at N = 200; relative to the identity's own terms it is
        # rounding at every N
        m = euclidean()
        rep = verify_barrier(BarrierSpec(N, m, m.origin(), 1.0), CurvatureParams(0.0, N, 1.0))[1]
        assert rep.name == "barrier-derivatives" and rep.passed
        assert rep.lhs <= 0.5 * np.finfo(float).eps and rep.rhs == 4.5 * np.finfo(float).eps

    @pytest.mark.parametrize("N", [2.0, 70.0, 100.0])
    def test_perturbed_second_derivative_fails(self, N, monkeypatch):
        # h'' off by a relative 1e-12 on the tail breaks the identity far
        # beyond its rounding
        (c0, t0), (c1, t1), (c2, t2) = barrier._PIECES
        monkeypatch.setattr(barrier, "_PIECES",
                            ((c0, t0), (c1, t1), (c2, lambda s, t: t2(s, t) * (1.0 + 1e-12))))
        m = euclidean()
        rep = verify_barrier(BarrierSpec(N, m, m.origin(), 1.0), CurvatureParams(0.0, N, 1.0))[1]
        assert not rep.passed and rep.lhs > 1e-13

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
