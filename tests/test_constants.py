import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abplab.constants import (CurvatureParams, build_ledger, calH, calS,
                              verify_ledger)
from abplab.geometry import gaussian_plane, hyperbolic, sphere


class TestSpecialFunctions:
    def test_limits_at_zero(self):
        assert calH(0.0) == 1.0
        assert calS(0.0) == 1.0

    def test_product_is_cosh(self):
        assert calS(1.0) * calH(1.0) == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_direct_values(self):
        # 2 coth(2) through the quotient of cosh and sinh
        assert calH(2.0) == pytest.approx(2.0 * math.cosh(2.0) / math.sinh(2.0), abs=1e-14)
        assert calS(2.0) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-14)

    def test_series_matches_formula_near_switch(self):
        for t in (9.9e-5, 1.01e-4):
            assert calH(t) == pytest.approx(t / math.tanh(t), abs=1e-14)
            assert calS(t) == pytest.approx(math.sinh(t) / t, abs=1e-14)

    def test_linear_bound(self):
        t = np.linspace(0.0, 20.0, 2000)
        assert np.all(calH(t) <= 1.0 + t + 1e-12)

    def test_monotone_increasing(self):
        t = np.linspace(1e-6, 10.0, 1000)
        assert np.all(np.diff(calH(t)) > 0)
        assert np.all(np.diff(calS(t)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            calH(-0.5)
        with pytest.raises(ValueError):
            calS(-1e-9)

    @given(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_cosh_identity_property(self, t):
        assert calS(t) * calH(t) == pytest.approx(math.cosh(t), rel=1e-12)

    def test_exact_forms_match_mpmath_near_zero(self):
        # t / tanh t and sinh t / t, read as 1 at t = 0 alone, hold to 2 eps
        # from 1e-12 to 1e-2, with no switch of form about t = 1e-4
        t = np.concatenate([np.logspace(-12, -2, 101), 1e-4 * (1.0 + np.array([-1e-12, 1e-12]))])
        with mpmath.workdps(40):
            H = [float(mpmath.mpf(x) / mpmath.tanh(x)) for x in t]
            S = [float(mpmath.sinh(x) / mpmath.mpf(x)) for x in t]
        eps = np.finfo(float).eps
        np.testing.assert_allclose(calH(t), H, rtol=2 * eps, atol=0.0)
        np.testing.assert_allclose(calS(t), S, rtol=2 * eps, atol=0.0)

    def test_nan_stays_nan(self):
        assert math.isnan(calH(math.nan)) and math.isnan(calS(math.nan))
        assert np.isnan(calH(np.array([0.0, math.nan]))).tolist() == [False, True]


class TestRicciViolation:
    @pytest.mark.parametrize("k", [1e-16, 1e-14, 1e-12, 1.0, 1e12])
    def test_the_hyperboloid_needs_its_curvature(self, k):
        # Ric = -k g: K = 0 fails by k at every scale, K = k holds exactly
        m = hyperbolic(k)
        o = m.origin()
        assert CurvatureParams(0.0, 2.0, 1.0).ricci_violation(m, o, 1.0) == k
        assert CurvatureParams(k, 2.0, 1.0).ricci_violation(m, o, 1.0) == 0.0
        assert CurvatureParams(k * (1.0 - 1e-12), 2.0, 1.0).ricci_violation(m, o, 1.0) > 0.0

    def test_nonnegative_curvature_needs_no_k(self):
        for m in (sphere(1e-16), sphere(1e12)):
            assert CurvatureParams(0.0, 2.0, 1.0).ricci_violation(m, m.origin(), 1.0) == 0.0

    @pytest.mark.parametrize("lam,N,radius", [(3.0, 5.0, 1.1), (0.7, 4.5, 3.3), (1.0, 2.5, 0.9),
                                              (1e-8, 3.0, 2e4), (1e8, 3.0, 2e-4)])
    def test_weighted_edge_holds_to_its_rounding(self, lam, N, radius):
        # K at the exact requirement lam^2 reach^2/(N - 2) - lam, rounded
        # once, passes from an off-origin centre; a K short of it by a
        # relative 1e-12 fails
        m = gaussian_plane(lam)
        c = np.array([0.3, -0.2]) * radius
        with mpmath.workdps(40):
            reach = mpmath.mpf(radius) + mpmath.sqrt(mpmath.mpf(c[0]) ** 2 + mpmath.mpf(c[1]) ** 2)
            K = float(lam * lam * reach ** 2 / (N - 2) - lam)
        assert K > 0.0
        assert CurvatureParams(K, N, 1.0).ricci_violation(m, c, radius) == 0.0
        assert CurvatureParams(K * (1.0 - 1e-12), N, 1.0).ricci_violation(m, c, radius) > 0.0


class TestBuildLedger:
    def test_flat_reference_values(self):
        lg = build_ledger(CurvatureParams(0.0, 2.0, 1.0))
        assert lg.omega == 0.0
        assert lg.doubling_r == pytest.approx(4.0, rel=1e-14)
        assert lg.eta == 1.0
        assert lg.alpha == 2.0
        assert lg.big_m == pytest.approx(2.0 * 4.0 * 18.0**2, rel=1e-14)  # 2592
        assert lg.delta0 == pytest.approx(1.0 / 32.0, abs=1e-16)

    def test_curved_alpha(self):
        lg = build_ledger(CurvatureParams(1.0, 2.0, 1.0))
        expect = 2.0 * math.sqrt(2.0) / math.tanh(math.sqrt(2.0))
        assert lg.alpha == pytest.approx(expect, abs=1e-13)

    def test_p1_coupling(self):
        lg = build_ledger(CurvatureParams(0.5, 3.0, 1.5))
        assert lg.p1 == pytest.approx(lg.p0 / (3.0 * lg.eta), rel=1e-14)

    def test_flat_collapse_r_independent(self, rng):
        base = build_ledger(CurvatureParams(0.0, 3.0, 1.0))
        for _ in range(10):
            lg = build_ledger(CurvatureParams(0.0, 3.0, rng.uniform(0.1, 5.0)))
            assert lg.eta == 1.0
            assert lg.alpha == 3.0
            assert lg.doubling_4r == pytest.approx(8.0, rel=1e-14)
            assert lg.p0 == pytest.approx(base.p0, rel=1e-12)
            assert lg.log_c2 == pytest.approx(base.log_c2, rel=1e-12)

    def test_scale_coupling(self, rng):
        # everything depends on K, R only through sqrt(K) R
        a = build_ledger(CurvatureParams(1.3, 3.0, 0.8))
        for _ in range(5):
            c = rng.uniform(0.3, 3.0)
            b = build_ledger(CurvatureParams(c * c * 1.3, 3.0, 0.8 / c))
            for key in ("eta", "alpha", "log_mu", "log_big_m", "log_delta0",
                        "p0", "p1", "log_c3", "log_c0", "log_c2"):
                va, vb = getattr(a, key), getattr(b, key)
                assert vb == pytest.approx(va, rel=1e-12), key

    @pytest.mark.parametrize("R", [1e308, 2e307])
    def test_radius_past_float64_refused_by_name(self, R):
        # D_(K,N,4R) reads 16 R, inf here, and at K = 0 its log read
        # inf * 0 = nan: five ledger checks FAILed at lhs = nan
        message = f"16R leaves the float64 range for R = {R:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_ledger(CurvatureParams(0.0, 2.0, R))
        assert math.isfinite(build_ledger(CurvatureParams(0.0, 2.0, 1e307)).doubling_4r)

    def test_infinite_n_rejected(self):
        with pytest.raises(ValueError, match="N < inf"):
            build_ledger(CurvatureParams(0.0, math.inf, 1.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CurvatureParams(-0.1, 2.0, 1.0)
        with pytest.raises(ValueError):
            CurvatureParams(0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            CurvatureParams(0.0, 2.0, 0.0)


class TestVerifyLedger:
    def test_flat_all_pass(self):
        reports = verify_ledger(build_ledger(CurvatureParams(0.0, 2.0, 1.0)))
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    def test_identity_residual_on_grid(self):
        for K in (0.0, 1.0, 2.0):
            for N in (2.0, 3.5, 5.0):
                for R in (0.5, 1.0, 2.0):
                    reports = verify_ledger(build_ledger(CurvatureParams(K, N, R)))
                    ident = next(r for r in reports if r.name == "ledger-identity-e")
                    assert abs(ident.lhs - math.e) <= 1e-10, (K, N, R)

    def test_delta0_proof_form(self):
        # e^{1/p0} delta0 >= 1, i.e. -log delta0 <= 1/p0, p0 computed first
        lg = build_ledger(CurvatureParams(0.0, 2.0, 1.0))
        assert lg.p0 > 0
        assert -math.log(lg.delta0) <= 1.0 / lg.p0

    def test_divergent_series_guarded(self):
        lg = build_ledger(CurvatureParams(0.0, 2.0, 1.0))
        broken = dataclasses.replace(lg, p0=1.0)
        with pytest.raises(ValueError, match="diverges"):
            verify_ledger(broken)

    def test_c3_gap_strict(self, rng):
        for _ in range(8):
            params = CurvatureParams(rng.uniform(0.0, 2.0), rng.uniform(2.0, 5.0),
                                     rng.uniform(0.5, 2.0))
            gap = next(r for r in verify_ledger(build_ledger(params))
                       if r.name == "ledger-c3-gap")
            assert gap.passed and gap.lhs < 0.0
