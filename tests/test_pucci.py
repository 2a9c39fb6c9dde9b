import math

import numpy as np
import pytest

from abplab.geometry import euclidean, gaussian_plane, hyperbolic, sphere
from abplab.pucci import (e_theta, e_theta_bounds,
                          extremal_form_gap, pucci, pucci_contact_bound)
from abplab.report import seeded_rng


class TestPucciOperator:
    def test_identity_matrix(self):
        for th in (1.0, 2.0, 5.0):
            assert pucci(np.eye(2), th) == (2.0, 2.0 * th)

    def test_theta_one_collapses_to_trace(self):
        rng = seeded_rng(1, "collapse")
        for _ in range(50):
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            mm, mp = pucci(H, 1.0)
            assert mm == pytest.approx(np.trace(H), abs=1e-12)
            assert mp == pytest.approx(np.trace(H), abs=1e-12)

    def test_mixed_signature(self):
        assert pucci(np.diag([1.0, -1.0]), 2.0) == (-1.0, 1.0)

    def test_batch_shape(self):
        H = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        mm, mp = pucci(H, 2.0)
        assert mm.shape == (2,) and list(mm) == [2.0, -1.0]

    def test_asymmetric_rejected(self):
        H = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            pucci(H, 2.0)

    def test_algebra_identities_thousand(self):
        rng = seeded_rng(12, "pucci-algebra")
        for _ in range(1000):
            th = 1.0 + 3.0 * rng.uniform()
            A = rng.normal(size=(2, 2))
            A = 0.5 * (A + A.T)
            B = rng.normal(size=(2, 2))
            B = 0.5 * (B + B.T)
            am, ap = pucci(A, th)
            bm, bp = pucci(B, th)
            sm, sp = pucci(A + B, th)
            # negation duality, trace bracketing, super/subadditivity
            assert am == pytest.approx(-pucci(-A, th)[1], abs=1e-12)
            assert am <= np.trace(A) + 1e-12 <= ap + 2e-12
            assert sm >= am + bm - 1e-10
            assert sp <= ap + bp + 1e-10
            # monotonicity under a PSD bump
            P = rng.normal(size=(2, 2))
            P = P @ P.T
            cm, cp = pucci(A + P, th)
            assert cm >= am - 1e-10 and cp >= ap - 1e-10

    def test_envelope_form(self):
        rng = seeded_rng(13, "pucci-envelope")
        for _ in range(5):
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            gaps = extremal_form_gap(H, 1.0 + 2.0 * rng.uniform(), rng, n_samples=200)
            assert max(gaps.values()) < 1e-9

    def test_params_validation(self):
        with pytest.raises(ValueError):
            pucci(np.eye(2), 0.5)


class TestETheta:
    def test_euclidean_value(self):
        assert e_theta(euclidean(), 1.0, 3.0) == pytest.approx(4.0, abs=1e-14)

    def test_sphere_supremum_at_origin(self):
        assert e_theta(sphere(1.0), 1.2, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_hyperbolic_growth(self):
        got = e_theta(hyperbolic(1.0), 1.0, 2.0)
        assert got == pytest.approx(1.0 + 1.0 / math.tanh(1.0), abs=1e-13)

    @pytest.mark.parametrize("m,K,Ks", [
        (euclidean(), 0.0, 0.0),
        (sphere(1.0), 0.0, 0.0),
        (hyperbolic(1.0), 1.0, 1.0),
        (gaussian_plane(1.0), 0.0, 0.0),
    ], ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_respects_comparison_bounds(self, m, K, Ks):
        for r in (0.5, 1.0, 1.4):
            if r >= m.cut_radius:
                continue
            for th in (1.0, 2.0, 4.0):
                val = e_theta(m, r, th)
                br, bs = e_theta_bounds(m, r, th, K, Ks)
                assert val <= br + 1e-12
                assert val <= bs + 1e-12

    def test_cut_radius_guard(self):
        with pytest.raises(ValueError):
            e_theta(sphere(1.0), 4.0, 2.0)


class TestContactBound:
    def test_trivial_zero_hessian(self):
        rep = pucci_contact_bound(np.zeros((2, 2)), np.eye(2), 1.5, 3.0)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.5 * (3.0 - 1.0) * 2.0, abs=1e-12)

    def test_theta_one_zero_slack_isotropic(self):
        # with theta = 1 and an isotropic distance Hessian the chain is an
        # exact trace identity
        S = np.array([[0.7, 0.2], [0.2, -0.1]])
        H = 2.0 * np.eye(2)
        a = 1.0
        rep = pucci_contact_bound(S + 5 * np.eye(2) - a * H, H, a, 1.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)

    def test_thousand_seeded_conditioned_pairs(self):
        rng = seeded_rng(14, "contact-bound")
        for _ in range(1000):
            W = rng.normal(size=(2, 2))
            W = W @ W.T
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            a = rng.uniform(0.1, 3.0)
            rep = pucci_contact_bound(W - a * H, H, a, 1.0 + 3.0 * rng.uniform())
            assert rep.passed

    def test_contact_violation_reported(self):
        rep = pucci_contact_bound(-np.eye(2), np.zeros((2, 2)), 1.0, 2.0)
        assert not rep.passed
        assert "violated_premise" in rep.diagnostics
