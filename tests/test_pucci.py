import math

import numpy as np
import pytest

from abplab.geometry import euclidean, gaussian_plane, hyperbolic, sphere
from abplab.pucci import check_algebra, e_theta, e_theta_bounds, pucci, pucci_contact_bound
from abplab.report import seeded_rng


def extremal_form_gap(H, theta: float, rng, n_samples: int = 200) -> dict:
    """Stress the inf/sup envelope form of the extremal operators.

    Random admissible A = Q diag(unif[1, theta]) Q^T give tr(A H) inside
    [M^-, M^+]; the eigenbasis-diagonal extremal choice attains each end.
    """
    H = np.asarray(H, float)
    mm, mp = pucci(H, theta)
    Q, _ = np.linalg.qr(rng.normal(size=(n_samples, 2, 2)))
    A = (Q * rng.uniform(1.0, theta, size=(n_samples, 1, 2))) @ np.swapaxes(Q, -1, -2)
    t = np.einsum("nij,ji->n", A, H)
    lam, V = np.linalg.eigh(0.5 * (H + H.T))
    A_min = V @ np.diag(np.where(lam < 0, theta, 1.0)) @ V.T
    A_max = V @ np.diag(np.where(lam >= 0, theta, 1.0)) @ V.T
    return {
        "worst_below_minus": float(np.max(mm - t, initial=0.0)),
        "worst_above_plus": float(np.max(t - mp, initial=0.0)),
        "attain_minus_gap": abs(float(np.trace(A_min @ H)) - mm),
        "attain_plus_gap": abs(float(np.trace(A_max @ H)) - mp),
    }


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


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

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (), (4, 2, 3)])
    def test_not_2x2_rejected(self, shape):
        with pytest.raises(ValueError, match="2x2"):
            pucci(np.zeros(shape), 2.0)


class TestStackedPucci:
    @staticmethod
    def _stack():
        """Generic symmetric, diagonal (equal, zero and distinct entries),
        near-multiples of I, exact multiples of I and near-singular matrices."""
        rng = seeded_rng(15, "pucci-stack")
        S = _sym(rng.normal(size=(400, 2, 2)))
        d = rng.normal(size=(200, 2))
        d[:50, 1] = d[:50, 0]
        d[50:70, 0] = 0.0
        diag = d[:, :, None] * np.eye(2)
        c = rng.normal(size=(200, 1, 1))
        near = c * np.eye(2) + 1e-9 * S[:200]
        near[:20] = c[:20] * np.eye(2)
        v = rng.normal(size=(200, 2))
        singular = v[:, :, None] * v[:, None, :] + 1e-12 * S[200:]
        return np.concatenate([S, diag, near, singular])

    @pytest.mark.parametrize("scale", [1e-20, 1e-10, 1.0, 1e10, 1e20])
    @pytest.mark.parametrize("theta", [1.0, 2.5])
    def test_matches_eigvalsh(self, scale, theta):
        H = scale * self._stack()
        mm, mp = pucci(H, theta)
        lam = np.linalg.eigvalsh(H)
        pos = np.sum(np.maximum(lam, 0.0), axis=-1)
        neg = np.sum(np.minimum(lam, 0.0), axis=-1)
        # each eigenvalue to 2 ulps of the matrix's scale, weighted by theta
        tol = 4.0 * (1.0 + theta) * np.finfo(float).eps * np.max(np.abs(lam), axis=-1)
        assert np.all(np.abs(mm - (pos + theta * neg)) <= tol)
        assert np.all(np.abs(mp - (neg + theta * pos)) <= tol)

    def test_stack_matches_single_matrices(self):
        H = self._stack()[::40]
        mm, mp = pucci(H, 2.0)
        assert [pucci(h, 2.0) for h in H] == list(zip(mm.tolist(), mp.tolist()))

    def test_asymmetry_anywhere_in_stack_rejected(self):
        H = np.stack([np.eye(2)] * 5)
        H[3, 0, 1] = 1e-9
        with pytest.raises(ValueError, match="asymmetry"):
            pucci(H, 2.0)


class TestCheckAlgebra:
    @staticmethod
    def _draws(n, seed=3):
        A, B, P = seeded_rng(seed, "check-algebra").normal(size=(3, n, 2, 2))
        return _sym(A), _sym(B), P @ np.swapaxes(P, -1, -2)

    def test_matches_per_sample_loop(self):
        # the running maxima of one pucci call per sample, as a reference
        A, B, P = self._draws(300)
        th = 2.0
        worst = dict.fromkeys(["monotone", "negation", "subadd_plus", "superadd_minus",
                               "theta1_collapse", "trace_bracket"], 0.0)
        for a, b, p in zip(A, B, P):
            am, ap = pucci(a, th)
            bm, bp = pucci(b, th)
            sm, sp = pucci(a + b, th)
            cm, cp = pucci(a + p, th)
            m1m, m1p = pucci(a, 1.0)
            tr = a[0, 0] + a[1, 1]
            worst["negation"] = max(worst["negation"], abs(am + pucci(-a, th)[1]))
            worst["trace_bracket"] = max(worst["trace_bracket"], am - tr, tr - ap)
            worst["monotone"] = max(worst["monotone"], am - cm, ap - cp)
            worst["superadd_minus"] = max(worst["superadd_minus"], am + bm - sm)
            worst["subadd_plus"] = max(worst["subadd_plus"], sp - ap - bp)
            worst["theta1_collapse"] = max(worst["theta1_collapse"], abs(m1m - tr), abs(m1p - tr))
        reports = check_algebra(A, B, P, th)
        assert [r.name for r in reports] == [f"pucci-{k}" for k in worst]
        assert [r.lhs for r in reports] == list(worst.values())
        for r in reports:
            assert r.passed and r.rhs == 0.0 and r.abs_tol == 1e-10
            assert r.anchor == "extremal-operator-algebra" and r.diagnostics == {"samples": 300}

    def test_violation_named(self):
        # P = -I breaks monotonicity and nothing else
        A, B, _ = self._draws(50)
        P = np.broadcast_to(-np.eye(2), A.shape)
        failed = [r.name for r in check_algebra(A, B, P, 2.0) if not r.passed]
        assert failed == ["pucci-monotone"]

    @staticmethod
    def _cli_draws(seed=0, n=1000):
        # the samples of `abplab pucci --samples n --seed seed`
        Z = seeded_rng(seed, "pucci-identities").normal(size=(n, 3, 2, 2))
        return _sym(Z[:, 0]), _sym(Z[:, 1]), Z[:, 2] @ np.swapaxes(Z[:, 2], -1, -2)

    @pytest.mark.parametrize("theta", [3e5, 1e8, 1e100])
    def test_large_theta_rounding_passes(self, theta):
        # the identities hold exactly; their rounding grows with theta max|eig|
        reports = check_algebra(*self._cli_draws(), theta)
        assert [r.name for r in reports if not r.passed] == []
        # and the allowance stays at rounding level: eps theta times a few units
        assert all(1e-10 < r.abs_tol < 1e-12 * theta for r in reports)

    def test_perturbed_operator_still_fails_at_large_theta(self, monkeypatch):
        import abplab.pucci as mod
        exact = mod.pucci

        def perturbed(H, theta):
            mm, mp = exact(H, theta)
            return mm, mp + 1e-6 * np.max(np.abs(mp))

        monkeypatch.setattr(mod, "pucci", perturbed)
        failed = [r.name for r in check_algebra(*self._cli_draws(), 1e8) if not r.passed]
        assert "pucci-negation" in failed


class TestETheta:
    def test_euclidean_value(self):
        assert e_theta(euclidean(), 1.0, 3.0) == pytest.approx(4.0, abs=1e-14)

    def test_sphere_supremum_at_origin(self):
        assert e_theta(sphere(1.0), 1.2, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_hyperbolic_growth(self):
        got = e_theta(hyperbolic(1.0), 1.0, 2.0)
        assert got == pytest.approx(1.0 + 1.0 / math.tanh(1.0), abs=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k,r,want", [(1.0, 800.0, 801.0), (1e6, 2.0, 2001.0)],
                             ids=["k1-r800", "k1e6-r2"])
    def test_hyperbolic_past_the_float64_range_of_cosh(self, k, r, want):
        # s r > 710: sinh and cosh overflow there, s r coth(s r) = s r does not
        assert e_theta(hyperbolic(k), r, 2.0) == want

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

    @pytest.mark.parametrize("m", [euclidean(), sphere(1.0), hyperbolic(1.0),
                                   gaussian_plane(1.0)],
                             ids=["euclidean", "sphere", "hyperbolic", "gaussian"])
    def test_dense_sample_stays_below_the_supremum(self, m):
        # oracle: the excess (theta - 1)(1 + transverse^+) on 4096 radii in (0, r]
        for r in (0.3, 1.0, 1.5):
            rho = np.linspace(1e-9, r, 4096)
            for th in (1.0, 2.0, 5.0):
                dense = (th - 1.0) * (1.0 + np.maximum(m.dist_hessian_transverse(rho), 0.0))
                analytic = e_theta(m, r, th)
                assert float(np.max(dense)) <= analytic * (1.0 + 1e-12) + 1e-12
                assert float(np.max(dense)) >= analytic * (1.0 - 1e-6) - 1e-12


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

    def test_touching_pairs_pass_at_large_scale(self):
        # S + aH = v v^T has a zero eigenvalue, which rounding moves by about
        # eps times the size of S and aH, not by an absolute amount
        rng = seeded_rng(15, "contact-touching")
        v = rng.normal(size=(1000, 2))
        H = _sym(rng.normal(size=(1000, 2, 2)))
        a = rng.uniform(0.1, 3.0, size=1000)
        S = v[:, :, None] * v[:, None, :] - a[:, None, None] * H
        rep = pucci_contact_bound(1e6 * S, 1e6 * H, a, 2.0)
        assert rep.passed, rep.diagnostics

    def test_contact_violation_reported(self):
        rep = pucci_contact_bound(-np.eye(2), np.zeros((2, 2)), 1.0, 2.0)
        assert not rep.passed
        assert "violated_premise" in rep.diagnostics

    @staticmethod
    def _stack(n=300):
        rng = seeded_rng(16, "contact-stack")
        W, H = rng.normal(size=(2, n, 2, 2))
        H = _sym(H)
        a = rng.uniform(0.1, 3.0, size=n)
        return W @ np.swapaxes(W, -1, -2) - a[:, None, None] * H, H, a

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_stack_reports_worst_sample(self, theta):
        S, H, a = self._stack()
        single = [pucci_contact_bound(s, h, x, theta) for s, h, x in zip(S, H, a)]
        worst = min(single, key=lambda r: r.rhs + r.abs_tol - r.lhs)
        rep = pucci_contact_bound(S, H, a, theta)
        assert (rep.lhs, rep.rhs, rep.abs_tol, rep.passed) == \
            (worst.lhs, worst.rhs, worst.abs_tol, worst.passed)
        assert rep.passed == all(r.passed for r in single)
        assert rep.diagnostics["contact_min_eig"] == \
            min(r.diagnostics["contact_min_eig"] for r in single)

    def test_premise_violation_anywhere_fails_stack(self):
        S, H, a = self._stack()
        S[137] -= 50.0 * np.eye(2)
        rep = pucci_contact_bound(S, H, a, 2.0)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "u_hessian + a dist_hessian >= 0"
