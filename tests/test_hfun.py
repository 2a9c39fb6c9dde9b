import math

import numpy as np
import pytest

from abplab.geometry import euclidean, gaussian_plane, hyperbolic, sphere
from abplab.hfun import (chart_phi, expansion_fit, hfun_closed_form,
                         hfun_numeric, poisson_kernel_disc, theta_ratio)
from abplab.report import seeded_rng


class TestPoissonKernel:
    def test_center_is_one(self):
        for om in (0.0, 1.3, 4.0):
            assert poisson_kernel_disc(np.zeros(2), om) == pytest.approx(1.0, abs=1e-15)

    def test_plug_in_values(self):
        assert poisson_kernel_disc(np.array([0.5, 0.0]), 0.0) == pytest.approx(3.0)
        assert poisson_kernel_disc(np.array([-0.5, 0.0]), 0.0) == pytest.approx(1.0 / 3.0)

    def test_harmonic_by_finite_differences(self):
        h = 1e-4
        for x in (np.array([0.2, 0.1]), np.array([-0.3, 0.4])):
            for om in (0.0, 2.0):
                lap = (poisson_kernel_disc(x + [h, 0], om) + poisson_kernel_disc(x - [h, 0], om)
                       + poisson_kernel_disc(x + [0, h], om) + poisson_kernel_disc(x - [0, h], om)
                       - 4.0 * poisson_kernel_disc(x, om)) / h**2
                assert abs(lap) < 1e-4

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            poisson_kernel_disc(np.array([1.0, 0.0]), 0.0)


class TestClosedForms:
    def test_euclidean_is_nine(self):
        assert hfun_closed_form(euclidean(), 0.3) == 9.0
        assert hfun_closed_form(euclidean(), 2.7) == 9.0

    def test_sphere_hyperbolic_values(self):
        d = 0.5 * math.sqrt(2.0)
        assert hfun_closed_form(sphere(1.0), d) == pytest.approx((1 + 2 * math.cos(0.5)) ** 2)
        assert hfun_closed_form(hyperbolic(1.0), d) == pytest.approx((1 + 2 * math.cosh(0.5)) ** 2)

    def test_even_extension(self):
        for m in (sphere(1.0), hyperbolic(1.0)):
            for d in (0.1, 0.4, 0.8):
                assert hfun_closed_form(m, d) == hfun_closed_form(m, -d)

    def test_chart_validity(self):
        with pytest.raises(ValueError, match="chart"):
            hfun_closed_form(sphere(1.0), 1.5)
        assert chart_phi(sphere(4.0), 0.5) == pytest.approx(math.sqrt(2.0) / 2.0)


class TestThetaRatio:
    def test_flat_is_half(self):
        for m in (euclidean(), gaussian_plane(1.0)):
            for d in (0.3, 1.0, 2.7):
                assert theta_ratio(m, d) == 0.5

    @pytest.mark.parametrize("m", [euclidean(), sphere(1.0), hyperbolic(1.0)],
                             ids=["euclidean", "sphere", "hyperbolic"])
    @pytest.mark.parametrize("d", [0.0, -0.5])
    def test_nonpositive_radius_rejected(self, m, d):
        with pytest.raises(ValueError, match="positive"):
            theta_ratio(m, d)
        with pytest.raises(ValueError, match="positive"):
            hfun_numeric(m, d, 64, 64)

    def test_small_d_limit(self):
        for m in (sphere(1.0), hyperbolic(1.0)):
            assert theta_ratio(m, 1e-6) == pytest.approx(0.5, abs=1e-9)

    def test_sphere_half_angle_value(self):
        d = 0.5 * math.sqrt(2.0)  # phi = 0.5
        expect = (1.0 - math.tan(0.25) ** 2) / 2.0
        assert theta_ratio(sphere(1.0), d) == pytest.approx(expect, abs=1e-14)

    def test_mobius_identity_random(self, rng):
        # ((1+theta)/(1-theta))^2 equals the closed form; algebraically
        # (3 - t^2)/(1 + t^2) = 1 + 2 cos(phi) with t = tan(phi/2)
        for m in (sphere(1.0), hyperbolic(1.0)):
            for _ in range(20):
                d = rng.uniform(0.05, 0.9)
                th = theta_ratio(m, d)
                assert ((1 + th) / (1 - th)) ** 2 == pytest.approx(
                    hfun_closed_form(m, d), rel=1e-12)


class TestNumeric:
    def test_euclidean_nine(self):
        res = hfun_numeric(euclidean(), 1.0, 512, 512)
        assert abs(res.value_numeric - 9.0) <= 1e-3

    @pytest.mark.parametrize("phi", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
    def test_curved_match_closed(self, kind, phi):
        m = sphere(1.0) if kind == "sphere" else hyperbolic(1.0)
        d = phi * math.sqrt(2.0)
        res = hfun_numeric(m, d, 256, 256)
        assert abs(res.value_numeric - res.value_closed) / res.value_closed <= 1e-3

    def test_resolution_improves_or_holds(self):
        m = sphere(1.0)
        d = 0.4 * math.sqrt(2.0)
        errs = []
        for n in (64, 128):
            r = hfun_numeric(m, d, n, n)
            errs.append(abs(r.value_numeric - r.value_closed))
        assert errs[1] <= 0.5 * errs[0] + 1e-12

    def test_numeric_never_exceeds_closed(self):
        res = hfun_numeric(hyperbolic(1.0), 0.5, 128, 128)
        assert res.value_numeric <= res.value_closed * (1.0 + 1e-6)
        assert res.value_numeric >= res.value_closed * (1.0 - 1e-3)

    def test_point_mass_domination(self):
        # random boundary mixtures never beat the single-atom optimum
        m = sphere(1.0)
        d = 0.35 * math.sqrt(2.0)
        res = hfun_numeric(m, d, 128, 128)
        theta = res.theta_used
        rng = seeded_rng(21, "hfun-mixtures")
        ang = np.arange(128) * (2 * math.pi / 128)
        rad = np.linspace(0.0, theta, 48)
        X = (rad[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)[None]).reshape(-1, 2)
        for _ in range(100):
            k = rng.integers(1, 9)
            atoms = rng.uniform(0.0, 2 * math.pi, size=k)
            wts = rng.dirichlet(np.ones(k))
            u = np.zeros(len(X))
            for w, om in zip(wts, atoms):
                u += w * poisson_kernel_disc(X, om)
            assert u.max() / u.min() <= res.value_numeric + 1e-9

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            hfun_numeric(euclidean(), 1.0, 16, 512)

    @pytest.mark.parametrize("n_boundary,n_ball", [(64, 64), (128, 128), (32, 256)])
    @pytest.mark.parametrize("kind", ["sphere", "hyperbolic", "euclidean"])
    def test_one_atom_matches_all_atoms(self, kind, n_boundary, n_ball):
        # oracle: the search over every boundary atom that rotation symmetry
        # reduces to the atom at omega = 0
        m = {"sphere": sphere(1.0), "hyperbolic": hyperbolic(1.0), "euclidean": euclidean()}[kind]
        d = 0.5
        res = hfun_numeric(m, d, n_boundary, n_ball)
        ang = np.arange(n_ball) * (2 * math.pi / n_ball)
        rad = np.linspace(0.0, theta_ratio(m, d), 64)
        X = (rad[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)[None]).reshape(-1, 2)
        best = 0.0
        for om in np.arange(n_boundary) * (2 * math.pi / n_boundary):
            P = poisson_kernel_disc(X, om)
            best = max(best, float(P.max() / P.min()))
        assert abs(res.value_numeric - best) <= 4e-15 * best

    def test_atoms_must_divide_probe_angles(self):
        with pytest.raises(ValueError, match="divide"):
            hfun_numeric(euclidean(), 1.0, 48, 64)

    @pytest.mark.parametrize("n", [33, 63, 65, 129])
    def test_odd_probe_count_rejected(self, n):
        # the kernel's minimum sits at the antipode pi, which no odd count
        # of equally spaced probe angles contains
        with pytest.raises(ValueError, match="even"):
            hfun_numeric(euclidean(), 1.0, n, n)


class TestExpansionFit:
    def test_euclidean_trivial(self):
        ds = np.linspace(0.02, 0.3, 10)
        coeffs, resid = expansion_fit(ds, np.full(10, 9.0))
        assert coeffs[0] == pytest.approx(9.0, abs=1e-8)
        assert abs(coeffs[1]) < 1e-8 and abs(coeffs[2]) < 1e-8

    @pytest.mark.parametrize("kind,sign", [("sphere", -1.0), ("hyperbolic", 1.0)])
    def test_curved_quadratic_coefficient(self, kind, sign):
        m = sphere(1.0) if kind == "sphere" else hyperbolic(1.0)
        ds = np.linspace(0.01, 0.12, 20)
        vals = [hfun_closed_form(m, d) for d in ds]
        coeffs, _ = expansion_fit(ds, vals, degree=4)
        assert coeffs[0] == pytest.approx(9.0, abs=1e-3)
        assert abs(coeffs[1]) <= 1e-6
        assert coeffs[2] == pytest.approx(sign * 3.0, rel=0.01)

    def test_quartic_coefficient(self):
        ds = np.linspace(0.01, 0.12, 20)
        vals = [hfun_closed_form(sphere(1.0), d) for d in ds]
        coeffs, _ = expansion_fit(ds, vals, degree=4)
        assert coeffs[4] == pytest.approx(3.0 / 8.0, rel=0.05)

    def test_clustered_samples_rejected(self):
        ds = np.full(8, 0.1) + np.linspace(0, 1e-13, 8)
        with pytest.raises(ValueError, match="clustered|stable"):
            expansion_fit(ds, np.ones(8))

    @pytest.mark.filterwarnings("error")
    def test_powers_past_float64_refused_by_name(self):
        # d^4 overflows from about 1e77 on; lstsq then failed with numpy's
        # "SVD did not converge", after an overflow warning
        ds = np.linspace(1e150 / 20.0, 1e150, 8)
        with pytest.raises(ValueError, match=r"powers d\^k, k <= 4, leave float64 at \|d\| up to 1e\+150"):
            expansion_fit(ds, np.full(8, 9.0), degree=4)

    @pytest.mark.parametrize("where", ["d", "values"])
    def test_non_finite_samples_refused(self, where):
        ds, vals = np.linspace(0.01, 0.12, 8), np.full(8, 9.0)
        (ds if where == "d" else vals)[3] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            expansion_fit(ds, vals)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            expansion_fit([0.1, 0.2], [9.0, 9.0], degree=3)
