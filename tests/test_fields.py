import math

import numpy as np
import pytest

from abplab.barrier import BarrierSpec, barrier_field
from abplab.fields import (_frame_components, bump_field, constant_field, hess_form,
                           quadratic_field, radial_field, random_bump_field,
                           sum_fields)
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.pde import apply_weighted_laplacian
from conftest import ALL_MODELS


def _grid(m, r=1.0, n=48):
    return build_polar_grid(m, m.origin(), r, n, n)


class TestLaplacianNu:
    def test_euclidean_quadratic(self):
        g = _grid(euclidean())
        u = quadratic_field(g, np.zeros(2), 1.0)  # |x|^2 / 2
        lap = u.laplacian_nu(g.points[::7, ::7])
        assert np.allclose(lap, 2.0, atol=1e-12)

    def test_gaussian_weighted_term(self):
        lam = 1.0
        g = _grid(gaussian_plane(lam))
        u = quadratic_field(g, np.zeros(2), 1.0)
        pts = g.points[::5, ::5]
        rho2 = np.einsum("...i,...i->...", pts, pts)
        assert np.allclose(u.laplacian_nu(pts), 2.0 - lam * rho2, atol=1e-12)

    def test_sphere_radial_vs_central_differences(self):
        # oracle: 1-D central differences of f'' + cot(rho) f'
        m = sphere(1.0)
        g = _grid(m)
        u = bump_field(g, m.origin(), 0.8, 2.0)
        rho = np.linspace(0.2, 0.9, 8)
        e1 = m.tangent_frame(m.origin())[0]
        pts = m.exp(m.origin(), rho[:, None] * e1[None, :])
        f = lambda r: 0.8 * np.exp(-2.0 * r * r)
        h = 1e-5
        d1 = (f(rho + h) - f(rho - h)) / (2 * h)
        d2 = (f(rho + h) - 2 * f(rho) + f(rho - h)) / h**2
        expect = d2 + d1 / np.tan(rho)
        assert np.allclose(u.laplacian_nu(pts), expect, atol=1e-4)

    def test_metric_trace_matches_frame_trace_hyperbolic(self):
        # tr(H G) with the Minkowski G against h11 + h22 in an orthonormal frame
        m = hyperbolic(1.0)
        g = _grid(m, n=24)
        u = sum_fields([quadratic_field(g, m.origin(), 0.7),
                        bump_field(g, g.points[9, 5], -0.4, 5.0)])
        pts = g.points[::3, ::3].reshape(-1, 3)
        e1, e2 = m.tangent_frame(pts)
        H = u.hess(pts)
        frame_trace = hess_form(m, H, e1, e1) + hess_form(m, H, e2, e2)
        assert np.allclose(u.laplacian(pts), frame_trace, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_closed_form_vs_grid_operator_h2(self, m):
        # discrete weighted Laplacian converges at second order to the
        # analytic one for a smooth off-center bump
        errs = []
        for n in (48, 96):
            g = _grid(m, r=1.0, n=n)
            c = m.exp(m.origin(), 0.2 * m.tangent_frame(m.origin())[0])
            u = bump_field(g, c, 0.7, 3.0)
            lap_d = apply_weighted_laplacian(g, u.values, None)
            lap_a = u.laplacian_nu(g.points)
            # rings next to the pole use the zero-flux closure rather than
            # centered differences; the invariant concerns the interior
            err = np.nanmax(np.abs((lap_d - lap_a)[2:-1]))
            errs.append(err)
        assert errs[0] / errs[1] >= 3.0


class TestJet:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_jet_is_grad_and_hess_bitwise(self, m):
        # quadratic_field takes its flat-chart path on euclidean and gaussian
        g = _grid(m, n=24)
        parts = [constant_field(g, 1.5), quadratic_field(g, m.origin(), 0.7),
                 bump_field(g, g.points[7, 3], -0.4, 5.0),
                 barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0))]
        pts = np.vstack([g.points[::3, ::3].reshape(-1, g.points.shape[-1]), m.origin()])
        for u in parts + [sum_fields(parts)]:
            grad, H = u.jet(pts)
            for got, want in ((grad, u.grad(pts)), (H, u.hess(pts))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFieldConsistency:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_values_match_closed_form(self, m):
        g = _grid(m, n=24)
        u = sum_fields([
            quadratic_field(g, m.origin(), 0.7),
            bump_field(g, m.exp(m.origin(), 0.15 * m.tangent_frame(m.origin())[1]), -0.4, 5.0),
        ])
        assert u.check_consistency() < 1e-10

    def test_constant_field(self):
        g = _grid(euclidean(), n=16)
        u = constant_field(g, 3.25)
        assert float(u.value(np.array([0.3, 0.1]))) == 3.25
        assert np.all(u.values == 3.25)
        assert np.allclose(u.grad(g.points[0, 0]), 0.0)

    def test_missing_closed_form_raises(self):
        from abplab.fields import ScalarField
        g = _grid(euclidean(), n=16)
        u = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError, match="closed-form"):
            u.value(np.zeros(2))

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_gradient_hessian_directional_fd(self, m, rng):
        g = _grid(m, n=24)
        c = m.exp(m.origin(), 0.22 * m.tangent_frame(m.origin())[0])
        u = bump_field(g, c, 0.6, 4.0)
        p = g.points[15, 7]
        e1, e2 = m.tangent_frame(p)
        h = 1e-5
        for e in (e1, e2):
            fd1 = (u.value(m.exp(p, h * e)) - u.value(m.exp(p, -h * e))) / (2 * h)
            assert fd1 == pytest.approx(float(m.tangent_inner(p, u.grad(p), e)), abs=1e-8)
            fd2 = (u.value(m.exp(p, h * e)) - 2 * u.value(p) + u.value(m.exp(p, -h * e))) / h**2
            assert fd2 == pytest.approx(float(hess_form(m, u.hess(p), e, e)), abs=2e-5)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_frame_components_match_hess_form(self, m, rng):
        g = _grid(m, n=24)
        u = random_bump_field(g, rng, hess_bound=0.5)
        pts = g.points[::4, ::4].reshape(-1, g.points.shape[-1])
        H = u.hess(pts)
        e1, e2 = m.tangent_frame(pts)
        th = rng.uniform(0.0, 2.0 * math.pi, size=len(pts))[:, None]
        f1 = np.cos(th) * e1 + np.sin(th) * e2   # a rotated frame per point
        f2 = m.rotate90(pts, f1)
        C = _frame_components(m, H, f1, f2)
        assert C.shape == (len(pts), 2, 2)
        for a, x in enumerate((f1, f2)):
            for b, y in enumerate((f1, f2)):
                assert np.allclose(C[:, a, b], hess_form(m, H, x, y), rtol=1e-12, atol=1e-14)

    def test_random_bump_hessian_bound(self, rng):
        m = hyperbolic(1.0)
        g = _grid(m, n=24)
        u = random_bump_field(g, rng, hess_bound=0.5)
        H = u.hess(g.points[::4, ::4].reshape(-1, 3))
        e1, e2 = m.tangent_frame(g.points[::4, ::4].reshape(-1, 3))
        h11 = hess_form(m, H, e1, e1)
        h12 = hess_form(m, H, e1, e2)
        h22 = hess_form(m, H, e2, e2)
        # spectral norm of each 2x2 frame representation
        tr, det = h11 + h22, h11 * h22 - h12**2
        disc = np.sqrt(np.maximum(tr * tr / 4 - det, 0.0))
        spec = np.maximum(np.abs(tr / 2 + disc), np.abs(tr / 2 - disc))
        assert float(np.max(spec)) <= 0.5 + 1e-9
