import math

import numpy as np
import pytest

from abplab.barrier import BarrierSpec, barrier_field
from abplab.fields import (_laplacian_nu, _radial_derivatives, bump_field,
                           constant_field, hess_form, quadratic_field, radial_field,
                           random_bump_field, sum_fields)
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


    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_helper_on_radial_derivatives(self, m, rng):
        # the composition the barrier checks use, centred off the origin (where
        # the gaussian weight is not radial) and sampled down to the centre
        g = _grid(m)
        e1, e2 = m.tangent_frame(m.origin())
        c = m.exp(m.origin(), 0.2 * e1 - 0.1 * e2)
        f = lambda r: np.exp(-2.0 * r * r)
        df = lambda r: -4.0 * r * np.exp(-2.0 * r * r)
        d2f = lambda r: (16.0 * r * r - 4.0) * np.exp(-2.0 * r * r)
        f1, f2 = m.tangent_frame(c)
        th = rng.uniform(0.0, 2.0 * np.pi, 40)
        t = np.concatenate([[0.0, 1e-12, 1e-10, 3e-9, 9.9e-9], rng.uniform(0.05, 0.6, 35)])
        p = m.exp(c, t[:, None] * (np.cos(th)[:, None] * f1 + np.sin(th)[:, None] * f2))
        grad, h = _radial_derivatives(m, c, p, df, d2f, m.tangent_frame(p))
        want = radial_field(g, c, f, df, d2f).laplacian_nu(p)
        np.testing.assert_array_equal(_laplacian_nu(m, p, grad, h[0] + h[2]),
                                      want)
        # the trace path: f'' + k with no frame, against h11 + h22 of the frame
        # components, which carry a few ulps of <e_r, e_a> each
        grad_t, lap = _radial_derivatives(m, c, p, df, d2f)
        got = _laplacian_nu(m, p, grad_t, lap)
        np.testing.assert_array_equal(grad_t, grad)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=32 * np.finfo(float).eps * np.max(np.abs(want)))
        # near the centre: the limit 2 f''(0); elsewhere f'' + f' psi'/psi - f' dV/drho
        assert np.allclose(got[:5], -8.0, rtol=0.0, atol=1e-6)
        rho = m.distance(c, p[5:])
        dV = m.lam * np.einsum("...i,...i->...", p[5:], p[5:] - c) / rho if m.is_flat_chart else 0.0
        expect = d2f(rho) + df(rho) * (m.dpsi(rho) / m.psi(rho) - dV)
        np.testing.assert_allclose(got[5:], expect, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m", ALL_MODELS + [gaussian_plane(0.0)],
                         ids=[m.kind for m in ALL_MODELS] + ["gaussian-lam0"])
def test_laplacian_nu_equals_the_subtracted_form(m, rng):
    # where V = 0 the helper returns lap itself; it must equal lap minus
    # g(grad u, grad V) as computed in full, and keep the term where V != 0
    g = _grid(m, r=0.6)
    u = random_bump_field(g, rng, hess_bound=1.0)
    p = g.points[::3, ::5]
    grad, h = u.jet(p)
    lap = h[0] + h[2]
    got = _laplacian_nu(m, p, grad, lap)
    np.testing.assert_array_equal(got, lap - m.tangent_inner(p, grad, m.grad_V(p)))
    assert np.array_equal(got, lap) != m.is_weighted


class TestJet:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_jet_is_grad_and_hess_bitwise(self, m, monkeypatch):
        # quadratic_field takes its flat-chart path on euclidean and gaussian.
        # jet's gradient is grad's; its rows (h11, h12, h22) in the default
        # frame are those in m.tangent_frame(p), and u.hess assembles them
        # into a 2x2 matrix, h12 bitwise on both sides of the diagonal, whose
        # embedding form hess_form reads back; the centre is sampled too
        g = _grid(m, n=24)
        parts = [constant_field(g, 1.5), quadratic_field(g, m.origin(), 0.7),
                 bump_field(g, g.points[7, 3], -0.4, 5.0),
                 barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0))]
        pts = np.vstack([g.points[::3, ::3].reshape(-1, g.points.shape[-1]), m.origin()])
        e1, e2 = m.tangent_frame(pts)
        for u in parts + [sum_fields(parts)]:
            grad, h = u.jet(pts)
            for got, want in ((grad, u.grad(pts)), (h, u.jet(pts, (e1, e2))[1])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert h.shape == (3, len(pts))
            assembled = []   # the 2x2 matrix hess hands to einsum

            def einsum(spec, E, hm, F, einsum=np.einsum):
                assembled.append(hm)
                return einsum(spec, E, hm, F)

            with monkeypatch.context() as mp:
                mp.setattr(np, "einsum", einsum)
                H = u.hess(pts)
            (hm,) = assembled
            assert hm.shape == (len(pts), 2, 2)
            for got, want in ((hm[:, 0, 0], h[0]), (hm[:, 0, 1], h[1]),
                              (hm[:, 1, 0], h[1]), (hm[:, 1, 1], h[2])):
                assert got.tobytes() == want.tobytes()
            scale = max(1.0, float(np.max(np.abs(h))))
            for a, x in enumerate((e1, e2)):
                for b, y in enumerate((e1, e2)):
                    assert np.allclose(hess_form(m, H, x, y), hm[:, a, b],
                                       rtol=1e-12, atol=1e-12 * scale)


class TestFieldConsistency:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_values_match_closed_form(self, m):
        g = _grid(m, n=24)
        u = sum_fields([
            quadratic_field(g, m.origin(), 0.7),
            bump_field(g, m.exp(m.origin(), 0.15 * m.tangent_frame(m.origin())[1]), -0.4, 5.0),
        ])
        assert np.max(np.abs(u.value(g.points) - u.values)) < 1e-10

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
        C = u.jet(pts, (f1, f2))[1]
        assert C.shape == (3, len(pts))
        rows = {(0, 0): C[0], (0, 1): C[1], (1, 0): C[1], (1, 1): C[2]}
        for a, x in enumerate((f1, f2)):
            for b, y in enumerate((f1, f2)):
                assert np.allclose(rows[a, b], hess_form(m, H, x, y), rtol=1e-12, atol=1e-14)

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
