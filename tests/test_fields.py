import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from abplab import fields
from abplab.barrier import BarrierSpec, barrier_field
from abplab.fields import (ScalarField, _laplacian_nu, _radial_derivatives, bump_field,
                           constant_field, hess_form, quadratic_field, radial_field,
                           random_bump_field, sum_fields)
from abplab.geometry import (ModelSpace, build_polar_grid, euclidean, gaussian_plane, hyperbolic,
                             sphere)
from abplab.pde import apply_weighted_laplacian, node_laplacian_nu
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
        grad, lap = _radial_derivatives(m, c, p, df, d2f)
        got = _laplacian_nu(m, p, grad, lap)
        np.testing.assert_array_equal(radial_field(g, c, f, df, d2f).laplacian_nu(p), got)
        # the frame path: h11 + h22 of the frame components, which carry a
        # few ulps of <e_r, e_a> each, against the trace f'' + k
        grad_f, h = _radial_derivatives(m, c, p, df, d2f, m.tangent_frame(p))
        np.testing.assert_array_equal(grad_f, grad)
        np.testing.assert_allclose(_laplacian_nu(m, p, grad_f, h[0] + h[2]), got, rtol=0.0,
                                   atol=32 * np.finfo(float).eps * np.max(np.abs(got)))
        # near the centre: the limit 2 f''(0); elsewhere f'' + f' psi'/psi - f' dV/drho
        assert np.allclose(got[:5], -8.0, rtol=0.0, atol=1e-6)
        rho = m.distance(c, p[5:])
        dV = m.lam * np.einsum("...i,...i->...", p[5:], p[5:] - c) / rho if m.is_flat_chart else 0.0
        expect = d2f(rho) + df(rho) * (m.dpsi(rho) / m.psi(rho) - dV)
        np.testing.assert_allclose(got[5:], expect, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k", [1.0, 1e6, 1e10])
@pytest.mark.parametrize("curved", [sphere, hyperbolic], ids=["sphere", "hyperbolic"])
@pytest.mark.parametrize("off", [0.0, 0.7], ids=["origin", "off-origin"])
def test_distance_laplacian_near_the_centre(curved, k, off):
    # Delta(rho^2/2) = 1 + x cot x on the sphere and 1 + x coth x on the
    # hyperboloid, x = sqrt(k) rho, to 4 eps on both paths, the trace and
    # h11 + h22 of the frame rows, from the centre out to x = 0.7:
    # the limit 2 is read at the centre alone, so no radius in length units
    # (1e-8 here) separates two forms, and the value scales with the metric
    m = curved(k)
    s = math.sqrt(k)
    c = m.exp(m.origin(), (off / s) * m.tangent_frame(m.origin())[0])
    e1, e2 = m.tangent_frame(c)
    th = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    rho = np.array([0.0, 3e-9, 0.99e-8, 1.01e-8] + [x / s for x in (1e-12, 1e-8, 1e-4, 1e-2, 0.7)])
    p = m.exp(c, rho[:, None, None] * (np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2))
    rho = m.distance(c, p)
    cot = mpmath.cot if m.sectional() > 0 else mpmath.coth
    with mpmath.workdps(40):
        want = [[float(1 + x * cot(x)) if x else 2.0 for x in (mpmath.sqrt(k) * r for r in row)]
                for row in rho.tolist()]
    _, lap = _radial_derivatives(m, c, p, lambda r: r, np.ones_like)
    _, h = _radial_derivatives(m, c, p, lambda r: r, np.ones_like, m.tangent_frame(p))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(lap, want, rtol=4 * eps, atol=0.0)
    np.testing.assert_allclose(h[0] + h[2], want, rtol=4 * eps, atol=0.0)
    assert lap[0].tolist() == [2.0] * 8 and h[:, 0].tolist() == [[1.0] * 8, [0.0] * 8, [1.0] * 8]


@pytest.mark.parametrize("m", ALL_MODELS + [gaussian_plane(0.0)],
                         ids=[m.kind for m in ALL_MODELS] + ["gaussian-lam0"])
def test_laplacian_nu_equals_the_subtracted_form(m, rng):
    # where V = 0 the helper returns lap itself; it must equal lap minus
    # g(grad u, grad V) as computed in full, and keep the term where V != 0
    g = _grid(m, r=0.6)
    u = random_bump_field(g, rng, hess_bound=1.0)
    p = g.points[::3, ::5]
    grad, lap = u.deriv_fn(p, None)
    got = _laplacian_nu(m, p, grad, lap)
    np.testing.assert_array_equal(got, lap - m.tangent_inner(p, grad, m.grad_V(p)))
    assert np.array_equal(got, lap) != m.is_weighted
    np.testing.assert_array_equal(u.laplacian_nu(p), got)


class TestJet:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_jet_is_grad_and_hess_bitwise(self, m, monkeypatch):
        # quadratic_field takes its flat-chart path on euclidean and gaussian.
        # jet's gradient is grad's; u.hess assembles its rows (h11, h12, h22)
        # in m.tangent_frame(p) into a 2x2 matrix, h12 bitwise on both sides
        # of the diagonal, whose embedding form hess_form reads back; the
        # centre is sampled too
        g = _grid(m, n=24)
        parts = [constant_field(g, 1.5), quadratic_field(g, m.origin(), 0.7),
                 bump_field(g, g.points[7, 3], -0.4, 5.0),
                 barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0))]
        pts = np.vstack([g.points[::3, ::3].reshape(-1, g.points.shape[-1]), m.origin()])
        e1, e2 = m.tangent_frame(pts)
        for u in parts + [sum_fields(parts)]:
            grad, h = u.jet(pts, (e1, e2))
            assert _bits(grad) == _bits(u.grad(pts))
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


def _radial_stacked(m, center, p, df, d2f, frame):
    """_radial_derivatives with the stacked expressions: q - p, the scalings
    (2h)[..., None] * p and (-f'/psi)[..., None] * w over the point axis, and
    f' and f'' each from its own call."""
    d = np.asarray(center, float) - p
    rho, chord = m._rho(m._inner(d, d))
    if m.is_flat_chart:
        psi, dpsi, w = rho, np.ones_like(rho), d + 0.0
    else:
        h = (0.25 * m.sectional()) * chord * chord
        psi, dpsi, w = chord * np.sqrt(1.0 - h), 1.0 - 2.0 * h, d + (2.0 * h)[..., None] * p
    zero = psi == 0.0
    psi = np.where(zero, 1.0, psi)
    d1, d2 = df(rho), d2f(rho)
    grad = (-d1 / psi)[..., None] * w
    k = np.where(zero, d2, d1 * dpsi / psi)
    c1, c2 = (m.tangent_inner(p, w, e) / psi for e in frame)
    return grad, np.stack([k + (d2 - k) * c1 * c1, (d2 - k) * c1 * c2,
                           k + (d2 - k) * c2 * c2])


def _bits(a):
    return np.asarray(a).shape, np.asarray(a).tobytes()


class TestComponentJets:
    """The radial jets form their per-point scalings component by component
    and a bump's f' and f'' share one exponential; every value is that of
    the stacked expressions with separate f' and f''."""

    @staticmethod
    def _bump(amplitude, beta):
        return (lambda r: amplitude * (-2.0 * beta * r) * np.exp(-beta * r * r),
                lambda r: amplitude * (4.0 * beta * beta * r * r - 2.0 * beta)
                * np.exp(-beta * r * r))

    def test_radial_derivatives(self, model):
        g = _grid(model, r=0.5, n=24)
        gen = np.random.default_rng(3)
        X = g.flat_points()[gen.choice(g.n_r * g.n_theta, 60, replace=False)]
        Y = g.flat_points()[gen.choice(g.n_r * g.n_theta, 60, replace=False)]
        df, d2f = self._bump(-0.7, 3.0)
        for center, p in ((g.points[5, 7], X), (Y, X), (g.points[3, 2], g.points),
                          (X, X), (X[0], X[0])):
            frame = model.tangent_frame(p)
            got = _radial_derivatives(model, center, p, df, d2f, frame)
            want = _radial_stacked(model, center, p, df, d2f, frame)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])

    def test_bump_field_jet(self, model):
        g = _grid(model, r=0.5, n=24)
        amplitude, beta, c = 0.6, 5.0, g.points[4, 9]
        u = bump_field(g, c, amplitude, beta)
        df, d2f = self._bump(amplitude, beta)
        v = radial_field(g, c, lambda r: amplitude * np.exp(-beta * r * r), df, d2f)
        for p in (g.points, g.flat_points()[::7], g.points[4, 9]):
            frame = model.tangent_frame(p)
            for got, want in zip(u.jet(p, frame), v.jet(p, frame)):
                assert _bits(got) == _bits(want)
            assert _bits(u.grad(p)) == _bits(v.grad(p))
            assert _bits(u.value(p)) == _bits(v.value(p))
        assert _bits(u.values) == _bits(v.values)

    def test_sum_fields_adds_in_order(self, model):
        g = _grid(model, r=0.5, n=24)
        parts = [bump_field(g, g.points[i, 3 * i], 0.3 - 0.2 * i, 2.0 + i) for i in range(4)]
        u = sum_fields(parts)
        p = g.flat_points()[::5]
        frame = model.tangent_frame(p)
        jets = [f.jet(p, frame) for f in parts]
        want = [((jets[0][k] + jets[1][k]) + jets[2][k]) + jets[3][k] for k in (0, 1)]
        got = u.jet(p, frame)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        assert _bits(u.values) == _bits(((parts[0].values + parts[1].values)
                                         + parts[2].values) + parts[3].values)

    def test_sum_fields_writes_to_no_part(self):
        # parts whose derivatives return arrays they keep
        g = _grid(euclidean(), r=0.5, n=16)
        p = g.flat_points()[:5]
        kept = [(np.full((5, 2), float(i)), np.full((3, 5), 2.0 * i), np.full(5, 4.0 * i))
                for i in range(4)]
        parts = [ScalarField(g, np.full(g.shape, float(i)), lambda q, i=i: np.full(len(q), float(i)),
                             lambda q, frame, i=i: (kept[i][0], kept[i][2 if frame is None else 1]))
                 for i in range(4)]
        u = sum_fields(parts)
        grad, h = u.jet(p, g.model.tangent_frame(p))
        assert np.array_equal(grad, np.full((5, 2), 6.0)) and np.array_equal(h, np.full((3, 5), 12.0))
        assert np.array_equal(u.laplacian(p), np.full(5, 24.0))
        for i in range(4):
            for got, want in zip(kept[i], (float(i), 2.0 * i, 4.0 * i)):
                assert np.all(got == want)


def _off_origin(m, t=0.2):
    e1, e2 = m.tangent_frame(m.origin())
    return m.exp(m.origin(), t * e1 - 0.5 * t * e2)


class TestNodeSamples:
    """A closed-form field samples its nodes, value_fn(grid.points), on the
    first read of values and keeps them; a sampled field keeps the array it
    was given.  The oracles are the constructors' eager expressions."""

    def test_closed_form_values_are_the_eager_expressions(self, model):
        m = model
        g = _grid(m, r=0.6, n=20)
        P = g.points
        c = _off_origin(m)
        r = m.distance(c, P)
        f = lambda rho: np.cos(rho) * rho * rho
        b, amp, beta = 0.7, -0.4, 5.0
        if m.is_flat_chart:   # quadratic_field's flat branch
            d = P - c
            quad = 0.5 * b * np.einsum("...i,...i->...", d, d)
        else:
            quad = 0.5 * b * r * r
        bump = amp * np.exp(-beta * r * r)
        cases = [(constant_field(g, 1.25), np.full(g.shape, 1.25)),
                 (radial_field(g, c, f, lambda rho: -2.0 * rho, lambda rho: 0.0 * rho), f(r)),
                 (quadratic_field(g, c, b), quad),
                 (bump_field(g, c, amp, beta), bump),
                 (sum_fields([constant_field(g, 1.25), quadratic_field(g, c, b),
                              bump_field(g, c, amp, beta)]),
                  (np.full(g.shape, 1.25) + quad) + bump)]
        for u, want in cases:
            assert u.value_fn is not None
            assert _bits(u.values) == _bits(want)

    def test_random_bump_values_are_the_sum_of_its_bumps(self, model, rng, monkeypatch):
        g = _grid(model, r=0.6, n=20)
        seen = []

        def recorded(parts):
            seen.append(list(parts))
            return sum_fields(parts)

        monkeypatch.setattr(fields, "sum_fields", recorded)
        u = random_bump_field(g, rng, hess_bound=0.5)
        (parts,) = seen
        want = parts[0].values + parts[1].values
        for part in parts[2:]:
            want = want + part.values
        assert _bits(u.values) == _bits(want)

    def test_nodes_sampled_on_first_read_and_kept(self, model, rng):
        g = _grid(model, r=0.6, n=128)
        nbytes = g.n_r * g.n_theta * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            u = random_bump_field(g, rng, hess_bound=0.5)
            built = tracemalloc.get_traced_memory()[0]
            vals = u.values
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # building keeps less than one grid array, the first read exactly one
        # (beside bookkeeping of a few KB, not a second array)
        assert built - start < nbytes
        assert nbytes <= read - built < 2 * nbytes
        assert u.values is vals and vals.shape == g.shape

    def test_sampled_fields_keep_their_array(self):
        g = _grid(euclidean(), n=16)
        vals = np.arange(g.n_r * g.n_theta, dtype=float).reshape(g.shape)
        assert ScalarField(g, vals).values is vals
        # beside a value_fn the given samples stand: value_fn is not called
        calls = []
        u = ScalarField(g, vals, lambda p: calls.append(p))
        assert u.values is vals and calls == []
        s = sum_fields([ScalarField(g, vals), constant_field(g, 1.0)])
        assert s.value_fn is None and _bits(s.values) == _bits(vals + np.full(g.shape, 1.0))

    def test_no_values_and_no_value_fn_refused(self):
        g = _grid(euclidean(), n=16)
        with pytest.raises(ValueError, match="node values or a value_fn"):
            ScalarField(g)
        with pytest.raises(ValueError, match="node values or a value_fn"):
            ScalarField(g, None, None, lambda p, frame: p)


def _every_constructor(g, rng):
    """(name, field, parts): one field of each closed-form constructor on g,
    centred off the model's origin, with itself as its one part; the sum of
    those, and a sum of random bumps, with their parts."""
    m = g.model
    c = _off_origin(m)
    single = {"constant": constant_field(g, 1.5),
              "quadratic": quadratic_field(g, c, 0.7),
              "radial": radial_field(g, c, lambda r: np.cos(r) * r * r,
                                     lambda r: 2.0 * r * np.cos(r) - r * r * np.sin(r),
                                     lambda r: (2.0 - r * r) * np.cos(r) - 4.0 * r * np.sin(r)),
              "bump": bump_field(g, c, -0.4, 5.0),
              "barrier": barrier_field(g, BarrierSpec(3.0, m, m.origin(), 1.0))}
    bumps = [bump_field(g, g.flat_points()[i], rng.uniform(-1.0, 1.0), rng.uniform(2.0, 8.0))
             for i in rng.choice(g.n_r * g.n_theta // 2, 4, replace=False)]
    return ([(name, u, [u]) for name, u in single.items()]
            + [("sum", sum_fields(list(single.values())), list(single.values())),
               ("bumps", sum_fields(bumps), bumps)])


class TestFrameFreeTrace:
    """grad, laplacian and laplacian_nu read deriv_fn(p, None): the gradient
    and the trace of the Hessian, formed with no tangent frame."""

    def test_trace_is_the_frame_trace(self, model, rng):
        # the trace against h11 + h22 of the rows in m.tangent_frame(p), at
        # the nodes, the field's centre and the model's origin.  A radial
        # part's rows sum to (f'' + k)(c1^2 + c2^2), whose cosines
        # c_a = <e_r, e_a> carry a few ulps, so the two differ by a few eps
        # of the parts' Hessians, max |h11| + 2|h12| + |h22| over the points
        m = model
        g = _grid(m, r=0.6, n=24)
        pts = np.vstack([g.flat_points()[::5], _off_origin(m), m.origin()])
        frame = m.tangent_frame(pts)
        eps = np.finfo(float).eps
        for name, u, parts in _every_constructor(g, rng):
            grad, lap = u.deriv_fn(pts, None)
            grad_f, h = u.jet(pts, frame)
            assert _bits(grad) == _bits(grad_f) == _bits(u.grad(pts)), name
            assert _bits(lap) == _bits(u.laplacian(pts)) and lap.shape == (len(pts),), name
            scale = sum(np.max(np.abs(hp[0]) + 2.0 * np.abs(hp[1]) + np.abs(hp[2]))
                        for hp in (v.jet(pts, frame)[1] for v in parts))
            assert np.max(np.abs(lap - (h[0] + h[2]))) <= 8.0 * eps * scale, name

    def test_no_laplacian_builds_a_frame(self, model, rng, monkeypatch):
        # with tangent_frame refused, the Laplacians of every constructor
        # still return, at points and at the grid's nodes
        g = _grid(model, r=0.6, n=24)
        fields_ = _every_constructor(g, rng)
        nodes = np.arange(0, g.n_r * g.n_theta, 7)
        want = [(u.laplacian_nu(g.points), u.laplacian(g.points)) for _, u, _ in fields_]

        def refused(self, p):
            raise AssertionError("a Laplacian built a tangent frame")

        monkeypatch.setattr(ModelSpace, "tangent_frame", refused)
        for (name, u, _), (lap_nu, lap) in zip(fields_, want):
            assert _bits(u.laplacian_nu(g.points)) == _bits(lap_nu), name
            assert _bits(u.laplacian(g.points)) == _bits(lap), name
            assert _bits(node_laplacian_nu(u)) == _bits(lap_nu), name
            assert _bits(node_laplacian_nu(u, nodes)) == _bits(lap_nu.reshape(-1)[nodes]), name
