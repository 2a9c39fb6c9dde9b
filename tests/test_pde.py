import math

import numpy as np
import pytest

from abplab.fields import ScalarField, bump_field
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.pde import DirichletProblem, apply_weighted_laplacian, node_laplacian_nu, solve_poisson
from abplab.report import seeded_rng
from conftest import ALL_MODELS


def _grid(m, r=1.0, n=64):
    return build_polar_grid(m, m.origin(), r, n, n)


class TestSolvePoisson:
    def test_constants_are_harmonic(self, model):
        g = _grid(model, r=min(1.0, 0.6 * model.domain_radius_limit))
        u, res = solve_poisson(DirichletProblem(g, np.zeros(g.shape), np.ones(g.n_theta)))
        assert np.max(np.abs(u.values - 1.0)) < 1e-10

    def test_euclid_quadratic(self):
        g = _grid(euclidean(), n=128)
        u, res = solve_poisson(DirichletProblem(g, np.full(g.shape, 4.0), np.ones(g.n_theta)))
        expect = np.broadcast_to((g.rho**2)[:, None], g.shape)
        assert np.max(np.abs(u.values - expect)) < 1e-3

    def test_gaussian_manufactured(self):
        m = gaussian_plane(1.0)
        g = _grid(m, n=128)
        f = np.broadcast_to((4.0 - 2.0 * g.rho**2)[:, None], g.shape)
        u, res = solve_poisson(DirichletProblem(g, f, np.ones(g.n_theta)))
        expect = np.broadcast_to((g.rho**2)[:, None], g.shape)
        assert np.max(np.abs(u.values - expect)) < 1e-3

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_manufactured_second_order(self, m):
        # u = rho^2 (1 + 0.3 cos 2theta), f built from the analytic operator
        r = min(1.0, 0.6 * m.domain_radius_limit)
        errs = []
        for n in (64, 128):
            g = _grid(m, r=r, n=n)
            R = np.broadcast_to(g.rho[:, None], g.shape)
            T = np.broadcast_to(g.theta[None, :], g.shape)
            amp = 1.0 + 0.3 * np.cos(2 * T)
            uex = R**2 * amp
            met = m.dpsi(g.rho) / m.psi(g.rho)
            vr = m.lam * g.rho if m.kind == "gaussian_plane" else np.zeros_like(g.rho)
            f = (2.0 * amp + (met - vr)[:, None] * 2.0 * R * amp
                 - (1.0 / m.psi(g.rho) ** 2)[:, None] * R**2 * 1.2 * np.cos(2 * T))
            bnd = r**2 * (1.0 + 0.3 * np.cos(2 * g.theta))
            u, _ = solve_poisson(DirichletProblem(g, f, bnd))
            errs.append(float(np.max(np.abs(u.values - uex))))
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_discrete_maximum_principle(self, m):
        rng = seeded_rng(3, f"maxprin-{m.kind}")
        g = _grid(m, r=min(1.0, 0.6 * m.domain_radius_limit))
        f = -np.abs(rng.normal(size=g.shape))
        bnd = np.abs(rng.normal(size=g.n_theta))
        u, _ = solve_poisson(DirichletProblem(g, f, bnd))
        assert float(np.min(u.values)) > -1e-12

    def test_solution_reproduces_rhs(self):
        m = hyperbolic(1.0)
        g = _grid(m)
        rng = seeded_rng(4, "consistency")
        f = rng.normal(size=g.shape)
        bnd = rng.normal(size=g.n_theta)
        u, res = solve_poisson(DirichletProblem(g, f, bnd))
        back = apply_weighted_laplacian(g, u.values, bnd)
        assert np.max(np.abs(back - f)) < 1e-7
        assert res < 1e-7

    def test_small_grid_rejected(self):
        g = build_polar_grid(euclidean(), np.zeros(2), 1.0, 32, 32)
        with pytest.raises(ValueError, match="64"):
            DirichletProblem(g, np.zeros(g.shape), np.zeros(32))

    @pytest.mark.parametrize("m, shift", [(sphere(1.0), 0.3), (hyperbolic(1.0), 0.3),
                                          (gaussian_plane(1.0), 0.0), (gaussian_plane(0.0), 0.3)],
                             ids=["sphere", "hyperbolic", "gaussian-origin", "weight-free-off-origin"])
    def test_ring_constant_weight_accepted(self, m, shift):
        # the FFT solve needs exp(-V) constant on every ring, not a kind
        c = m.exp(m.origin(), shift * m.tangent_frame(m.origin())[0])
        g = build_polar_grid(m, c, 0.5, 64, 64)
        u, _ = solve_poisson(DirichletProblem(g, np.zeros(g.shape), np.ones(64)))
        assert np.max(np.abs(u.values - 1.0)) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_solve_past_float64_refused_by_name(self):
        # at radius 2e150 h^2 psi overflows, the stencil turns to 0 and the
        # solve to NaN, whose residual passed the old `residual > tol`
        g = build_polar_grid(euclidean(), np.zeros(2), 2e150, 64, 64)
        with pytest.raises(ValueError, match="radius 2e[+]150 .* leaves the float64 range: "
                                             "residual nan"):
            solve_poisson(DirichletProblem(g, -np.ones(g.shape), np.ones(64)))

    def test_gaussian_off_center_rejected(self):
        m = gaussian_plane(1.0)
        g = build_polar_grid(m, np.array([0.3, 0.0]), 0.5, 64, 64)
        with pytest.raises(ValueError, match="origin-centered"):
            DirichletProblem(g, np.zeros(g.shape), np.zeros(64))


class TestOperator:
    def test_last_ring_needs_boundary(self):
        g = _grid(euclidean(), n=64)
        lap = apply_weighted_laplacian(g, np.ones(g.shape), None)
        assert np.all(np.isnan(lap[-1]))
        assert np.allclose(lap[:-1], 0.0, atol=1e-12)

    def test_matches_analytic_on_radial_quadratic(self):
        m = sphere(1.0)
        g = _grid(m, r=0.9, n=96)
        vals = np.broadcast_to((g.rho**2)[:, None], g.shape).copy()
        lap = apply_weighted_laplacian(g, vals, np.full(g.n_theta, 0.81))
        rho = g.rho[2:-1]
        expect = 2.0 + 2.0 * rho * np.cos(rho) / np.sin(rho)
        assert np.max(np.abs(lap[2:-1] - expect[:, None])) < 2e-3

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_node_laplacian_picks_closed_form_or_stencil(self, m):
        g = _grid(m)
        u = bump_field(g, m.exp(m.origin(), 0.2 * m.tangent_frame(m.origin())[0]), 0.7, 3.0)
        nodes = np.array([0, 5, 700, 2000])
        np.testing.assert_array_equal(node_laplacian_nu(u, nodes),
                                      u.laplacian_nu(g.flat_points()[nodes]))
        np.testing.assert_array_equal(node_laplacian_nu(u), u.laplacian_nu(g.points))
        samples = ScalarField(g, u.values)   # no derivatives: the solver stencil
        bnd = u.values[-1]
        np.testing.assert_array_equal(node_laplacian_nu(samples, boundary=bnd),
                                      apply_weighted_laplacian(g, u.values, bnd))
        np.testing.assert_array_equal(node_laplacian_nu(samples, nodes),
                                      apply_weighted_laplacian(g, u.values).reshape(-1)[nodes])
