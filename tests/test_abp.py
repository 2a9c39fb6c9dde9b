import math

import numpy as np
import pytest

from abplab.abp import AbpInstance, abp_check, d_bound, disc_vertex_indices, transport_rhs
from abplab.constants import CurvatureParams
from abplab.fields import ScalarField, constant_field, quadratic_field, random_bump_field
from abplab.geometry import build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.report import seeded_rng


class TestDBound:
    def test_flat_two_dimensional(self):
        assert d_bound(0.0, 2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert d_bound(0.0, 2.0, 1.0, 2.0, 3.0) == pytest.approx(1.0 + 3.0 / 4.0, abs=1e-15)

    def test_infinite_dimension(self):
        assert d_bound(0.0, math.inf, 1.0, 1.0, 2.5) == 2.5
        assert d_bound(0.5, math.inf, 2.0, 1.0, 0.0) == pytest.approx(4.0, abs=1e-15)

    def test_curved_value(self):
        # S(w) H(w) = cosh(w) at w = sqrt(2)
        got = d_bound(1.0, 2.0, 1.0, 1.0, 0.0)
        assert got == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-12)

    def test_nonpositive_opening_rejected(self):
        with pytest.raises(ValueError):
            d_bound(0.0, 2.0, 1.0, 0.0, 1.0)


def _instance(m, params, r, n, field_fn, a):
    grid = build_polar_grid(m, m.origin(), r, n, n)
    n_rings = grid.radial_rings(0.45 * r)
    E = disc_vertex_indices(grid, n_rings)
    u = field_fn(grid)
    return AbpInstance(m, params, grid, E, u, a), n_rings


class TestEqualityCases:
    def test_constant_field_exact(self):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: constant_field(g, 0.7), 1.0)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.diagnostics["rhs_nodes"], rel=1e-14)
        assert rep.diagnostics["equality_gap"] < 1e-12

    @pytest.mark.parametrize("b,a", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_quadratic_transport_equality(self, b, a):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: quadratic_field(g, m.origin(), b), a)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert rep.passed
        assert rep.diagnostics["equality_gap"] < 1e-12
        assert rep.diagnostics["min_pointwise_density"] == pytest.approx(1.0, abs=1e-10)

    def test_scaling_consistency(self):
        # (u, a) -> (c u, c a) leaves contact structure and bound untouched
        m = euclidean()
        c = 3.7
        inst1, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                              lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
        inst2, _ = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                             lambda g: quadratic_field(g, m.origin(), c), c)
        from abplab.contact import compute_contact_set
        cs1 = compute_contact_set(inst1.u, inst1.a, inst1.E)
        cs2 = compute_contact_set(inst2.u, inst2.a, inst2.E)
        assert np.array_equal(cs1.contact_of, cs2.contact_of)
        r1 = abp_check(inst1, set_stride=1, n_rings=nr)
        r2 = abp_check(inst2, set_stride=1, n_rings=nr)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)


class TestInequality:
    @pytest.mark.parametrize("m,params,r", [
        (sphere(1.0), CurvatureParams(0.0, 2.0, 0.3), 0.3),
        (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 0.5), 0.5),
        (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.8), 0.8),
        (gaussian_plane(1.0), CurvatureParams(0.0, math.inf, 0.8), 0.8),
    ], ids=["sphere", "hyperbolic", "gaussian-N4", "gaussian-inf"])
    def test_random_fields_hold(self, m, params, r):
        rng = seeded_rng(7, f"abp-{m.kind}-{params.N}")
        a = 1.0
        for trial in range(10):
            inst, nr = _instance(m, params, r, 48,
                                 lambda g: random_bump_field(g, rng, hess_bound=0.5 * a), a)
            rep = abp_check(inst, set_stride=1, n_rings=nr)
            assert rep.passed, (trial, rep.diagnostics)
            # the density diagnostic carries the FD area-element truncation,
            # O(h^2) plus one-sided edge rings, so ~1e-3 at this resolution
            assert rep.diagnostics["min_pointwise_density"] > 1.0 - 5e-3

    def test_sphere_bump_gap_positive_and_stable(self):
        m = sphere(1.0)
        params = CurvatureParams(0.0, 2.0, 0.3)
        gaps = []
        for n in (48, 96):
            inst, nr = _instance(m, params, 0.3, n,
                                 lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
            rep = abp_check(inst, set_stride=1, n_rings=nr)
            assert rep.passed
            gaps.append(rep.diagnostics["rhs_transport"] - rep.lhs)
        # curvature makes the bound strictly generous here; the gap is a
        # genuine positive quantity, stable under refinement
        assert gaps[1] > 0
        assert abs(gaps[0] - gaps[1]) < 0.2 * abs(gaps[1])


class TestHypothesisScreens:
    def test_ricci_premise_violation(self):
        m = hyperbolic(1.0)
        inst, nr = _instance(m, CurvatureParams(0.0, 2.0, 0.5), 0.5, 48,
                             lambda g: constant_field(g, 0.0), 1.0)
        rep = abp_check(inst, set_stride=1, n_rings=nr)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on the ball"

    def test_ricci_premise_on_off_centre_ball(self):
        # B_0.5((1.3, 0)) reaches |x| = 1.8, where the gaussian plane's
        # Ric_{N,nu} at N = 4 falls below 0; the origin ball of radius 0.5 has no gap
        m = gaussian_plane(1.0)
        c = np.array([1.3, 0.0])
        grid = build_polar_grid(m, c, 0.5, 48, 48)
        E = disc_vertex_indices(grid, grid.radial_rings(0.45 * 0.5))
        inst = AbpInstance(m, CurvatureParams(0.0, 4.0, 1.0), grid, E,
                           quadratic_field(grid, c, 1.0), 1.0)
        rep = abp_check(inst)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "Ric_{N,nu} >= -K g on the ball"
        assert rep.diagnostics["ricci_gap"] == pytest.approx(0.62, rel=1e-12)

    def test_boundary_touching_contact(self):
        m = euclidean()
        grid = build_polar_grid(m, m.origin(), 1.0, 48, 48)

        def val(p):
            return 3.0 * np.asarray(p, float)[..., 0]

        def deriv(p, hessian):
            grad = np.zeros(np.asarray(p).shape)
            grad[..., 0] = 3.0
            return (grad, np.zeros(np.asarray(p).shape + (2,))) if hessian else grad

        u = ScalarField(grid, val(grid.points), val, deriv)
        E = disc_vertex_indices(grid, grid.radial_rings(0.3))
        inst = AbpInstance(m, CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)
        rep = abp_check(inst, set_stride=1)
        assert not rep.passed
        assert rep.diagnostics["violated_premise"] == "contact set contained in the open ball"

    def test_stride_without_transport_rejected(self):
        m = euclidean()
        inst, _ = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                            lambda g: constant_field(g, 0.0), 1.0)
        with pytest.raises(ValueError, match="transport"):
            abp_check(inst, set_stride=0, n_rings=None)

    def test_stride_above_one_rejected(self):
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 48,
                             lambda g: constant_field(g, 0.0), 1.0)
        with pytest.raises(ValueError, match="set_stride"):
            abp_check(inst, set_stride=2, n_rings=nr)


    @pytest.mark.parametrize("set_stride", [0, 1])
    def test_n_rings_other_than_e_rejected(self, set_stride):
        # the transport side integrates over the disc n_rings names, so a
        # smaller disc than E would fail a true inequality
        m = euclidean()
        inst, nr = _instance(m, CurvatureParams(0, 2, 1.0), 1.0, 64,
                             lambda g: quadratic_field(g, m.origin(), 1.0), 1.0)
        with pytest.raises(ValueError, match=rf"E \({nr * 64} vertices\) .* first 10 rings "
                                             r"\(640 vertices\)"):
            abp_check(inst, set_stride=set_stride, n_rings=10)
        with pytest.raises(ValueError, match="not the disc"):
            transport_rhs(inst, nr + 1)

class TestInstanceSources:
    """model and grid must be u's; equal models built apart are one model."""

    def _parts(self, n=32):
        m = euclidean()
        grid = build_polar_grid(m, m.origin(), 1.0, n, n)
        return grid, disc_vertex_indices(grid, 5), quadratic_field(grid, m.origin(), 1.0)

    def test_model_differing_by_value_refused(self):
        grid, E, u = self._parts()
        with pytest.raises(ValueError, match="model is the hyperbolic model .*, but the grid "
                                             "is on the euclidean model"):
            AbpInstance(hyperbolic(1.0), CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)

    def test_grid_without_u_nodes_refused(self):
        grid, E, _ = self._parts(24)
        _, _, u = self._parts(32)
        with pytest.raises(ValueError, match="the grid is 24x24 .*, u's is 32x32"):
            AbpInstance(euclidean(), CurvatureParams(0, 2, 1.0), grid, E, u, 1.0)

    def test_equal_model_instances_accepted(self):
        # a separate euclidean() and a twin grid are the same model and nodes
        grid, E, u = self._parts()
        twin, _, _ = self._parts()
        assert grid.model is not euclidean() and twin is not grid
        rep = abp_check(AbpInstance(euclidean(), CurvatureParams(0, 2, 1.0), twin, E, u, 1.0))
        assert rep.passed


class TestTransportInternals:
    def test_identity_reproduces_weights(self):
        m = hyperbolic(1.0)
        inst, nr = _instance(m, CurvatureParams(1.0, 2.0, 0.6), 0.6, 48,
                             lambda g: constant_field(g, 1.0), 1.0)
        tr = transport_rhs(inst, nr)
        K, N = 1.0, 2.0
        w = math.cosh(2.0 * math.sqrt(K / N) * 0.6)  # S(rw)H(rw) with lap = 0
        lhs = float(np.sum(inst.grid.flat_weights()[inst.E]))
        assert tr["rhs_transport"] == pytest.approx(w**N * lhs, rel=1e-12)
        # refined points sit at the arccosh conditioning floor (~sqrt(eps))
        Y = inst.grid.points[:nr].reshape(-1, inst.grid.points.shape[-1])
        assert np.max(m.distance(Y, tr["contact_points"])) < 1e-7
