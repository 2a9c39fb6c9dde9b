import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abplab.contact import compute_contact_set, refine_contact_points
from abplab.fields import bump_field, quadratic_field, sum_fields
from abplab.geometry import _COSH_MAX, build_polar_grid, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.jacobi import (_ROUND_TOL, JacobiState, _velocity, dn_functional, integrate_jacobi,
                           verify_comparison)
from abplab.report import seeded_rng
from conftest import (ALL_MODELS, _rk4_linear, array_checked_jacobi, ordered_dot, random_point,
                      random_tangent, solve_jacobi_pair, stacked_jacobi, verify_ode_structure)


class TestIntegrateJacobi:
    def test_identity_flow(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.zeros((2, 2)), np.array([0.4, 0.1]))
        assert np.allclose(st.det(), 1.0, atol=1e-12)
        assert np.allclose(st.J[-1], np.eye(2), atol=1e-12)

    def test_euclid_quadratic_closed_form(self):
        b = 0.8
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), b * np.eye(2), np.array([0.3, -0.2]), 128)
        assert np.max(np.abs(st.det() - (1.0 + b * st.times) ** 2)) < 1e-12

    def test_sphere_cosine_determinant(self):
        m = sphere(1.0)
        o = m.origin()
        s = 0.9
        v = s * m.tangent_frame(o)[0]
        st = integrate_jacobi(m, o, np.zeros((2, 2)), v, 256)
        assert np.max(np.abs(st.det() - np.cos(s * st.times))) < 1e-8

    def test_wronskian_conserved(self, rng):
        m = hyperbolic(1.0)
        p = random_point(m, rng, 0.3)
        H = rng.normal(size=(2, 2))
        H = 0.5 * (H + H.T)
        st = integrate_jacobi(m, p, H, random_tangent(m, p, 0.7, rng), 128)
        # J^T J' - J'^T J is conserved when R is symmetric; J' = diag(0,
        # -kappa L^2 sn) + diag(1, cs) H from the state's pair (cs, sn), so
        # this holds only if the pair solves the system
        L = float(m.tangent_norm(p, st.v))
        Jdot = np.stack([np.broadcast_to(H[0], (len(st.times), 2)), st.cs[:, None] * H[1]], axis=1)
        Jdot[:, 1, 1] -= m.sectional() * L * L * st.sn
        W = np.einsum("tij,tik->tjk", st.J, Jdot) - np.einsum("tij,tik->tjk", Jdot, st.J)
        assert np.max(np.abs(W - W[0])) < 1e-9

    def test_linear_in_initial_hessian(self, rng):
        m = sphere(1.0)
        o = m.origin()
        v = 0.6 * m.tangent_frame(o)[0]
        H1 = np.diag([0.4, -0.1])
        H2 = np.array([[0.0, 0.3], [0.3, 0.2]])
        a = integrate_jacobi(m, o, H1 + H2, v, 128).J
        b = integrate_jacobi(m, o, H1, v, 128).J
        c = integrate_jacobi(m, o, H2, v, 128).J
        z = integrate_jacobi(m, o, np.zeros((2, 2)), v, 128).J
        assert np.max(np.abs(a - b - c + z)) < 1e-10

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="64"):
            integrate_jacobi(euclidean(), np.zeros(2), np.zeros((2, 2)), np.array([0.1, 0.0]), 16)

    def test_weight_ratio_gaussian(self):
        m = gaussian_plane(1.0)
        x = np.array([0.2, -0.1])
        v = np.array([0.4, 0.3])
        st = integrate_jacobi(m, x, np.zeros((2, 2)), v)
        g = x[None, :] + st.times[:, None] * v[None, :]
        expect = np.exp(-(0.5 * np.einsum("ij,ij->i", g, g) - 0.5 * x @ x))
        assert np.allclose(st.weight_ratio, expect, atol=1e-14)

    @pytest.mark.parametrize("m", ALL_MODELS + [sphere(4.0)],
                             ids=[m.kind for m in ALL_MODELS] + ["sphere-k4"])
    def test_matches_closed_form_at_every_sample(self, m, rng):
        # R = diag(0, kappa L^2) in the frame (v/L, its rotation): each sample
        # against the scalar solutions, evaluated by math.cos/cosh one at a time
        kappa = m.sectional()
        for L in [0.0] + list(rng.uniform(0.05, 0.9 * min(m.cut_radius, 2.0), size=8)):
            p = random_point(m, rng, 0.3)
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            st = integrate_jacobi(m, p, H, random_tangent(m, p, L, rng), 256)
            w = math.sqrt(abs(kappa)) * float(m.tangent_norm(p, st.v))
            for t, J, got_cs, got_sn in zip(st.times, st.J, st.cs, st.sn):
                if w == 0.0:   # flat, or v = 0
                    cs, sn = 1.0, t
                elif kappa > 0:
                    cs, sn = math.cos(w * t), math.sin(w * t) / w
                else:
                    cs, sn = math.cosh(w * t), math.sinh(w * t) / w
                exact = np.diag([1.0, cs]) + np.diag([t, sn]) @ H
                scale = max(1.0, float(np.max(np.abs(exact))))
                err = float(np.max(np.abs(J - exact)))
                assert err <= 8.0 * np.finfo(float).eps * scale, (L, t, err)
                err = max(abs(got_cs - cs), abs(got_sn - sn))
                assert err <= 8.0 * np.finfo(float).eps * max(1.0, abs(cs), abs(sn)), (L, t, err)

    @pytest.mark.filterwarnings("error")
    def test_hyperboloid_radius_past_float64_refused_by_name(self):
        m = hyperbolic(1.0)
        o = m.origin()
        v = 800.0 * m.tangent_frame(o)[0]
        with pytest.raises(ValueError, match="radius 800 is too large for the float64 range") as e:
            integrate_jacobi(m, o, np.zeros((2, 2)), v)
        with pytest.raises(ValueError) as own:
            m.exp(o, v)
        assert str(e.value) == str(own.value)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_columns_equal_the_stacked_oracle(self, m, rng):
        for L in [0.0] + list(rng.uniform(0.05, 0.9 * min(m.cut_radius, 2.0), size=6)):
            p = random_point(m, rng, 0.3)
            v = random_tangent(m, p, L, rng)
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            for n in (64, 256):
                st = integrate_jacobi(m, p, H, v, n)
                J, cs, sn = stacked_jacobi(m, p, H, v, n)
                assert np.array_equal(st.J, J), (L, n)
                assert np.array_equal(st.cs, cs) and np.array_equal(st.sn, sn), (L, n)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_gamma_is_exp_along_the_ray(self, m, rng):
        # bit for bit on the flat charts (exp's own x + t v), and within 4 ulps
        # of max |gamma| on the curved ones, where gamma = cs x + sn v
        for L in [0.0] + list(rng.uniform(0.05, 0.9 * min(m.cut_radius, 2.0), size=12)):
            p = random_point(m, rng, 0.3)
            v = random_tangent(m, p, L, rng)
            st = integrate_jacobi(m, p, np.zeros((2, 2)), v, 256)
            ref = m.exp(p, st.times[:, None] * v)
            if m.is_flat_chart:
                assert st.gamma.tobytes() == ref.tobytes()
            else:
                scale = float(np.max(np.linalg.norm(ref, axis=1)))
                err = float(np.max(np.abs(st.gamma - ref)))
                assert err <= 4.0 * np.finfo(float).eps * scale, (L, err / scale)

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_unit_weight_ratio_off_the_gaussian_plane(self, m, rng):
        p = random_point(m, rng, 0.3)
        st = integrate_jacobi(m, p, np.zeros((2, 2)), random_tangent(m, p, 0.6, rng), 128)
        expect = np.exp(-(m.weight_V(st.gamma) - m.weight_V(p)))
        assert np.array_equal(st.weight_ratio, expect)
        assert np.all(st.weight_ratio == 1.0) == (not m.is_weighted)


class TestInputRefusals:
    @pytest.mark.parametrize("field,value,match", [
        ("H", [[np.nan, 0.0], [0.0, 1.0]], "initial Hessian must be finite"),
        ("H", [[0.0, np.inf], [np.inf, 0.0]], "initial Hessian must be finite"),
        ("v", [np.inf, 0.0], "v must be finite"),
        ("v", [0.1, np.nan], "v must be finite"),
        ("x", [np.nan, 0.0], "x must be finite"),
    ], ids=["H-nan", "H-inf", "v-inf", "v-nan", "x-nan"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_inputs_on_the_plane(self, field, value, match):
        args = dict(x=np.zeros(2), H=np.zeros((2, 2)), v=np.array([0.3, 0.1]))
        args[field] = np.array(value)
        with pytest.raises(ValueError, match=match):
            integrate_jacobi(euclidean(), args["x"], args["H"], args["v"])

    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0)], ids=["sphere", "hyperbolic"])
    def test_point_off_the_model(self, m):
        o = m.origin()
        v = 0.5 * m.tangent_frame(o)[0]
        with pytest.raises(ValueError, match=r"x is not a point of the \w+ model"):
            integrate_jacobi(m, 2.0 * o, np.zeros((2, 2)), v)
        with pytest.raises(ValueError, match="x must be finite"):
            integrate_jacobi(m, np.array([0.0, np.inf, 1.0]), np.zeros((2, 2)), v)
        # finite coordinates whose squares leave float64 are on no model
        with pytest.raises(ValueError, match=r"x is not a point of the \w+ model"):
            integrate_jacobi(m, np.full(3, 1e200), np.zeros((2, 2)), np.zeros(3))

    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0)], ids=["sphere", "hyperbolic"])
    def test_velocity_with_a_normal_component(self, m, rng):
        p = random_point(m, rng, 0.3)
        v = random_tangent(m, p, 0.5, rng)
        with pytest.raises(ValueError, match="v is not tangent at x"):
            integrate_jacobi(m, p, np.zeros((2, 2)), v + 0.1 * p)
        with pytest.raises(ValueError, match="v is not tangent at x"):
            integrate_jacobi(m, p, np.zeros((2, 2)), v + 1e-12 * p)

    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0)], ids=["sphere", "hyperbolic"])
    def test_rounding_level_inputs_pass(self, m, rng):
        # points and tangents a few ulps off the model, as exp, log and
        # tangent_frame leave them, are not refused
        eps = np.finfo(float).eps
        for _ in range(50):
            p = random_point(m, rng, 0.9)
            v = random_tangent(m, p, rng.uniform(0.0, 1.5), rng)
            p2 = p * (1.0 + 4.0 * eps * rng.choice([-1.0, 1.0], size=3))
            v2 = v + 4.0 * eps * np.linalg.norm(p) * rng.choice([-1.0, 1.0], size=3)
            integrate_jacobi(m, p2, np.zeros((2, 2)), v2, 64)
            integrate_jacobi(m, p, np.zeros((2, 2)), m.log(p, m.exp(p, v)), 64)


EPS = np.finfo(float).eps
EDGE_MODELS = [euclidean(), gaussian_plane(1.0), sphere(1.0), sphere(4.0), hyperbolic(1.0),
               hyperbolic(0.25)]
CURVED = [m for m in EDGE_MODELS if not m.is_flat_chart]
SLOT_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]


def _ulps(value, k):
    """value moved by k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


def _base_case(draw, models):
    """A model, a point on it, a unit tangent there, and a symmetric H."""
    m = draw(st.sampled_from(models))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_point(m, gen, 0.6)
    e = random_tangent(m, p, 1.0, gen)
    h = gen.normal(size=3)
    return m, p, e, np.array([[h[0], h[1]], [h[1], h[2]]])


@st.composite
def edge_inputs(draw):
    """(kind, m, x, H, v) at the edges of integrate_jacobi's input checks."""
    kind = draw(st.sampled_from(["slot", "off-model", "tangency", "asymmetry", "cut band",
                                 "cosh range"]))
    m, x, e, H = _base_case(draw, CURVED if kind in ("off-model", "tangency") else EDGE_MODELS)
    v = draw(st.floats(0.0, 1.5)) * e
    k = draw(st.integers(-4, 4))
    if kind == "slot":   # a special value in one slot of x, v or H
        value = draw(st.sampled_from(SLOT_VALUES))
        a = draw(st.sampled_from([x, v, H])).reshape(-1)
        a[draw(st.integers(0, a.size - 1))] = value
    elif kind == "off-model":   # |<x, x> - 1/kappa| near 32 eps |x|^2, either side
        side = draw(st.sampled_from([-1.0, 1.0]))
        s = 1.0 / math.sqrt(1.0 - side * 32.0 * EPS * abs(m.sectional()) * float(x @ x))
        x = x * _ulps(s, k)
    elif kind == "tangency":   # |<x, v>| near 32 eps |x| (|x| + |v|) |x| sqrt|kappa|
        xn = math.sqrt(float(x @ x))
        bound = 32.0 * EPS * xn * (xn + math.sqrt(float(v @ v))) * xn * math.sqrt(abs(m.sectional()))
        # lower(x) @ x = 1/kappa, so v + c x moves <x, v> by c / kappa
        c = bound * m.sectional() * draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.9, 1.1))
        v = v + _ulps(c, k) * x
    elif kind == "asymmetry":   # |H01 - H10| at 1e-12 and a few ulps either side
        H[0, 1] *= draw(st.sampled_from([0.0, 1.0]))   # at 0 the difference is exact
        H[1, 0] = H[0, 1] + _ulps(1e-12, k) * draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "cut band" and m.sectional() > 0:   # speeds in [pi - 1e-15, pi], a few ulps apart
        v = _ulps(m.cut_radius, -draw(st.integers(0, 4))) * e
    elif kind == "cosh range" and m.sectional() < 0:   # s L either side of acosh(max float)
        v = _ulps(_COSH_MAX / math.sqrt(-m.sectional()), k) * m.tangent_frame(m.origin())[0]
        x = m.origin()
    return kind, m, x, H, v


def _outcome(f, m, x, H, v):
    """("refused", message) or ("state", the state), warnings silenced."""
    with np.errstate(all="ignore"):
        try:
            return "state", f(m, x.copy(), H.copy(), v.copy(), 64)
        except ValueError as e:
            return "refused", str(e)


class TestFloatChecks:
    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(edge_inputs())
    def test_decide_as_the_array_checks(self, case):
        # each edge input is refused with the oracle's message, or gives
        # its J, cs, sn, gamma and weight_ratio bit for bit
        got, want = _outcome(integrate_jacobi, *case[1:]), _outcome(array_checked_jacobi, *case[1:])
        assert got[0] == want[0], (got, want)
        if got[0] == "refused":
            assert got[1] == want[1]
            return
        for name in ("times", "J", "cs", "sn", "gamma", "weight_ratio"):
            a, b = getattr(got[1], name), getattr(want[1], name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_edges_reach_both_outcomes(self):
        # each kind of edge input reaches its check from both sides: a
        # returned state and the check's refusal
        seen = set()

        @settings(derandomize=True, max_examples=600, deadline=None, database=None)
        @given(edge_inputs())
        def collect(case):
            outcome, out = _outcome(integrate_jacobi, *case[1:])
            seen.add((case[0], out.split(" (")[0] if outcome == "refused" else outcome))

        collect()
        assert {("slot", "x must be finite"), ("slot", "v must be finite"),
                ("slot", "initial Hessian must be finite"), ("slot", "state"),
                ("off-model", "x is not a point of the sphere model"),
                ("off-model", "x is not a point of the hyperbolic model"), ("off-model", "state"),
                ("tangency", "v is not tangent at x"), ("tangency", "state"),
                ("asymmetry", "initial Hessian must be symmetric"), ("asymmetry", "state"),
                ("cut band", "initial speed exceeds the cut radius"),
                ("cut band", "tangent norm exceeds the cut radius"), ("cut band", "state"),
                ("cosh range", "exp on the hyperbolic model"), ("cosh range", "state")} <= seen, seen

    @pytest.mark.parametrize("m", [sphere(1.0), hyperbolic(1.0)], ids=["sphere", "hyperbolic"])
    def test_tangency_decided_by_the_ordered_sum(self, m):
        # v = a tangent plus s x, with s drawn so that <x, v> lands within 0.5%
        # of its bound 32 eps |x| (|x| + |v|) |x| sqrt|kappa|.  Each input is
        # accepted exactly when the ordered sum (x0 v0 + x1 v1) +- x2 v2 is
        # within the bound.  On some of them the exactly rounded dot, which
        # a dot that fuses multiply-adds approaches, decides otherwise (and
        # so does a @ b wherever the BLAS fuses them)
        gen = seeded_rng(7, f"ordered-dot-{m.kind}")
        kappa = m.sectional()
        outcomes, other = set(), 0
        for _ in range(400):
            x = random_point(m, gen, 0.4)
            vt = random_tangent(m, x, gen.uniform(0.1, 1.0), gen)
            xn = math.sqrt(ordered_dot(x, x))
            bound = _ROUND_TOL * (xn * (xn + math.sqrt(ordered_dot(vt, vt))) * xn)
            v = vt + (kappa * bound * gen.uniform(0.995, 1.005)) * x
            vn = math.sqrt(ordered_dot(v, v))
            bound = _ROUND_TOL * (xn * (xn + vn) * xn * math.sqrt(abs(kappa)))
            lx = m.lower(x)
            within = abs(ordered_dot(lx, v)) <= bound
            exact = float(sum(Fraction(a) * Fraction(b) for a, b in zip(lx.tolist(), v.tolist())))
            other += (abs(exact) <= bound) != within
            try:
                integrate_jacobi(m, x, np.zeros((2, 2)), v, 64)
                accepted = True
            except ValueError as e:
                assert str(e) == "v is not tangent at x"
                accepted = False
            assert accepted == within, (x.tolist(), v.tolist())
            outcomes.add(accepted)
        assert outcomes == {True, False}
        assert other > 0

    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    def test_states_share_no_array(self, m, rng):
        # the time grid is cached; each state writes into its own arrays
        # (base and v are the caller's own)
        p = random_point(m, rng, 0.3)
        v = random_tangent(m, p, 0.5, rng)
        states = [integrate_jacobi(m, p, np.zeros((2, 2)), v, 64) for _ in range(2)]
        arrays = [getattr(st_, f) for st_ in states
                  for f in ("times", "J", "cs", "sn", "weight_ratio", "gamma")]
        for i, a in enumerate(arrays):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        states[0].times[:] = -1.0
        assert np.array_equal(integrate_jacobi(m, p, np.zeros((2, 2)), v, 64).times,
                              np.linspace(0.0, 1.0, 65))


class TestDnFunctional:
    def test_identity_states(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.zeros((2, 2)), np.array([0.2, 0.0]))
        assert np.allclose(dn_functional(st, 2.0), 1.0, atol=1e-12)
        assert np.allclose(dn_functional(st, math.inf), 0.0, atol=1e-12)

    def test_euclid_quadratic_dn(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), np.eye(2), np.array([0.1, 0.1]), 128)
        assert np.max(np.abs(dn_functional(st, 2.0) - (1.0 + st.times))) < 1e-12

    def test_truncation_at_sign_change(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), -2.0 * np.eye(2), np.array([0.1, 0.0]), 128)
        t0 = st.times[np.flatnonzero(st.det() * st.weight_ratio <= 0.0)[0]]
        assert t0 == pytest.approx(0.5, abs=1e-2)
        D = dn_functional(st, 2.0)
        assert np.all(np.isnan(D[st.times >= 0.5 + 1e-2]))

    def test_nan_determinant_ends_the_prefix(self):
        # a sample whose determinant is not a positive number ends the valid
        # prefix, as a zero does: the finite samples after it are not read
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), 0.5 * np.eye(2), np.array([0.3, 0.1]), 256)
        st.weight_ratio[100] = np.nan
        D = dn_functional(st, 2.0)
        assert np.all(np.isfinite(D[:100])) and np.all(np.isnan(D[100:]))
        assert verify_comparison(st, m, 2.0, 0.0, r=0.5).diagnostics["n_interior"] == 98


FIVE_CONFIGS = pytest.mark.parametrize("m,N,K", [
    (euclidean(), 2.0, 0.0),
    (sphere(1.0), 2.0, 0.0),
    (hyperbolic(1.0), 2.0, 1.0),
    (gaussian_plane(1.0), 4.0, 0.0),
    (gaussian_plane(1.0), math.inf, 0.0),
], ids=["euclidean", "sphere", "hyperbolic", "gaussian-N4", "gaussian-inf"])


class TestComparison:
    def test_euclidean_equality_branch(self):
        m = euclidean()
        st = integrate_jacobi(m, m.origin(), 0.5 * np.eye(2), np.array([0.3, 0.1]), 256)
        rep = verify_comparison(st, m, 2.0, 0.0, r=0.5)
        assert rep.passed

    def test_uniform_form_failure_is_in_the_stored_sides(self):
        # the comparison itself holds here but the radius-uniform form at
        # r = 0.1 does not: the verdict and the stored sides both say so
        m = hyperbolic(1.0)
        o = m.origin()
        st = integrate_jacobi(m, o, np.zeros((2, 2)), m.tangent_frame(o)[0], 256)
        rep = verify_comparison(st, m, 2.0, 1.0, r=0.1)
        assert not rep.passed
        assert rep.lhs > rep.rhs * (1 + rep.rel_tol) + rep.abs_tol
        assert rep.diagnostics["comparison_gap"] <= rep.abs_tol < rep.lhs
        assert rep.lhs == rep.diagnostics["uniform_form_gap"]

    def test_sphere_numeric(self):
        m = sphere(1.0)
        o = m.origin()
        st = integrate_jacobi(m, o, np.zeros((2, 2)), 0.8 * m.tangent_frame(o)[0], 256)
        assert verify_comparison(st, m, 2.0, 0.0, r=0.4).passed

    def test_gaussian_inf_equality(self):
        m = gaussian_plane(1.0)
        x = np.array([0.3, -0.2])
        v = np.array([0.5, 0.4])
        st = integrate_jacobi(m, x, np.zeros((2, 2)), v, 256)
        D = dn_functional(st, math.inf)
        expect = 0.5 * (x @ x) - 0.5 * np.einsum("ij,ij->i", st.gamma, st.gamma)
        assert np.max(np.abs(D - expect)) < 1e-12
        assert verify_comparison(st, m, math.inf, 0.0, r=0.5).passed

    def test_another_model_refused(self):
        m = sphere(1.0)
        st = integrate_jacobi(m, m.origin(), np.zeros((2, 2)), 0.5 * m.tangent_frame(m.origin())[0])
        with pytest.raises(ValueError, match=r"m is the sphere model \(k=2, lam=0\), but the "
                                             r"state is on the sphere model \(k=1, lam=0\)"):
            verify_comparison(st, sphere(2.0), 2.0, 0.0, r=0.4)

    @FIVE_CONFIGS
    def test_seeded_geodesics(self, m, N, K, rng):
        r = 0.4
        for _ in range(25):
            p = random_point(m, rng, 0.3)
            v = random_tangent(m, p, rng.uniform(0.1, 2.0 * r), rng)
            H = 0.8 * rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            st = integrate_jacobi(m, p, H, v, 256)
            rep = verify_comparison(st, m, N, K, r=r)
            assert rep.passed, rep.diagnostics


    @FIVE_CONFIGS
    def test_trailing_zero_determinant_leaves_report_unchanged(self, m, N, K, rng):
        # one extra sample with J = 0 after t = 1 ends the valid prefix where
        # the all-valid state ends: the interior times, and the report, agree
        for _ in range(10):
            p = random_point(m, rng, 0.3)
            v = random_tangent(m, p, rng.uniform(0.05, 0.8), rng)
            H = 0.3 * rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            st = integrate_jacobi(m, p, H, v, 256)
            assert np.all(np.isfinite(dn_functional(st, N)))
            h = st.times[1] - st.times[0]
            longer = JacobiState(m, p, v, np.append(st.times, 1.0 + h),
                                 np.concatenate([st.J, np.zeros((1, 2, 2))]),
                                 np.append(st.cs, st.cs[-1]), np.append(st.sn, st.sn[-1]),
                                 np.append(st.weight_ratio, 1.0),
                                 np.concatenate([st.gamma, st.gamma[-1:]]))
            assert np.isnan(dn_functional(longer, N)[-1])
            a = verify_comparison(st, m, N, K, r=0.4)
            b = verify_comparison(longer, m, N, K, r=0.4)
            assert a.to_dict() == b.to_dict()
            assert a.diagnostics["n_interior"] == 255

    def test_prefix_valid_sphere_state_matches_direct_computation(self):
        # det J = (1 - 2t)(cos(L t) - 2 sin(L t)/L) first reaches 0 where
        # tan(L t) = L/2, t = 0.4756 for L = 0.8: the verdict reads the
        # interior times of the samples before it
        m = sphere(1.0)
        o = m.origin()
        L, N, r = 0.8, 2.0, 0.4
        st = integrate_jacobi(m, o, -2.0 * np.eye(2), L * m.tangent_frame(o)[0], 256)
        t = st.times
        det = (1.0 - 2.0 * t) * (np.cos(L * t) - 2.0 * np.sin(L * t) / L)
        k = int(np.flatnonzero(det <= 0.0)[0])
        assert t[k - 1] < math.atan(L / 2.0) / L < t[k]
        D = np.sqrt(det[:k])
        h = t[1] - t[0]
        d2 = np.array([(D[i + 1] - 2.0 * D[i] + D[i - 1]) / (h * h) for i in range(1, k - 1)])
        rhs = -(m.sectional() * L * L / N) * D[1:-1]   # Ric(gamma') = kappa L^2
        rep = verify_comparison(st, m, N, 0.0, r=r)
        assert rep.passed
        assert rep.diagnostics["n_interior"] == k - 2
        assert rep.diagnostics["comparison_gap"] == pytest.approx(float(np.max(d2 - rhs)), abs=1e-9)
        assert rep.diagnostics["uniform_form_gap"] == pytest.approx(float(np.max(d2)), abs=1e-9)
        assert rep.diagnostics["fd_scale"] == pytest.approx(
            max(1.0, float(np.max(np.abs(d2))), float(np.max(np.abs(rhs)))), rel=1e-9)

    @pytest.mark.parametrize("N,K,r,match", [
        (2.0, math.nan, 0.4, "K must be finite, not nan"),
        (2.0, math.inf, 0.4, "K must be finite, not inf"),
        (2.0, 1.0, math.nan, "r must be finite and positive, not nan"),
        (2.0, 1.0, math.inf, "r must be finite and positive, not inf"),
        (2.0, 1.0, 0.0, "r must be finite and positive, not 0"),
        (2.0, 1.0, -0.4, "r must be finite and positive, not -0.4"),
        (1.0, 1.0, 0.4, "N must be at least the dimension 2, not 1"),
        (math.nan, 1.0, 0.4, "N must be at least the dimension 2, not nan"),
    ], ids=["K-nan", "K-inf", "r-nan", "r-inf", "r-zero", "r-negative", "N-1", "N-nan"])
    def test_parameters_refused(self, N, K, r, match):
        m = hyperbolic(1.0)
        o = m.origin()
        st = integrate_jacobi(m, o, np.zeros((2, 2)), 0.5 * m.tangent_frame(o)[0])
        with pytest.raises(ValueError, match=match):
            verify_comparison(st, m, N, K, r=r)


FOUR_R = pytest.mark.parametrize(
    "R", [np.zeros((2, 2)), 0.49 * np.eye(2), -np.eye(2), np.diag([0.3, -0.5])],
    ids=["flat", "positive", "negative", "mixed"])


class TestOdeStructure:
    def test_flat_slope_matrix(self):
        J10, J01 = solve_jacobi_pair(np.zeros((2, 2)), 256)
        times = np.linspace(0, 1, 257)
        keep = times >= 0.2
        S = np.linalg.solve(J01[keep], J10[keep])
        assert np.max(np.abs(S - (1.0 / times[keep])[:, None, None] * np.eye(2))) < 1e-10

    def test_trig_and_hyperbolic_closed_forms(self):
        s = 0.7
        J10, J01 = solve_jacobi_pair(s * s * np.eye(2), 256)
        t = np.linspace(0, 1, 257)[128]
        S = np.linalg.solve(J01[128], J10[128])
        assert np.allclose(S, s / math.tan(s * t) * np.eye(2), atol=1e-9)
        J10, J01 = solve_jacobi_pair(-np.eye(2), 256)
        S = np.linalg.solve(J01[128], J10[128])
        assert np.allclose(S, 1.0 / math.tanh(t) * np.eye(2), atol=1e-9)

    @FOUR_R
    def test_structure_and_equivalence(self, R, rng):
        rep = verify_ode_structure(R, rng=rng, n_random=24)
        assert rep.passed, rep.diagnostics

    def test_conjugate_point_reported(self):
        with pytest.raises(ValueError, match="singular"):
            verify_ode_structure((math.pi ** 2) * np.eye(2))

    @FOUR_R
    def test_propagator_matches_stepwise_rk4(self, R, rng):
        # the doubling fills blocks of 1, 2, 4, ... samples: n = 255 ends on a
        # full block, the others on a partial one (of one sample for 64, 256, 512)
        Z0 = np.hstack([np.eye(4), rng.normal(size=(4, 3))])
        for n in (64, 100, 255, 256, 257, 512):
            Z = _rk4_linear(R, Z0, n)
            assert Z.shape == (n + 1, 4, 7)
            assert np.array_equal(Z[0], Z0)
            err = float(np.max(np.abs(Z - _stepwise_rk4(R, Z0, n))))
            assert err < 1e-12, (n, err)

    @FOUR_R
    def test_jacobi_pair_matches_stepwise_rk4(self, R):
        J10, J01 = solve_jacobi_pair(R, 512)
        ref = _stepwise_rk4(R, np.eye(4), 512)
        assert np.max(np.abs(J10 - ref[:, :2, :2])) < 1e-12
        assert np.max(np.abs(J01 - ref[:, :2, 2:])) < 1e-12


def _stepwise_rk4(R, Z0, n):
    """The classical four-stage RK4 step for J'' = -R J, taken n times."""
    h = 1.0 / n
    j, jd = Z0[:2], Z0[2:]
    ref = [Z0]
    for _ in range(n):
        k1j, k1d = jd, -R @ j
        k2j, k2d = jd + 0.5 * h * k1d, -R @ (j + 0.5 * h * k1j)
        k3j, k3d = jd + 0.5 * h * k2d, -R @ (j + 0.5 * h * k2j)
        k4j, k4d = jd + h * k3d, -R @ (j + h * k3j)
        j = j + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
        jd = jd + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        ref.append(np.vstack([j, jd]))
    return np.array(ref)


class TestVelocity:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
    @pytest.mark.parametrize("L", [0.0, 0.4, 0.9])
    def test_matches_centred_difference_of_exp(self, m, L, rng):
        x = random_point(m, rng, 0.5)
        v = random_tangent(m, x, L, rng)
        state = integrate_jacobi(m, x, np.zeros((2, 2)), v, 64)
        idx = slice(None, None, 8)   # the times 0, 1/8, ..., 1
        times = state.times[idx]
        h = 1e-5
        fd = (m.exp(x, (times + h)[:, None] * v) - m.exp(x, (times - h)[:, None] * v)) / (2 * h)
        vel = _velocity(state, idx)
        assert vel.shape == fd.shape
        assert float(np.max(np.abs(vel - fd))) < 1e-8
        if L == 0.0:
            assert not np.any(vel)


class TestContactPositivity:
    def test_det_nonnegative_at_contact_pairs(self):
        # contact condition Hess(u/a) + Hess(rho_y^2/2) >= 0 forces the flow
        # determinant to stay nonnegative up to time 1
        m = sphere(1.0)
        g = build_polar_grid(m, m.origin(), 0.3, 32, 32)
        u = sum_fields([quadratic_field(g, m.origin(), 0.4),
                        bump_field(g, g.points[10, 3], -0.2, 5.0)])
        a = 1.0
        E = np.flatnonzero(g.mask_within(m.origin(), 0.1).ravel())[::5]
        cs = compute_contact_set(u, a, E)
        Y = g.flat_points()[cs.vertex_indices]
        X = refine_contact_points(m, u, a, Y, g.flat_points()[cs.contact_of])
        for x, y in zip(X[:10], Y[:10]):
            v = m.log(x, y)
            L = float(m.tangent_norm(x, v))
            e1 = v / L if L > 0 else m.tangent_frame(x)[0]
            e2 = m.rotate90(x, e1)
            h11, h12, h22 = u.jet(x, (e1, e2))[1] / a
            H = np.array([[h11, h12], [h12, h22]])
            st = integrate_jacobi(m, x, H, v, 128)
            assert float(np.min(st.det())) > -1e-9
            # the flow lands on the vertex at time 1
            assert float(np.max(np.abs(st.gamma[-1] - y))) < 1e-9
