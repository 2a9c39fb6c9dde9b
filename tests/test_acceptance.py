"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
tolerances and budgets are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from abplab.abp import AbpInstance, abp_check, disc_vertex_indices
from abplab.barrier import (BarrierSpec, barrier_d2h, check_ricci_comparison,
                            junction_residuals, verify_barrier)
from abplab.cli import main as cli_main
from abplab.constants import CurvatureParams, build_ledger, verify_ledger
from abplab.fields import (ScalarField, constant_field, quadratic_field,
                           random_bump_field, sum_fields)
from abplab.geometry import (build_polar_grid, euclidean, gaussian_plane,
                             hyperbolic, sphere)
from abplab.harnack import growth_check, harnack_check_full, harnack_check_sub, harnack_check_sup
from abplab.hfun import expansion_fit, hfun_closed_form, hfun_numeric
from abplab.jacobi import integrate_jacobi, verify_comparison
from abplab.measure import doubling_check
from abplab.pde import DirichletProblem, solve_poisson
from abplab.pucci import e_theta, e_theta_bounds, pucci, pucci_contact_bound
from abplab.report import seeded_rng
from conftest import (BallFamily, lp_distribution_check, random_point, random_tangent,
                      vitali_cover, vitali_verify)

SEED = 20260811


def _verdict(n, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {n}: {label}"
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"


def test_criterion_01_constants_ledger():
    t0 = time.perf_counter()
    ok = True
    for K in (0.0, 0.5, 1.0, 2.0):
        for N in (2.0, 3.0, 5.0):
            for R in (0.5, 1.0, 2.0):
                reports = verify_ledger(build_ledger(CurvatureParams(K, N, R)))
                by_name = {r.name: r for r in reports}
                ok &= abs(by_name["ledger-identity-e"].lhs - math.e) <= 1e-10
                ok &= by_name["ledger-delta0-bound"].passed
                ok &= by_name["ledger-p0-lower"].passed
                ok &= by_name["ledger-c2-finite"].passed
    _verdict(1, "coupled constants on the 4x3x3 grid", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_abp_equality_cases():
    t0 = time.perf_counter()
    m = euclidean()
    params = CurvatureParams(0.0, 2.0, 1.0)
    grid = build_polar_grid(m, m.origin(), 1.0, 256, 256)
    n_rings = grid.radial_rings(0.45)
    E = disc_vertex_indices(grid, n_rings)
    ok = True
    inst = AbpInstance(m, params, grid, E, constant_field(grid, 0.4), 1.0)
    rep = abp_check(inst, set_stride=0, n_rings=n_rings)
    ok &= rep.passed and rep.diagnostics["equality_gap"] <= 1e-3
    gaps = {}
    for b in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            u = quadratic_field(grid, m.origin(), b)
            rep = abp_check(AbpInstance(m, params, grid, E, u, a),
                            set_stride=0, n_rings=n_rings)
            gaps[(b, a)] = rep.diagnostics["equality_gap"]
            ok &= rep.passed and gaps[(b, a)] <= 1e-3
    # refinement: the gap at 512^2 is at most half the 256^2 one (floored at
    # rounding scale; the flat transport evaluation is exact)
    g2 = build_polar_grid(m, m.origin(), 1.0, 512, 512)
    nr2 = g2.radial_rings(0.45)
    rep2 = abp_check(AbpInstance(m, params, g2, disc_vertex_indices(g2, nr2),
                                 quadratic_field(g2, m.origin(), 1.0), 0.5),
                     set_stride=0, n_rings=nr2)
    ok &= rep2.diagnostics["equality_gap"] <= max(0.5 * gaps[(1.0, 0.5)], 1e-12)
    _verdict(2, "measure-estimate equality cases at 256^2", ok,
             time.perf_counter() - t0, 30.0)


@pytest.mark.parametrize("kind,model,params,r", [
    ("sphere K=0", sphere(1.0), CurvatureParams(0.0, 2.0, 0.3), 0.3),
    ("hyperbolic K=1", hyperbolic(1.0), CurvatureParams(1.0, 2.0, 0.5), 0.5),
    ("gaussian N=4", gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.8), 0.8),
    ("gaussian N=inf", gaussian_plane(1.0), CurvatureParams(0.0, math.inf, 0.8), 0.8),
])
def test_criterion_03_abp_inequality(kind, model, params, r):
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, f"acc3-{kind}")
    a = 1.0
    violations = 0
    grid = build_polar_grid(model, model.origin(), r, 48, 48)
    n_rings = grid.radial_rings(0.45 * r)
    E = disc_vertex_indices(grid, n_rings)
    for _ in range(50):
        u = random_bump_field(grid, rng, hess_bound=0.5 * a)
        rep = abp_check(AbpInstance(model, params, grid, E, u, a),
                        set_stride=1, n_rings=n_rings)
        if not rep.passed:
            violations += 1
    _verdict(3, f"measure estimate, 50 random fields on {kind}",
             violations == 0, time.perf_counter() - t0, 300.0)


def test_criterion_04_jacobi_comparison():
    t0 = time.perf_counter()
    m = sphere(1.0)
    o = m.origin()
    s = 0.9
    st = integrate_jacobi(m, o, np.zeros((2, 2)), s * m.tangent_frame(o)[0], 256)
    ok = float(np.max(np.abs(st.det() - np.cos(s * st.times)))) <= 1e-8
    configs = [(euclidean(), 2.0, 0.0), (sphere(1.0), 2.0, 0.0),
               (hyperbolic(1.0), 2.0, 1.0), (gaussian_plane(1.0), 4.0, 0.0),
               (gaussian_plane(1.0), math.inf, 0.0)]
    for model, N, K in configs:
        rng = seeded_rng(SEED, f"acc4-{model.kind}-{N}")
        r = 0.4
        for _ in range(100):
            p = random_point(model, rng, 0.3)
            v = random_tangent(model, p, rng.uniform(0.05, 2.0 * r), rng)
            H = 0.8 * rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            state = integrate_jacobi(model, p, H, v, 256)
            ok &= verify_comparison(state, model, N, K, r=r).passed
    _verdict(4, "determinant comparison, closed form + 100 geodesics/model",
             ok, time.perf_counter() - t0, 120.0)


def test_criterion_05_barrier():
    t0 = time.perf_counter()
    ok = True
    for alpha in (2.0, 3.1, 5.0, 10.0):
        sp = BarrierSpec(alpha)
        scale = max(1.0, abs(barrier_d2h(sp, 1.0 / 18.0)))
        ok &= all(x <= 1e-8 * scale for x in junction_residuals(sp))
    for model, params in ((euclidean(), CurvatureParams(0.0, 2.0, 1.0)),
                          (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0))):
        alpha = build_ledger(params).alpha
        reports = verify_barrier(BarrierSpec(alpha, model, model.origin(), 1.0), params)
        ok &= all(r.passed for r in reports)
    ricci_cases = [(euclidean(), CurvatureParams(0.0, 2.0, 1.0), 2.0),
                   (sphere(1.0), CurvatureParams(0.0, 2.0, 1.0), 1.5),
                   (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0), 2.0),
                   (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 1.0), 0.6)]
    for model, params, rad in ricci_cases:
        y = np.array([0.3, 0.2]) if model.kind == "gaussian_plane" else model.origin()
        ok &= check_ricci_comparison(model, params, y, rad).passed
    _verdict(5, "barrier junction, Laplacian bounds, distance comparison",
             ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_harnack_functional():
    t0 = time.perf_counter()
    ok = abs(hfun_numeric(euclidean(), 1.0, 512, 512).value_numeric - 9.0) <= 1e-3
    for model in (sphere(1.0), hyperbolic(1.0)):
        for phi in (0.1, 0.3, 0.5):
            d = phi * math.sqrt(2.0)
            res = hfun_numeric(model, d, 256, 256)
            ok &= abs(res.value_numeric - res.value_closed) / res.value_closed <= 1e-3
    ds = np.linspace(0.01, 0.12, 20)
    for model, sign in ((sphere(1.0), -1.0), (hyperbolic(1.0), 1.0)):
        coeffs, _ = expansion_fit(ds, [hfun_closed_form(model, d) for d in ds], degree=4)
        ok &= abs(coeffs[0] - 9.0) <= 1e-3
        ok &= abs(coeffs[1]) <= 1e-6
        ok &= abs(coeffs[2] - sign * 3.0) <= 0.01 * 3.0
        ok &= abs(coeffs[4] - 3.0 / 8.0) <= 0.05 * 3.0 / 8.0
    _verdict(6, "harnack functional: 9, curved closed forms, expansion",
             ok, time.perf_counter() - t0, 120.0)


def test_criterion_07_harnack_pipeline():
    t0 = time.perf_counter()
    ok = True
    flat = CurvatureParams(0.0, 2.0, 1.0)
    curved = CurvatureParams(1.0, 2.0, 0.5)
    lf = build_ledger(flat)

    # manufactured instances
    me, ge = euclidean(), build_polar_grid(euclidean(), np.zeros(2), 2.0, 96, 96)
    usup = sum_fields([constant_field(ge, 4.05), quadratic_field(ge, np.zeros(2), -0.5)])
    r = harnack_check_sup(flat, usup, constant_field(ge, 0.0))
    ok &= r.passed and r.diagnostics["sharpness"] == "non-sharp"
    usub = quadratic_field(ge, np.zeros(2), 2.0)
    r = harnack_check_sub(flat, usub, constant_field(ge, 4.0), 1.0)
    ok &= r.passed
    r = harnack_check_sub(flat, usub, constant_field(ge, 4.0), lf.p0)
    ok &= r.passed

    # solver-produced instances on both geometries
    for model, params in ((me, flat), (hyperbolic(1.0), curved)):
        g = build_polar_grid(model, model.origin(), 2.0 * params.R, 96, 96)
        rng = seeded_rng(SEED, f"acc7-{model.kind}")
        bnd = 1.0 + 0.3 * np.cos(g.theta)
        f = -np.abs(rng.normal(size=g.shape)) * 0.2
        u, _ = solve_poisson(DirichletProblem(g, f, bnd))
        ok &= harnack_check_sup(params, u, ScalarField(g, f), bnd).passed
        ok &= harnack_check_sub(params, u, ScalarField(g, f), 1.0, bnd).passed
        u2, _ = solve_poisson(DirichletProblem(g, np.zeros(g.shape), bnd))
        ok &= harnack_check_full(params, u2, constant_field(g, 0.0), bnd).passed

    # named rejections
    uneg = sum_fields([constant_field(ge, 0.5), quadratic_field(ge, np.zeros(2), -0.5)])
    r = harnack_check_sup(flat, uneg, constant_field(ge, 0.0))
    ok &= (not r.passed) and r.diagnostics["violated_premise"] == "u >= 0 on B_2R"
    r = harnack_check_sub(flat, usub, constant_field(ge, 4.0), 0.5 * lf.p0)
    ok &= (not r.passed) and r.diagnostics["violated_premise"] == "p >= p0"
    mh = hyperbolic(1.0)
    gh = build_polar_grid(mh, mh.origin(), 1.0, 96, 96)
    bad = CurvatureParams(0.0, 2.0, 0.5)
    r = harnack_check_full(bad, constant_field(gh, 1.0), constant_field(gh, 0.0))
    ok &= (not r.passed) and "Ric" in r.diagnostics["violated_premise"]

    # growth bound with its contact pipeline on both geometries
    for model, params in ((me, flat), (mh, CurvatureParams(1.0, 2.0, 1.0))):
        g = build_polar_grid(model, model.origin(), 1.0, 96, 96)
        u = sum_fields([constant_field(g, 0.9 + 0.25), quadratic_field(g, model.origin(), -2.0)])
        rep = growth_check(params, u, constant_field(g, 0.0), model.origin(), 1.0)
        ok &= rep.passed and rep.diagnostics["pipeline_pass"]
        ok &= rep.diagnostics["sharpness"] == "non-sharp"
    high = sum_fields([constant_field(ge, 3.0), quadratic_field(ge, np.zeros(2), -0.5)])
    # reuse the euclid growth grid shape for the violating instance
    gg = build_polar_grid(me, np.zeros(2), 1.0, 96, 96)
    high = sum_fields([constant_field(gg, 3.0), quadratic_field(gg, np.zeros(2), -2.0)])
    rep = growth_check(flat, high, constant_field(gg, 0.0), np.zeros(2), 1.0)
    ok &= rep.diagnostics["violated_premise"] == "inf_{B_{r/2}} u <= 1"
    _verdict(7, "harnack pipeline: theorems, rejections, growth bound",
             ok, time.perf_counter() - t0, 300.0)


def test_criterion_08_pucci_appendix():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, "acc8")
    ok = True
    for _ in range(1000):
        th = 1.0 + 3.0 * rng.uniform()
        A = rng.normal(size=(2, 2))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=(2, 2))
        B = 0.5 * (B + B.T)
        am, ap = pucci(A, th)
        bm, bp = pucci(B, th)
        sm, sp = pucci(A + B, th)
        ok &= abs(am + pucci(-A, th)[1]) <= 1e-10
        ok &= am <= np.trace(A) + 1e-12 <= ap + 2e-12
        ok &= sm >= am + bm - 1e-10 and sp <= ap + bp + 1e-10
        m1m, m1p = pucci(A, 1.0)
        ok &= abs(m1m - np.trace(A)) <= 1e-12 and abs(m1p - np.trace(A)) <= 1e-12
        P = rng.normal(size=(2, 2))
        P = P @ P.T
        cm, cp = pucci(A + P, th)
        ok &= cm >= am - 1e-10 and cp >= ap - 1e-10
    cases = [(euclidean(), 0.0, 0.0), (sphere(1.0), 0.0, 0.0),
             (hyperbolic(1.0), 1.0, 1.0), (gaussian_plane(1.0), 0.0, 0.0)]
    for model, K, Ks in cases:
        for radius in (0.5, 1.0):
            for th in (1.5, 3.0):
                val = e_theta(model, radius, th)
                br, bs = e_theta_bounds(model, radius, th, K, Ks)
                ok &= val <= br + 1e-12 and val <= bs + 1e-12
    for _ in range(1000):
        W = rng.normal(size=(2, 2))
        W = W @ W.T
        H = rng.normal(size=(2, 2))
        H = 0.5 * (H + H.T)
        a = rng.uniform(0.1, 3.0)
        ok &= pucci_contact_bound(W - a * H, H, a, 1.0 + 3.0 * rng.uniform()).passed
    _verdict(8, "extremal operator algebra, error term, contact chain",
             ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_measure_tools():
    t0 = time.perf_counter()
    ok = True
    configs = [(euclidean(), CurvatureParams(0.0, 2.0, 1.0)),
               (sphere(1.0), CurvatureParams(0.0, 2.0, 0.7)),
               (hyperbolic(1.0), CurvatureParams(1.0, 2.0, 1.0)),
               (gaussian_plane(1.0), CurvatureParams(0.0, 4.0, 0.9))]
    for model, params in configs:
        rng = seeded_rng(SEED, f"acc9-doubling-{model.kind}")
        limit = min(params.R, 0.45 * model.domain_radius_limit)
        for _ in range(100):
            r1 = limit * rng.uniform(0.3, 1.0)
            r2 = r1 * rng.uniform(0.15, 0.8)
            c = random_point(model, rng, 0.15 * limit)
            ok &= doubling_check(model, params, c, r1, r2).passed
    rng = seeded_rng(SEED, "acc9-vitali")
    for model in (euclidean(), hyperbolic(1.0)):
        centers = np.stack([random_point(model, rng, 1.0) for _ in range(200)])
        radii = rng.uniform(0.02, 0.3, size=200)
        fam = BallFamily(model, centers, radii)
        ok &= vitali_verify(fam, vitali_cover(fam)).passed
    rng = seeded_rng(SEED, "acc9-lp")
    for _ in range(10):
        f = np.exp(rng.normal(size=3000) * rng.uniform(0.3, 1.2))
        w = np.abs(rng.normal(size=3000)) + 0.05
        ok &= lp_distribution_check(f, w, rng.uniform(1.5, 3.0), rng.uniform(0.3, 2.0)).passed
    _verdict(9, "doubling, vitali covers, moment bracketing", ok,
             time.perf_counter() - t0, 120.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    suites = [
        ["doubling", "--model", "hyperbolic", "--k", "1", "--K", "1", "--N", "2",
         "--R", "0.8", "--samples", "20", "--seed", "11", "--format", "csv"],
        ["pucci", "--samples", "100", "--seed", "11", "--format", "csv"],
        ["abp-check", "--model", "euclidean", "--u", "random", "--seed", "11",
         "--resolution", "48"],
        # a curved random field: its node Laplacians are the frame-free trace
        ["abp-check", "--model", "sphere", "--k", "1", "--r", "0.5", "--u", "random",
         "--seed", "11"],
        ["hfun", "--model", "sphere", "--k", "1", "--fit", "--dmax", "0.12",
         "--samples", "12"],
    ]
    ok = True
    for i, argv in enumerate(suites):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}{run}"
            cli_main(argv + ["--out", str(out)])
            files = sorted(p.name for p in out.iterdir())
            blobs.append({name: (out / name).read_bytes() for name in files})
        ok &= blobs[0] == blobs[1]
    _verdict(10, "byte-identical reruns under a fixed seed", ok,
             time.perf_counter() - t0, 60.0)
