"""Batch driver: build experiments from flags or a JSON config, emit reports.

Exit status: 0 when every check passes, 1 when any check fails, 2 on
usage/config errors.  Reports are written atomically; rerunning with the same
seed produces byte-identical files (randomness comes from the counter-based
Philox4x64-10 generator keyed by the seed, and no timestamps are recorded).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import geometry
from .abp import AbpInstance, abp_check, disc_vertex_indices
from .barrier import BarrierSpec, check_ricci_comparison, junction_residuals, verify_barrier
from .constants import CurvatureParams, build_ledger, verify_ledger
from .contact import compute_contact_set, gradient_contact_residual
from .fields import ScalarField, constant_field, quadratic_field, random_bump_field, sum_fields
from .geometry import _model_label, build_polar_grid
from .harnack import growth_check, harnack_check_full, harnack_check_sub, harnack_check_sup
from .hfun import expansion_fit, hfun_closed_form, hfun_numeric
from .measure import doubling_check
from .pde import DirichletProblem, solve_poisson
from .pucci import check_algebra, e_theta, e_theta_bounds, pucci_contact_bound
from .report import check_eq, check_le, emit_csv, emit_json, emit_plotdata, seeded_rng, write_atomic

def build_model(args) -> geometry.ModelSpace:
    if args.model == "euclidean":
        return geometry.euclidean()
    if args.model == "gaussian":
        return geometry.gaussian_plane(getattr(args, "lam"))
    return getattr(geometry, args.model)(args.k)  # sphere or hyperbolic


def _params(args) -> CurvatureParams:
    return CurvatureParams(args.K, args.N, args.R)


def _scan_grid(m, r, resolution) -> geometry.GeodesicBallGrid:
    """The polar grid of radius r about the origin that a contact scan runs
    on.  ValueError when the stored points miss the ring gap drho between
    two adjacent nodes of a ray by more than 1e-5 drho, as on the
    hyperboloid of k = 1 from r = 12.75 up at 32^2: the Newton refinement,
    the gradient residual and the field values read those points, and their
    verdicts are lost with the gap."""
    grid = build_polar_grid(m, m.origin(), r, resolution, resolution)
    P = grid.points
    if np.max(np.abs(m.distance(P[:-1], P[1:]) - grid.drho)) > 1e-5 * grid.drho:
        raise ValueError(f"radius {r:g} is too large for a contact scan on {_model_label(m)}: "
                         f"the {resolution}^2 grid's stored points cannot resolve its ring gaps")
    return grid


# -- subcommand handlers -----------------------------------------------------
#
# Each returns (reports, payload, files): payload adds keys to the JSON
# report, and files maps a file-name suffix to the text written beside it.

def cmd_constants(args):
    ledger = build_ledger(_params(args))
    reports = verify_ledger(ledger)
    return reports, {"ledger": ledger.to_dict()}, {}


def cmd_contact(args):
    m = build_model(args)
    grid = _scan_grid(m, args.r, args.resolution)
    u = quadratic_field(grid, m.origin(), args.b)
    E = disc_vertex_indices(grid, grid.radial_rings(0.45 * args.r))
    cs = compute_contact_set(u, args.a, E)
    vertex, node, level = cs.pairs()
    pts = grid.flat_points()
    residuals = gradient_contact_residual(u, args.a, pts[node], pts[vertex])
    lines = ["y_coords,x_coords,min_value,residual"]
    for y, x, c, res in zip(pts[vertex].tolist(), pts[node].tolist(), level.tolist(),
                            residuals.tolist()):
        lines.append(f"{';'.join(map(repr, y))},{';'.join(map(repr, x))},{c!r},{res!r}")
    rep = check_le("contact-vertex-coverage", "contact-set-construction",
                   float(len(E)), float(len(cs.contact_of)),
                   n_pairs=len(vertex), n_distinct_contact_nodes=int(len(cs.node_indices)))
    return [rep], {}, {"pairs.csv": "\n".join(lines) + "\n"}


def cmd_abp(args):
    m = build_model(args)
    grid = _scan_grid(m, args.r, args.resolution)
    params = CurvatureParams(args.K, args.N, args.r)   # R = r: no verdict reads R
    n_rings = grid.radial_rings(0.45 * args.r)
    E = disc_vertex_indices(grid, n_rings)
    if args.u == "const":
        u = constant_field(grid, 1.0)
    elif args.u == "quadratic":
        u = quadratic_field(grid, m.origin(), args.b)
    else:
        u = random_bump_field(grid, seeded_rng(args.seed, "abp-cli"),
                              hess_bound=0.5 * args.a)
    rep = abp_check(AbpInstance(m, params, grid, E, u, args.a), n_rings=n_rings)
    return [rep], {}, {}


def cmd_barrier(args):
    m = build_model(args)
    params = _params(args)
    alpha = args.alpha if args.alpha is not None else params.alpha
    spec = BarrierSpec(alpha, m, m.origin(), args.r)
    reports = verify_barrier(spec, params)
    jr = junction_residuals(spec)
    reports.append(check_le("barrier-junction", "barrier-c2-junction",
                            max(jr), 1e-8 * max(1.0, abs(spec.beta1)),
                            value_residual=jr[0], d1_residual=jr[1], d2_residual=jr[2]))
    reports.append(check_ricci_comparison(m, params, m.origin(), args.r))
    return reports, {"alpha": alpha}, {}


def cmd_doubling(args):
    m = build_model(args)
    params = _params(args)
    rng = seeded_rng(args.seed, "doubling")
    reports = []
    # a drawn ball reaches under 0.2 limit + max(r1, 2 r2) <= 1.8 limit from the origin
    limit = min(params.R, 0.45 * m.domain_radius_limit, m.ricci_reach(params.N, params.K) / 1.8)
    for _ in range(args.samples):
        r1 = limit * rng.uniform(0.3, 1.0)
        r2 = r1 * rng.uniform(0.15, 0.8)
        center = _random_center(m, rng, 0.2 * limit)
        reports.append(doubling_check(m, params, center, r1, r2))
    return reports, {}, {}


def cmd_harnack(args):
    m = build_model(args)
    params = _params(args)
    which = args.which
    reports = []
    if which in ("sup", "sub", "full"):
        grid = build_polar_grid(m, m.origin(), 2.0 * params.R, args.resolution, args.resolution)
        rng = seeded_rng(args.seed, f"harnack-{which}")
        bnd = 1.0 + 0.3 * np.cos(grid.theta) + 0.1 * np.sin(2.0 * grid.theta)
        fvals = -np.abs(rng.normal(size=grid.shape))
        try:
            u, _ = solve_poisson(DirichletProblem(grid, fvals, bnd))
        except RuntimeError as e:
            # a solve that misses its tolerance fails the check by name
            reports.append(check_le(f"harnack-{which}", "poisson-solve", 1.0, 0.0,
                                    numerical_failure=str(e)))
        else:
            f = ScalarField(grid, fvals)
            if which == "sup":
                reports.append(harnack_check_sup(params, u, f, bnd))
            elif which == "sub":
                reports.append(harnack_check_sub(params, u, f, args.p, bnd))
            else:
                reports.append(harnack_check_full(params, u, f, bnd))
    elif which == "growth":
        grid = _scan_grid(m, args.r, args.resolution)
        u = sum_fields([constant_field(grid, 1.0 + args.r**2 / 8.0),
                        quadratic_field(grid, m.origin(), -2.0)])
        f = constant_field(grid, 0.0)
        reports.append(growth_check(params, u, f, m.origin(), args.r))
    else:  # pucci
        rng = seeded_rng(args.seed, "harnack-pucci")
        W, H = rng.normal(size=(2, args.samples, 2, 2))
        a = rng.uniform(0.1, 3.0, size=args.samples)
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        rep = pucci_contact_bound(W @ np.swapaxes(W, -1, -2) - a[:, None, None] * H, H, a,
                                  args.theta)
        reports.append(check_le("pucci-contact-battery", "extremal-trace-chain",
                                rep.lhs, rep.rhs, abs_tol=rep.abs_tol,
                                samples=args.samples, **rep.diagnostics))
        ev = e_theta(m, 2.0 * params.R, args.theta)
        br, bs = e_theta_bounds(m, 2.0 * params.R, args.theta, params.K,
                                max(0.0, -m.sectional()))
        reports.append(check_le("curvature-error-term", "distance-hessian-excess",
                                ev, min(br, bs), rel_tol=1e-12,
                                ricci_bound=br, sectional_bound=bs))
    lines = ["quantity,lhs,rhs,slack"]
    for rep in reports:
        lines.append(f"{rep.name},{rep.lhs!r},{rep.rhs!r},{rep.rhs - rep.lhs!r}")
    return reports, {}, {"slack.csv": "\n".join(lines) + "\n"}


def cmd_hfun(args):
    m = build_model(args)
    if m.is_weighted:
        # the closed form is the sharp constant of the Laplacian, through the
        # conformal disc picture; the weighted Laplacian has no such picture
        raise ValueError("hfun's closed form is sharp for the unweighted Laplacian only: "
                         "on the gaussian model --lambda must be 0")
    files = {}
    if args.fit:
        dmax = args.dmax
        if not dmax > 0:
            raise ValueError("--dmax must be positive")
        ds = np.linspace(dmax / 20.0, dmax, args.samples)
        vals = np.array([hfun_closed_form(m, d) for d in ds])
        coeffs, resid = expansion_fit(ds, vals, degree=4)
        sec = m.sectional()
        reports = [
            check_eq("hfun-fit-a0", "harnack-functional-expansion", coeffs[0], 9.0, abs_tol=1e-3),
            check_le("hfun-fit-a1", "harnack-functional-expansion", abs(coeffs[1]), 1e-6),
            check_eq("hfun-fit-a2", "harnack-functional-expansion", coeffs[2], -3.0 * sec,
                     rel_tol=0.01, fit_residual=resid),
        ]
        series = (ds, vals)
    else:
        r = hfun_numeric(m, args.d, args.samples, args.samples)
        reports = [check_eq("hfun-numeric-vs-closed", "harnack-functional-value",
                            r.value_numeric, r.value_closed, rel_tol=1e-3,
                            theta=r.theta_used)]
        series = ([args.d], [r.value_closed])
        files["values.csv"] = ("d,closed,numeric\n"
                               f"{args.d!r},{r.value_closed!r},{r.value_numeric!r}\n")
    files["series.dat"] = emit_plotdata(series)
    return reports, {}, files


def cmd_pucci(args):
    Z = seeded_rng(args.seed, "pucci-identities").normal(size=(args.samples, 3, 2, 2))
    A, B, P = Z[:, 0], Z[:, 1], Z[:, 2]
    return check_algebra(0.5 * (A + np.swapaxes(A, -1, -2)), 0.5 * (B + np.swapaxes(B, -1, -2)),
                         P @ np.swapaxes(P, -1, -2), args.theta), {}, {}


def cmd_all(args):
    reports = []
    ns = argparse.Namespace(**vars(args), fit=False, d=0.5)
    for fn in (cmd_constants, cmd_pucci):
        reports.extend(fn(ns)[0])
    ns.resolution = min(args.resolution, 64)
    for model in ("euclidean", "hyperbolic"):
        ns.model = model
        ns.K = 1.0 if model == "hyperbolic" else 0.0
        reports.extend(cmd_abp(ns)[0])
        reports.extend(cmd_barrier(ns)[0])
        ns.samples = min(args.samples, 20)
        reports.extend(cmd_doubling(ns)[0])
    ns.model = "sphere"
    ns.samples = 128
    reports.extend(cmd_hfun(ns)[0])
    return reports, {}, {}


def _random_center(m, rng, spread):
    e1, e2 = m.tangent_frame(m.origin())
    th = rng.uniform(0.0, 2.0 * math.pi)
    rr = spread * math.sqrt(rng.uniform())
    return m.exp(m.origin(), rr * (math.cos(th) * e1 + math.sin(th) * e2))


# -- argument plumbing --------------------------------------------------------

_FLAGS = {
    "model": dict(default="euclidean", choices=["euclidean", "sphere", "hyperbolic", "gaussian"]),
    "k": dict(type=float, default=1.0, help="curvature magnitude"),
    "lambda": dict(dest="lam", type=float, default=1.0, help="gaussian weight coefficient"),
    "K": dict(type=float, default=0.0),
    "N": dict(type=float, default=2.0),
    "R": dict(type=float, default=1.0),
    "r": dict(type=float, default=1.0),
    "a": dict(type=float, default=1.0),
    "b": dict(type=float, default=1.0),
    "d": dict(type=float, default=0.5),
    "p": dict(type=float, default=1.0),
    "alpha": dict(type=float, default=None),
    "theta": dict(type=float, default=2.0),
    "u": dict(default="quadratic", choices=["const", "quadratic", "random"]),
    "resolution": dict(type=int, default=64),
    "samples": dict(type=int, default=100),
    "which": dict(default="sup", choices=["sup", "sub", "full", "growth", "pucci"]),
    "fit": dict(action="store_true"),
    "dmax": dict(type=float, default=0.12),
    "seed": dict(type=int, default=0),
    "format": dict(default="json", choices=["json", "csv"]),
    "out": dict(default=None),
}

# Each subcommand's handler and the flags it reads.  Every subcommand also
# takes _COMMON, since every report records its seed.  `all` sets model, d and
# fit itself and never builds the gaussian model.
_COMMON = "seed format out"
_SUBCOMMANDS = {
    "constants": (cmd_constants, "K N R"),
    "contact": (cmd_contact, "model k lambda r resolution a b"),
    "abp-check": (cmd_abp, "model k lambda K N r resolution u a b"),
    "barrier-check": (cmd_barrier, "model k lambda K N R r alpha"),
    "doubling": (cmd_doubling, "model k lambda K N R samples"),
    "harnack-check": (cmd_harnack, "model k lambda K N R which resolution p r samples theta"),
    "hfun": (cmd_hfun, "model k lambda d samples fit dmax"),
    "pucci": (cmd_pucci, "samples theta"),
    "all": (cmd_all, "k K N R r resolution u a b alpha samples theta"),
}
# The subcommands whose mode flags pick what runs: each flag, and for each of
# its modes the flags of the row that it reads and some other mode does not.
# Every mode reads the row's remaining flags; main refuses a listed flag the
# mode does not read.  --k is read by the curved models, --lambda by gaussian.
_MODEL = ("model", {"euclidean": "", "sphere": "k", "hyperbolic": "k", "gaussian": "lambda"})
_MODES = {
    "contact": [_MODEL],
    "abp-check": [_MODEL],
    "barrier-check": [_MODEL],
    "doubling": [_MODEL],
    "harnack-check": [("which", {"sup": "resolution N", "sub": "resolution p N",
                                 "full": "resolution N", "growth": "resolution r N",
                                 "pucci": "samples theta"}), _MODEL],
    "hfun": [("fit", {False: "d", True: "dmax"}), _MODEL],
}


@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(prog="abplab", allow_abbrev=False,
                                 description="curvature/measure-estimate verification runs")
    ap.add_argument("--config", help="JSON config file; flags override its values")
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)   # a flag's prefix is no flag
        for flag in (flags + " " + _COMMON).split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def _with_config(parser, argv):
    """argv with the JSON config's keys spliced in as flags after the subcommand.

    The parser then does the types and the choices, and the user's own flags,
    which come later, win.  A config "experiment" stands in for a missing
    subcommand.
    """
    pre = argparse.ArgumentParser(prog="abplab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if not known.config:
        return argv
    try:
        with open(known.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"unreadable config: {e}")
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    bad = sorted(k for k, v in cfg.items() if not isinstance(v, (str, int, float)))
    if bad:
        raise ValueError(f"config values must be strings, numbers or booleans: {bad}")
    experiment = cfg.pop("experiment", None)
    if rest and rest[0] in _SUBCOMMANDS:
        experiment, rest = rest[0], rest[1:]
    if experiment is None:
        raise ValueError("no experiment selected")
    # true switches a flag such as --fit on; false leaves it off
    tokens = {k: f"--{k}" if v is True else f"--{k}={v}" for k, v in cfg.items() if v is not False}
    head = [str(experiment), *tokens.values()]
    _, extra = parser.parse_known_args(head)
    unknown = sorted(k for k, t in tokens.items() if t in extra)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return head + rest


def _refuse_unread_by_mode(args, tokens):
    """Raise ValueError naming each flag of tokens, the command line with the
    config spliced in, that a selected mode of the subcommand does not read."""
    given = {t[2:].split("=")[0] for t in tokens if t.startswith("--")}
    for flag, reads in _MODES.get(args.experiment, ()):
        mode = vars(args)[flag]
        other = {f for r in reads.values() for f in r.split()} - set(reads[mode].split())
        unread = sorted(given & other)
        if not unread:
            continue
        if isinstance(mode, bool):
            label = f"--{flag}" if mode else f"without --{flag}"
        else:
            label = f"--{flag} {mode}"
        verb = "is" if len(unread) == 1 else "are"
        raise ValueError(f"{', '.join('--' + f for f in unread)} {verb} not read by "
                         f"{args.experiment} {label}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        tokens = _with_config(parser, sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(tokens)
        _refuse_unread_by_mode(args, tokens)
        if vars(args).get("samples", 1) < 1:
            raise ValueError("--samples must be at least 1")
        # --N = inf is the dimension-free case; every other float flag is finite
        bad = [f"--{'lambda' if k == 'lam' else k}" for k, v in vars(args).items()
               if k != "N" and isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        reports, payload, files = _SUBCOMMANDS[args.experiment][0](args)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = os.environ.get("ABPLAB_OUT") or args.out
    name = args.experiment.replace("-", "_")
    if out:
        payload.update(experiment=args.experiment, seed=args.seed)
        files["report.json"] = emit_json(reports, payload)
        if args.format == "csv":
            files["report.csv"] = emit_csv(reports)
        try:
            for suffix, text in files.items():
                write_atomic(os.path.join(out, f"{name}_{suffix}"), text)
        except OSError as e:
            print(f"output error: {e}", file=sys.stderr)
            return 2
    for r in reports:
        print(f"[{'pass' if r.passed else 'FAIL'}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
