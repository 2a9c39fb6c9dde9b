"""Doubling bounds and the scaled L^p integral."""

from __future__ import annotations

import math

import numpy as np

from .constants import CurvatureParams, _log_doubling
from .fields import ScalarField
from .geometry import ModelSpace
from .report import CheckReport, _premise_failure, check_le

__all__ = ["doubling_check", "integral_I", "log_lp_average"]


def doubling_check(m: ModelSpace, params: CurvatureParams, center,
                   r1: float, r2: float) -> CheckReport:
    """nu[B_r1] / nu[B_r2] <= D_{K,N,R} (r1/r2)^{N eta} for nested balls.

    Also checks the plain two-ball form nu[B_{2 r2}] <= D nu[B_{r2}] when 2 r2
    is inside the cut radius.  Both hold iff the larger of ratio / bound and
    two_ball_ratio / D is at most 1, which is the stored lhs against rhs 1.
    Ric_{N,nu} >= -K g is screened on the origin ball holding every ball measured.
    """
    if not (0 < r2 < r1 <= params.R):
        raise ValueError("need 0 < r2 < r1 <= R")
    if r1 >= m.cut_radius:
        raise ValueError("outer ball exceeds the cut radius")
    K, N, R = params.K, params.N, params.R
    if math.isinf(N):
        raise ValueError("the doubling bound requires N < inf")
    two_ball = 2 * r2 < m.cut_radius
    outer = max(r1, 2 * r2) if two_ball else r1
    gap = params.ricci_gap(m, center, outer)
    if gap > 1e-12:
        return _premise_failure("doubling-ratio", "Ric_{N,nu} >= -K g on the ball",
                                "doubling-estimate", ricci_gap=gap)
    D = math.exp(_log_doubling(K, N, R))
    # the iteration pairing: the exponent is log2 of the same doubling
    # constant that appears as the prefactor
    eta = _log_doubling(K, N, R) / (N * math.log(2.0))
    small = m.ball_measure(center, r2)
    if not small > 0:
        raise ValueError(f"nu[B_r2] underflows to 0 at r2 = {r2:g}")
    ratio = m.ball_measure(center, r1) / small
    bound = D * (r1 / r2) ** (N * eta)
    lhs = ratio / bound
    diag = dict(r1=r1, r2=r2, doubling_constant=D, eta=eta, ratio=ratio, bound=bound)
    if two_ball:
        two = m.ball_measure(center, 2 * r2) / small
        diag["two_ball_ratio"] = two
        lhs = max(lhs, two / D)
    return check_le("doubling-ratio", "doubling-estimate", lhs, 1.0, rel_tol=1e-9, **diag)


def integral_I(params: CurvatureParams, f: ScalarField,
               center, ball_radius: float, q: float) -> float:
    """r^2 (avg over B_r(center) of |f|^{N q})^{1/(N q)} with grid quadrature.

    The average runs over the nodes of f's grid within ball_radius of
    center, in the distance and measure of that grid's model; exact for
    constants.
    """
    if q < 1.0:
        raise ValueError("exponent q must be >= 1")
    grid = f.grid
    mask = grid.mask_within(center, ball_radius)
    if not np.any(mask):
        raise ValueError("no grid nodes inside the requested ball")
    w = grid.weights[mask]
    v = np.abs(f.values[mask])
    p = params.N * q
    if math.isinf(p):
        raise ValueError("integral_I needs finite N")
    return ball_radius**2 * math.exp(log_lp_average(v, w, p))


def log_lp_average(values, weights, p: float) -> float:
    """log of (sum w v^p / sum w)^(1/p) for v >= 0, stable across all p.

    Below |p| = 1e-8 the geometric-mean expansion is exact to double
    precision; any mass on {v = 0} then sends the average to 0 (-inf here).
    """
    v = np.asarray(values, float).reshape(-1)
    w = np.asarray(weights, float).reshape(-1)
    if np.any(v < 0):
        raise ValueError("nonnegative values required")
    W = float(np.sum(w))
    pos = v > 0
    if not np.any(pos):
        return -math.inf
    logs = np.log(v[pos])
    wp = w[pos]
    if abs(p) < 1e-8:
        if float(np.sum(wp)) < W * (1.0 - 1e-15):
            return -math.inf
        return float(np.sum(wp * logs)) / W
    mx = float(np.max(logs))
    s = float(np.sum(wp * np.exp(p * (logs - mx))))
    return mx + (math.log(s) - math.log(W)) / p
