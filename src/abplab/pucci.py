"""Extremal second-order operators and the curvature error term.

M_theta^-(H) = sum_{l >= 0} l + theta sum_{l < 0} l over the eigenvalues l of
H; M_theta^+ mirrors it.  They are the envelopes inf/sup of tr(A H) over
symmetric I <= A <= theta I, hence M^- <= tr <= M^+ and the algebra checked
here: M^-(H) = -M^+(-H), monotonicity, sub/superadditivity, trace collapse at
theta = 1.  Every matrix here is 2x2, so the eigenvalues come in closed form
and each operation takes one matrix or a (..., 2, 2) stack alike.

E_theta(r) is the worst excess M^+[Hess(rho_y^2/2)] - tr[Hess(rho_y^2/2)]
over pairs within distance r; on the models it has the closed form
(theta - 1) * sup_{rho <= r} (1 + max(transverse eigenvalue, 0)).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import calH
from .geometry import ModelSpace
from .report import CheckReport, _premise_failure, check_le

__all__ = ["pucci", "check_algebra", "e_theta", "e_theta_bounds", "pucci_contact_bound"]


def _eig2(H):
    """Eigenvalues (lo, hi) of the symmetric part of each 2x2 matrix in H, in
    closed form: (a+d)/2 -+ hypot((a-d)/2, b)."""
    mean = 0.5 * (H[..., 0, 0] + H[..., 1, 1])
    rad = np.hypot(0.5 * (H[..., 0, 0] - H[..., 1, 1]), 0.5 * (H[..., 0, 1] + H[..., 1, 0]))
    return mean - rad, mean + rad


def _trace(H):
    return H[..., 0, 0] + H[..., 1, 1]


def pucci(H, theta: float):
    """(M^-, M^+) of a symmetric 2x2 matrix, as floats, or of each matrix of a
    (..., 2, 2) stack, as arrays; theta >= 1.  ValueError if either leaves float64."""
    if not theta >= 1.0:
        raise ValueError("ellipticity ratio theta must be >= 1")
    H = np.asarray(H, float)
    if H.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a (..., 2, 2) stack, got shape {H.shape}")
    asym = np.max(np.abs(H[..., 0, 1] - H[..., 1, 0]))
    if asym > 1e-12:
        raise ValueError(f"input asymmetry {asym:.2e} beyond tolerance")
    lo, hi = _eig2(H)
    pos = np.maximum(lo, 0.0) + np.maximum(hi, 0.0)
    neg = np.minimum(lo, 0.0) + np.minimum(hi, 0.0)
    with np.errstate(over="ignore"):
        m_minus = pos + theta * neg
        m_plus = neg + theta * pos
    if not (np.isfinite(m_minus).all() and np.isfinite(m_plus).all()):
        raise ValueError(f"M^- or M^+ leaves float64 at theta = {theta:g}")
    if H.ndim == 2:
        return float(m_minus), float(m_plus)
    return m_minus, m_plus


def check_algebra(A, B, P, theta: float) -> list[CheckReport]:
    """The algebra of the extremal operators over stacks of symmetric A, B and
    positive semidefinite P, one report per identity, sorted by name:

        negation         M^-(A) = -M^+(-A)
        trace_bracket    M^-(A) <= tr A <= M^+(A)
        monotone         M^-(A) <= M^-(A + P) and M^+(A) <= M^+(A + P)
        superadd_minus   M^-(A) + M^-(B) <= M^-(A + B)
        subadd_plus      M^+(A + B) <= M^+(A) + M^+(B)
        theta1_collapse  M^-(A) = M^+(A) = tr A at theta = 1

    Each lhs is the worst violation over the samples, 0 when there is none.
    Each identity holds exactly, but M^+- are sums of terms up to theta times
    an eigenvalue, rounded; abs_tol is 1e-10, or 8 eps times the largest
    |M^+-| or |tr| over the samples where that is larger.
    """
    A, B, P = (np.asarray(M, float) for M in (A, B, P))
    am, ap = pucci(A, theta)
    bm, bp = pucci(B, theta)
    sm, sp = pucci(A + B, theta)
    cm, cp = pucci(A + P, theta)
    m1m, m1p = pucci(A, 1.0)
    tr = _trace(A)
    # M^+-(-A) = -M^-+(A), so A's values cover -A's magnitudes
    scale = max(float(np.max(np.abs(v), initial=0.0))
                for v in (am, ap, bm, bp, sm, sp, cm, cp, m1m, m1p, tr))
    abs_tol = max(1e-10, 8.0 * math.ulp(1.0) * scale)   # ulp(1) = eps
    worst = {
        "negation": np.abs(am + pucci(-A, theta)[1]),
        "trace_bracket": np.maximum(am - tr, tr - ap),
        "monotone": np.maximum(am - cm, ap - cp),
        "superadd_minus": am + bm - sm,
        "subadd_plus": sp - ap - bp,
        "theta1_collapse": np.maximum(np.abs(m1m - tr), np.abs(m1p - tr)),
    }
    return [check_le(f"pucci-{k}", "extremal-operator-algebra", np.max(v, initial=0.0), 0.0,
                     abs_tol=abs_tol, samples=int(np.size(tr)))
            for k, v in sorted(worst.items())]


def e_theta(m: ModelSpace, r: float, theta: float) -> float:
    """sup over rho <= r of M^+[Hess(rho_y^2/2)] - tr[Hess(rho_y^2/2)].

    Eigenvalues of the distance Hessian are (1, transverse(rho)); the excess
    is (theta-1) * (1 + transverse^+), and transverse is monotone in rho from
    1 at rho = 0, so the supremum sits at an end of [0, r].
    """
    if not r < m.cut_radius:
        raise ValueError("radius must stay below the cut radius")
    return (theta - 1.0) * (1.0 + max(1.0, float(m.dist_hessian_transverse(r))))


def e_theta_bounds(m: ModelSpace, r: float, theta: float, K: float, K_sec: float):
    """Comparison-theorem bounds for E_theta(r), radius-consistent forms.

    * Ricci route (distance Hessians nonnegative within r):
        (theta-1) (1 + (n-1) H(omega_{K,n} r)),  omega_{K,n} = 2 sqrt(K/n)
    * sectional route (sec >= -K_sec):
        (theta-1) (1 + (n-1) H(sqrt(K_sec) r))
    Both are evaluated at the same radius r that bounds the pair distance.
    """
    n = m.dim
    ric = (theta - 1.0) * (1.0 + (n - 1) * calH(2.0 * math.sqrt(K / n) * r))
    sec = (theta - 1.0) * (1.0 + (n - 1) * calH(math.sqrt(max(K_sec, 0.0)) * r))
    return ric, sec


def pucci_contact_bound(u_hessian, dist_hessian, a, theta: float) -> CheckReport:
    """tr S <= M^-(S) + a (M^+(H) - tr H) under the contact condition S + aH >= 0.

    This is the two-line trace estimate that lets the extremal operator stand
    in for the Laplacian on contact sets.  S and H may be (..., 2, 2) stacks
    with a scalar or per-sample a; the report then holds lhs and rhs at the
    sample with the least margin, so it fails when any sample fails, and any
    sample that violates the premise, up to 1e-12 max(1, |S|, a|H|), fails it.
    """
    S = np.asarray(u_hessian, float)
    H = np.asarray(dist_hessian, float)
    a = np.asarray(a, float)
    lo = _eig2(S + a[..., None, None] * H)[0]
    scale = np.maximum(np.maximum(1.0, np.abs(S).max((-2, -1))), a * np.abs(H).max((-2, -1)))
    lam_min = float(np.min(lo))
    if np.any(lo < -1e-12 * scale):
        return _premise_failure("pucci-contact", "u_hessian + a dist_hessian >= 0",
                                "extremal-trace-chain", min_eig=lam_min)
    mm, _ = pucci(S, theta)
    _, hp = pucci(H, theta)
    lhs, rhs = (np.ravel(v) for v in np.broadcast_arrays(_trace(S), mm + a * (hp - _trace(H))))
    tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    i = np.argmin(rhs + tol - lhs)
    return check_le("pucci-contact", "extremal-trace-chain", lhs[i], rhs[i],
                    abs_tol=float(tol[i]), contact_min_eig=lam_min)

