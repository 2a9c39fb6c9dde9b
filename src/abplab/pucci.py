"""Extremal second-order operators and the curvature error term.

M_theta^-(H) = sum_{l >= 0} l + theta sum_{l < 0} l over the eigenvalues l of
H; M_theta^+ mirrors it.  They are the envelopes inf/sup of tr(A H) over
symmetric I <= A <= theta I, hence M^- <= tr <= M^+ and the algebra checked
here: M^-(H) = -M^+(-H), monotonicity, sub/superadditivity, trace collapse at
theta = 1.

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

__all__ = ["pucci", "e_theta", "e_theta_bounds",
           "pucci_contact_bound", "extremal_form_gap"]


def pucci(H, theta: float):
    """(M^-, M^+) of a symmetric matrix or a batch of them; theta >= 1."""
    if not theta >= 1.0:
        raise ValueError("ellipticity ratio theta must be >= 1")
    H = np.asarray(H, float)
    asym = np.max(np.abs(H - np.swapaxes(H, -1, -2)))
    if asym > 1e-12:
        raise ValueError(f"input asymmetry {asym:.2e} beyond tolerance")
    Hs = 0.5 * (H + np.swapaxes(H, -1, -2))
    lam = np.linalg.eigvalsh(Hs)
    pos = np.sum(np.maximum(lam, 0.0), axis=-1)
    neg = np.sum(np.minimum(lam, 0.0), axis=-1)
    m_minus = pos + theta * neg
    m_plus = neg + theta * pos
    if H.ndim == 2:
        return float(m_minus), float(m_plus)
    return m_minus, m_plus


def e_theta(m: ModelSpace, r: float, theta: float, n_dense: int = 4096) -> float:
    """sup over rho <= r of M^+[Hess(rho_y^2/2)] - tr[Hess(rho_y^2/2)].

    Eigenvalues of the distance Hessian are (1, transverse(rho)); the excess
    is (theta-1) * (1 + transverse^+).  The analytic supremum is confirmed
    against a dense radial sample.
    """
    if not r < m.cut_radius:
        raise ValueError("radius must stay below the cut radius")
    if m.kind == "hyperbolic":
        analytic = (theta - 1.0) * (1.0 + calH(math.sqrt(m.k) * r))
    else:
        # flat charts have transverse eigenvalue 1; the sphere's decreases
        # from 1, so its supremum also sits at rho -> 0
        analytic = (theta - 1.0) * 2.0
    rho = np.linspace(1e-9, r, n_dense)
    sampled = (theta - 1.0) * (1.0 + np.maximum(m.dist_hessian_transverse(rho), 0.0))
    dense = float(np.max(sampled))
    if dense > analytic * (1.0 + 1e-12) + 1e-12:
        raise AssertionError("dense sample exceeded the analytic supremum")
    return analytic


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


def pucci_contact_bound(u_hessian, dist_hessian, a: float, theta: float) -> CheckReport:
    """tr S <= M^-(S) + a (M^+(H) - tr H) under the contact condition S + aH >= 0.

    This is the two-line trace estimate that lets the extremal operator stand
    in for the Laplacian on contact sets.
    """
    S = np.asarray(u_hessian, float)
    H = np.asarray(dist_hessian, float)
    lam_min = float(np.min(np.linalg.eigvalsh(S + a * H)))
    if lam_min < -1e-12:
        return _premise_failure("pucci-contact", "u_hessian + a dist_hessian >= 0",
                                "extremal-trace-chain", min_eig=lam_min)
    mm, _ = pucci(S, theta)
    _, hp = pucci(H, theta)
    lhs = float(np.trace(S))
    rhs = mm + a * (hp - float(np.trace(H)))
    return check_le("pucci-contact", "extremal-trace-chain", lhs, rhs,
                    abs_tol=1e-10 * max(1.0, abs(lhs), abs(rhs)),
                    contact_min_eig=lam_min)


def extremal_form_gap(H, theta: float, rng, n_samples: int = 200) -> dict:
    """Stress the inf/sup envelope form of the extremal operators.

    Random admissible A = Q diag(unif[1, theta]) Q^T give tr(A H) inside
    [M^-, M^+]; the eigenbasis-diagonal extremal choice attains each end.
    """
    H = np.asarray(H, float)
    mm, mp = pucci(H, theta)
    worst_low, worst_high = 0.0, 0.0
    for _ in range(n_samples):
        X = rng.normal(size=H.shape)
        Q, _ = np.linalg.qr(X)
        A = Q @ np.diag(rng.uniform(1.0, theta, size=H.shape[0])) @ Q.T
        t = float(np.trace(A @ H))
        worst_low = max(worst_low, mm - t)
        worst_high = max(worst_high, t - mp)
    lam, V = np.linalg.eigh(0.5 * (H + H.T))
    A_min = V @ np.diag(np.where(lam < 0, theta, 1.0)) @ V.T
    A_max = V @ np.diag(np.where(lam >= 0, theta, 1.0)) @ V.T
    return {
        "worst_below_minus": worst_low,
        "worst_above_plus": worst_high,
        "attain_minus_gap": abs(float(np.trace(A_min @ H)) - mm),
        "attain_plus_gap": abs(float(np.trace(A_max @ H)) - mp),
    }
