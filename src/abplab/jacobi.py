"""Jacobi fields along geodesics in closed form, and the weighted determinant functional.

The matrix system J'' + R J = 0, J(0) = I, J'(0) = H0, is written in a
parallel frame aligned with the initial velocity v.  On the constant-curvature
models that frame makes R constant, diag(0, kappa |v|^2), so the system
splits into two scalar equations that the models solve exactly.  With
L = |v|, cs(t) = dpsi(L t) and sn(t) = psi(L t) / L (sn(t) = t when L = 0):

    J(t)  = diag(1, cs(t)) + diag(t, sn(t)) H0,
    J'(t) = diag(0, -kappa L^2 sn(t)) + diag(1, cs(t)) H0,

filled at n_steps + 1 evenly spaced times on [0, 1].

The per-time diagnostics feed the concavity comparisons: with

    D_N(t) = (weight_ratio(t) * det J(t))^(1/N),     N < inf
    D_inf(t) = log(weight_ratio(t) * det J(t)),

centered second differences are tested against the curvature form along the
geodesic, and against the radius-uniform bound 4 (K/N) r^2 D_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ModelSpace, _model_label
from .report import CheckReport, check_le

__all__ = [
    "JacobiState",
    "integrate_jacobi",
    "dn_functional",
    "verify_comparison",
]

_FD_SLACK = 1e-5  # verify_comparison's tolerance, relative to the finite-difference scale


@dataclass
class JacobiState:
    model: ModelSpace
    base: np.ndarray
    v: np.ndarray              # initial velocity (gamma'(0))
    times: np.ndarray          # (T,)
    J: np.ndarray              # (T, 2, 2)
    Jdot: np.ndarray           # (T, 2, 2)
    weight_ratio: np.ndarray   # exp(-V(gamma)) / exp(-V(base)) per time
    gamma: np.ndarray          # geodesic samples (T, embedding_dim)

    def det(self) -> np.ndarray:
        """det J(t) per sample time, in closed form on the (T, 2, 2) stack."""
        J = self.J
        return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


def integrate_jacobi(m: ModelSpace, x, initial_hessian, v, n_steps: int = 256) -> JacobiState:
    """Jacobi flow data for the geodesic t -> exp_x(t v), in closed form at
    n_steps + 1 evenly spaced times on [0, 1] (n_steps sample intervals).

    initial_hessian: 2x2 symmetric matrix, the components of Hess u at x in
    the frame e1 = v/|v|, e2 = e1 rotated by +90 degrees (any orthonormal
    frame when v = 0).
    """
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    H0 = np.asarray(initial_hessian, float)
    if np.max(np.abs(H0 - H0.T)) > 1e-12:
        raise ValueError("initial Hessian must be symmetric")
    L = float(m.tangent_norm(x, v))
    if L >= m.cut_radius:
        raise ValueError("initial speed exceeds the cut radius")
    times = np.linspace(0.0, 1.0, n_steps + 1)
    # exp refuses a hyperboloid radius past float64 before cs and sn overflow
    gamma = m.exp(x, times[:, None] * v[None, :])
    cs = m.dpsi(L * times)
    sn = m.psi(L * times) / L if L > 0.0 else times
    J = np.stack([times[:, None] * H0[0], sn[:, None] * H0[1]], axis=1)
    J[:, 0, 0] += 1.0
    J[:, 1, 1] += cs
    Jdot = np.stack([np.broadcast_to(H0[0], (len(times), 2)), cs[:, None] * H0[1]], axis=1)
    Jdot[:, 1, 1] -= m.sectional() * L * L * sn
    wr = np.exp(-(m.weight_V(gamma) - m.weight_V(x)))
    return JacobiState(m, x, v, times, J, Jdot, wr, gamma)


def dn_functional(state: JacobiState, N) -> np.ndarray:
    """D_N(t) samples, NaN from the first nonpositive determinant on.

    Raises ValueError only when the determinant is nonpositive at t = 0; a
    later crossing ends the valid prefix.
    """
    det = state.det() * state.weight_ratio
    bad = np.flatnonzero(det <= 0.0)
    if bad.size and bad[0] == 0:
        raise ValueError("determinant nonpositive at t = 0")
    ok = det > 0
    if bad.size:
        ok[bad[0]:] = False  # the first zero ends the valid sample window
    out = np.full_like(det, np.nan)
    if math.isinf(N):
        out[ok] = np.log(det[ok])
    else:
        out[ok] = det[ok] ** (1.0 / N)
    return out


def verify_comparison(state: JacobiState, m: ModelSpace, N, K: float,
                      r: float) -> CheckReport:
    """Concavity comparison for D_N along the geodesic.

    Checks, at interior sample times with valid determinant,

        D_N'' <= -(1/N) Ric_{N,nu}(gamma') D_N     (N < inf)
        D_inf'' <= -Ric_{inf,nu}(gamma')           (N = inf)

    by centered second differences, and the radius-uniform form
    D_N'' <= 4 (K/N) r^2 D_N  with |gamma'| <= 2r; the stored lhs is the
    larger of the two gaps.  m must be the state's own model.
    """
    if m != state.model:
        raise ValueError(f"m is {_model_label(m)}, but the state is on "
                         f"{_model_label(state.model)}")
    D = dn_functional(state, N)
    h = state.times[1] - state.times[0]
    ok = np.isfinite(D)
    interior = ok[:-2] & ok[1:-1] & ok[2:]
    if interior.sum() < 8:
        raise ValueError("sampling too coarse: too few valid interior times")
    idx = np.flatnonzero(interior) + 1
    d2 = (D[idx + 1] - 2.0 * D[idx] + D[idx - 1]) / (h * h)
    ric = m.ricci_nu_quadratic(state.gamma[idx], _velocity(state, idx), N)
    if math.isinf(N):
        rhs = -ric
        rhs_uniform = 4.0 * K * r * r
    else:
        rhs = -(ric / N) * D[idx]
        rhs_uniform = 4.0 * (K / N) * r * r * D[idx]
    scale = max(1.0, float(np.max(np.abs(d2))), float(np.max(np.abs(rhs))))
    gap = float(np.max(d2 - rhs))
    gap_u = float(np.max(d2 - rhs_uniform))
    return check_le("jacobi-concavity", "determinant-comparison",
                    max(gap, gap_u), 0.0, abs_tol=_FD_SLACK * scale,
                    n_interior=int(interior.sum()), fd_scale=scale,
                    comparison_gap=gap, uniform_form_gap=gap_u)


def _velocity(state: JacobiState, idx) -> np.ndarray:
    """gamma'(t) = -kappa L psi(L t) x + dpsi(L t) v, L = |v|: exact on the models."""
    m = state.model
    x, v = state.base, state.v
    L = float(m.tangent_norm(x, v))
    Lt = L * state.times[idx]
    return ((-m.sectional() * L * m.psi(Lt))[:, None] * x[None, :]
            + m.dpsi(Lt)[:, None] * v[None, :])
