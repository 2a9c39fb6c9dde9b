"""Jacobi matrix ODE along geodesics and the weighted determinant functional.

The matrix system J'' + R J = 0 is integrated in a parallel frame aligned
with the initial velocity.  On the constant-curvature models that frame makes
R constant: diag(0, k |v|^2) on the sphere, diag(0, -k |v|^2) on the
hyperboloid, zero on the flat charts.  With Z = (J; J') the system is
Z' = A Z, A = [[0, I], [-R, 0]], and one classical fixed-step fourth-order
Runge-Kutta step is exactly Z -> P Z with

    P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

so the integrator builds P once and fills the trajectory of a block of initial
data by doubling: with Z[0] = Z0, Z[k : 2k] = P^k Z[0 : k] for k = 1, 2, 4, ...
(the last block cut off at n_steps), squaring P^k between blocks.  That is
ceil(log2(n_steps + 1)) batched products in place of one product per step.

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

from .geometry import ModelSpace
from .report import CheckReport, check_le

__all__ = [
    "JacobiState",
    "curvature_matrix",
    "integrate_jacobi",
    "dn_functional",
    "verify_comparison",
    "verify_ode_structure",
    "solve_jacobi_pair",
]

_FD_SLACK = 1e-5  # verify_comparison's tolerance, relative to the finite-difference scale
_T_MIN = 0.05     # verify_ode_structure screens S(t) from this time on


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


def curvature_matrix(m: ModelSpace, v_norm_sq: float) -> np.ndarray:
    """Constant R in the frame (velocity direction, normal)."""
    sec = m.sectional()
    return np.diag([0.0, sec * v_norm_sq])


def _rk4_linear(R, Z0, n_steps: int) -> np.ndarray:
    """Classical RK4 for J'' = -R J on [0, 1] with fixed steps, R constant.

    Z0 is a (4, m) block of initial data (J; J'); returns the trajectory,
    shape (n_steps + 1, 4, m), with Z[0] = Z0 and Z[i] = P^i Z0.  It is built
    by doubling: Z[k : k + c] = P^k Z[0 : c], c = min(k, n_steps + 1 - k), for
    k = 1, 2, 4, ... up to n_steps, one batched product per power of two.
    """
    h = 1.0 / n_steps
    hA = np.zeros((4, 4))
    hA[:2, 2:] = h * np.eye(2)
    hA[2:, :2] = -h * np.asarray(R, float)
    P = np.eye(4)
    term = np.eye(4)
    for k in range(1, 5):
        term = term @ hA / k
        P = P + term
    Z = np.empty((n_steps + 1,) + np.shape(Z0))
    Z[0] = Z0
    for j in range(int(n_steps).bit_length()):
        k = 1 << j
        c = min(k, n_steps + 1 - k)
        np.matmul(P, Z[:c], out=Z[k:k + c])
        P = P @ P  # P^(2k), for the next block
    return Z


def integrate_jacobi(m: ModelSpace, x, initial_hessian, v, n_steps: int = 256) -> JacobiState:
    """Jacobi flow data for the geodesic t -> exp_x(t v).

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
    Z = _rk4_linear(curvature_matrix(m, L * L), np.vstack([np.eye(2), H0]), n_steps)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    gamma = m.exp(x, times[:, None] * v[None, :])
    wr = np.exp(-(m.weight_V(gamma) - m.weight_V(x)))
    return JacobiState(m, x, v, times, Z[:, :2], Z[:, 2:], wr, gamma)


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


def verify_comparison(state: JacobiState, m: ModelSpace, N, ledger_K: float,
                      r: float) -> CheckReport:
    """Concavity comparison for D_N along the geodesic.

    Checks, at interior sample times with valid determinant,

        D_N'' <= -(1/N) Ric_{N,nu}(gamma') D_N     (N < inf)
        D_inf'' <= -Ric_{inf,nu}(gamma')           (N = inf)

    by centered second differences, and the radius-uniform form
    D_N'' <= 4 (K/N) r^2 D_N  with |gamma'| <= 2r; the stored lhs is the
    larger of the two gaps.
    """
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
        rhs_uniform = 4.0 * ledger_K * r * r
    else:
        rhs = -(ric / N) * D[idx]
        rhs_uniform = 4.0 * (ledger_K / N) * r * r * D[idx]
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


def solve_jacobi_pair(R, n_steps: int = 512):
    """The two normalized Jacobi matrices: J10 (J=I, J'=0) and J01 (J=0, J'=I)."""
    Z = _rk4_linear(R, np.eye(4), n_steps)
    return Z[:, :2, :2], Z[:, :2, 2:]


def verify_ode_structure(R, rng=None, n_random: int = 32) -> CheckReport:
    """Structural facts about S(t) = J01(t)^{-1} J10(t).

    Asserts symmetry and monotone decrease of the eigenvalues of S on the
    solver's time grid from _T_MIN on, and the equivalence, for random
    symmetric initial slopes B:

        B + S(1) >= 0   <=>   det J(t) > 0 on [0, 1)

    with J(0) = I, J'(0) = B.  The scheme is linear, so J = J10 + J01 B.
    Slopes within 0.05 of the spectral boundary are resampled to keep the
    equivalence numerically decidable.
    """
    J10, J01 = solve_jacobi_pair(R)
    use = np.linspace(0.0, 1.0, len(J10)) >= _T_MIN
    dets = np.linalg.det(J01[use])
    if np.any(np.abs(dets) < 1e-12):
        raise ValueError("J01 singular on (0,1]: conjugate-point configuration")
    S = np.linalg.solve(J01[use], J10[use])
    sym = float(np.max(np.abs(S - np.transpose(S, (0, 2, 1)))))
    eigs = np.linalg.eigvalsh(0.5 * (S + np.transpose(S, (0, 2, 1))))
    increase = float(np.max(np.diff(eigs, axis=0)))
    lhs = max(sym - 1e-8, increase - 1e-8)
    diag = dict(symmetry_defect=sym, worst_eig_increase=increase)
    if rng is not None:
        S1 = S[-1]
        mism = 0
        tested = 0
        while tested < n_random:
            B = rng.normal(size=(2, 2)) * 1.5
            B = 0.5 * (B + B.T)
            margin = float(np.min(np.linalg.eigvalsh(B + S1)))
            if abs(margin) < 0.05:
                continue
            tested += 1
            detJ = np.linalg.det(J10[:-1] + J01[:-1] @ B)  # [0, 1) open at the right end
            positive = bool(np.all(detJ > 0.0))
            if positive != (margin > 0.0):
                mism += 1
        diag.update(good_slope_equivalence_mismatches=mism,
                    good_slope_equivalence_samples=tested)
        lhs = max(lhs, mism)
    return check_le("jacobi-slope-matrix", "normalized-slope-structure", lhs, 0.0, **diag)
