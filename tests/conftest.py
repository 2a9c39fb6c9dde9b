"""Shared fixtures and helpers of the test suite, and the lab checks that only
tests run: Vitali covers and tail-sum moment bracketing (measure), and the
normalized Jacobi pair with its slope-matrix structure, the stacked
construction of J and J', and integrate_jacobi with its inputs checked on
arrays (jacobi)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from abplab.geometry import ModelSpace, _model_label, euclidean, gaussian_plane, hyperbolic, sphere
from abplab.jacobi import _ROUND_TOL, JacobiState, _cs_sn
from abplab.report import CheckReport, check_le, seeded_rng

ALL_MODELS = [euclidean(), sphere(1.0), hyperbolic(1.0), gaussian_plane(1.0)]


@pytest.fixture(params=ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def model(request):
    return request.param


@pytest.fixture
def rng():
    return seeded_rng(20260811, "tests")


def random_tangent(m, p, L, gen):
    e1, e2 = m.tangent_frame(p)
    th = gen.uniform(0.0, 2.0 * np.pi)
    return L * (np.cos(th) * e1 + np.sin(th) * e2)


def random_point(m, gen, spread):
    return m.exp(m.origin(), random_tangent(m, m.origin(), spread * np.sqrt(gen.uniform()), gen))


def fd_gram(m, T, rho, dtheta):
    """det of the first fundamental form of a (rho, theta)-parametrized patch
    T of shape (n_rings, n_theta, d), by finite differences: second-order
    differences in rho (np.gradient) and central differences in theta that
    wrap around each ring, their inner products in the model's own order
    (Minkowski on the hyperboloid).  sqrt(fd_gram(image) / fd_gram(source))
    is an O(h^2) oracle for the area element of a map between patches."""
    t_r = np.gradient(T, rho, axis=0, edge_order=2 if len(rho) > 2 else 1)
    t_t = (np.roll(T, -1, axis=1) - np.roll(T, 1, axis=1)) / (2.0 * dtheta)
    g11 = m.tangent_inner(T, t_r, t_r)
    g22 = m.tangent_inner(T, t_t, t_t)
    g12 = m.tangent_inner(T, t_r, t_t)
    return g11 * g22 - g12 * g12


# -- measure: tail-sum moment bracketing and Vitali covers ---------------------

_K_CAP = 10_000  # most tail-sum terms of lp_distribution_check


@dataclass
class BallFamily:
    model: ModelSpace
    centers: np.ndarray   # (n, embedding_dim)
    radii: np.ndarray     # (n,)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, float)
        self.radii = np.asarray(self.radii, float)
        if len(self.centers) != len(self.radii):
            raise ValueError("centers and radii must align")
        if np.any(self.radii <= 0):
            raise ValueError("radii must be positive")
        if not np.all(np.isfinite(self.radii)):
            raise ValueError("the family needs bounded radii")


def lp_distribution_check(f_values, weights, C: float, p: float) -> CheckReport:
    """Bracket the p-th moment by the geometric tail sums.

    With lam(t) = relative measure of {f > t} (the upper tail) and
    S = sum_{k>=0} C^{pk} lam(C^k):

        (1 - C^{-p}) S + C^{-p} lam(1)  <=  avg f^p  <=  1 + (C^p - 1) S.

    The sum terminates exactly once C^k clears max f; a cap guards runaway
    growth past _K_CAP terms and triggers a divergent-sum report.
    """
    if C <= 1.0:
        raise ValueError("C must exceed 1")
    if p <= 0:
        raise ValueError("p must be positive")
    f = np.asarray(f_values, float).reshape(-1)
    w = np.asarray(weights, float).reshape(-1)
    if np.any(f < 0):
        raise ValueError("distribution bracketing needs f >= 0")
    W = float(np.sum(w))
    fmax = float(np.max(f))
    S, k = 0.0, 0
    while C**k <= fmax:
        if k > _K_CAP:
            return check_le("lp-bracketing", "tail-sum-moment-bounds", 1.0, 0.0,
                            divergent_sum=True)
        S += C ** (p * k) * (float(np.sum(w[f > C**k])) / W)
        k += 1
    lam1 = float(np.sum(w[f > 1.0])) / W
    moment = float(np.sum(w * f**p)) / W
    lower = (1.0 - C ** (-p)) * S + C ** (-p) * lam1
    upper = 1.0 + (C**p - 1.0) * S
    gap = max(lower - moment, moment - upper)
    return check_le("lp-bracketing", "tail-sum-moment-bounds", gap, 0.0,
                    abs_tol=1e-12 * max(1.0, moment),
                    lower=lower, moment=moment, upper=upper,
                    truncation_index=k)


def _distance_matrix(fam: BallFamily) -> np.ndarray:
    """rho between every two centers of the family, symmetric bit for bit."""
    return fam.model.distance(fam.centers[:, None], fam.centers[None, :])


def vitali_cover(fam: BallFamily) -> np.ndarray:
    """Greedy quarter-radius selection, largest balls first.

    Selected quarter-balls are pairwise disjoint, and every center of the
    family lies in some selected full ball.
    """
    n = len(fam.radii)
    if n == 0:
        raise ValueError("empty ball family")
    D = _distance_matrix(fam)
    blocked = np.zeros(n, dtype=bool)  # quarter-ball meets a chosen one
    chosen: list[int] = []
    for i in np.argsort(-fam.radii, kind="stable"):
        if not blocked[i]:
            chosen.append(int(i))
            blocked |= D[i] < 0.25 * (fam.radii[i] + fam.radii)
    return np.array(chosen, dtype=np.int64)


def vitali_verify(fam: BallFamily, selected: np.ndarray) -> CheckReport:
    """Exhaustive disjointness and coverage audit of a selection."""
    sel = np.asarray(selected, dtype=np.int64)
    D = _distance_matrix(fam)
    r = fam.radii[sel]
    overlap = 0.25 * (r[:, None] + r[None, :]) - D[np.ix_(sel, sel)]
    worst_overlap = float(np.max(overlap[np.triu_indices(len(sel), 1)], initial=-math.inf))
    uncovered = int(np.count_nonzero(~np.any(D[:, sel] <= r + 1e-12, axis=1)))
    return check_le("vitali-cover", "quarter-radius-covering",
                    max(worst_overlap, float(uncovered)), 0.0,
                    n_selected=int(len(sel)), uncovered_centers=uncovered,
                    worst_quarter_overlap=worst_overlap)


# -- jacobi: the normalized pair and its slope matrix ----------------------------

_T_MIN = 0.05  # verify_ode_structure screens S(t) from this time on


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


def solve_jacobi_pair(R, n_steps: int = 512):
    """The two normalized Jacobi matrices: J10 (J=I, J'=0) and J01 (J=0, J'=I)."""
    Z = _rk4_linear(R, np.eye(4), n_steps)
    return Z[:, :2, :2], Z[:, :2, 2:]


def stacked_jacobi(m, x, H0, v, n_steps: int):
    """J, cs and sn of integrate_jacobi, J built by np.stack, an oracle for its
    column writes: the rows t H0[0] and sn H0[1] stacked, then diag(1, cs)
    added in place, with cs = dpsi(L t) and sn = psi(L t)/L (t when L = 0)."""
    H0 = np.asarray(H0, float)
    L = float(m.tangent_norm(x, v))
    times = np.linspace(0.0, 1.0, n_steps + 1)
    cs = m.dpsi(L * times)
    sn = m.psi(L * times) / L if L > 0.0 else times
    J = np.stack([times[:, None] * H0[0], sn[:, None] * H0[1]], axis=1)
    J[:, 0, 0] += 1.0
    J[:, 1, 1] += cs
    return J, cs, sn


def ordered_dot(a, b) -> float:
    """(a0 b0 + a1 b1) + a2 b2 of two 3-vectors, in that order on Python
    floats: numpy's dot may fuse multiply-adds, and the builtin sum
    compensates from Python 3.12 on."""
    (a0, a1, a2), (b0, b1, b2) = np.asarray(a, float).tolist(), np.asarray(b, float).tolist()
    return (a0 * b0 + a1 * b1) + a2 * b2


def array_checked_jacobi(m, x, initial_hessian, v, n_steps: int = 256) -> JacobiState:
    """integrate_jacobi with its inputs checked on arrays, an oracle for the
    checks on Python floats: each input's finiteness by np.isfinite, the
    symmetry on H0 - H0.T, the model and tangency residuals by the model's
    own array methods and the dots in them by ordered_dot, and exp's
    refusals by calling exp(x, v) itself; J and gamma are formed by
    broadcasting over a fresh np.linspace."""
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    H0 = np.asarray(initial_hessian, float)
    for name, a in (("x", x), ("v", v), ("initial Hessian", H0)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    if np.max(np.abs(H0 - H0.T)) > 1e-12:
        raise ValueError("initial Hessian must be symmetric")
    flat = m.is_flat_chart
    if not flat:
        xn = math.sqrt(ordered_dot(x, x))
        if not m.embedding_residual(x) <= _ROUND_TOL * xn * xn:
            raise ValueError(f"x is not a point of {_model_label(m)}")
        scale = xn * (xn + math.sqrt(ordered_dot(v, v))) * xn * math.sqrt(abs(m.sectional()))
        if not abs(ordered_dot(m.lower(x), v)) <= _ROUND_TOL * scale:
            raise ValueError("v is not tangent at x")
    L = float(m.tangent_norm(x, v))
    if L >= m.cut_radius:
        raise ValueError("initial speed exceeds the cut radius")
    if not flat:
        m.exp(x, v)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    cs, sn = _cs_sn(m, L, times)
    J = np.stack([times[:, None] * H0[0], sn[:, None] * H0[1]], axis=1)
    J[:, 0, 0] += 1.0
    J[:, 1, 1] += cs
    gamma = x + times[:, None] * v if flat else cs[:, None] * x + sn[:, None] * v
    wr = np.exp(-(m.weight_V(gamma) - m.weight_V(x))) if m.is_weighted else np.ones(len(times))
    return JacobiState(m, x, v, times, J, cs, sn, wr, gamma)


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
