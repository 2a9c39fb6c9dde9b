"""Jacobi fields along geodesics in closed form, and the weighted determinant functional.

The matrix system J'' + R J = 0, J(0) = I, J'(0) = H0, is written in a
parallel frame aligned with the initial velocity v.  On the constant-curvature
models that frame makes R constant, diag(0, kappa |v|^2), so the system
splits into two scalar equations that the models solve exactly.  With
L = |v|, cs(t) = dpsi(L t) and sn(t) = psi(L t) / L (sn(t) = t when L = 0),
the pair _cs_sn forms and JacobiState keeps,

    J(t)  = diag(1, cs(t)) + diag(t, sn(t)) H0,
    J'(t) = diag(0, -kappa L^2 sn(t)) + diag(1, cs(t)) H0,

J is filled on one cached grid of n_steps + 1 evenly spaced times on
[0, 1]; J' is not stored.  On the curved charts the same pair gives the
geodesic and its velocity,

    gamma(t) = cs(t) x + sn(t) v,     gamma'(t) = -kappa L^2 sn(t) x + cs(t) v,

while the flat charts keep exp's own form x + t v and gamma' = v.  Inputs
are checked on Python floats, exp's refusals at t = 1 as conditions on L.
The measure estimate's transport reads the pair at t = 1 for det J(1).

The per-time diagnostics feed the concavity comparisons: with

    D_N(t) = (weight_ratio(t) * det J(t))^(1/N),     N < inf
    D_inf(t) = log(weight_ratio(t) * det J(t)),

centered second differences are tested against the curvature form along the
geodesic, and against the radius-uniform bound 4 (K/N) r^2 D_N.  The first
determinant that is not positive ends the valid prefix D[:k], and the
differences read the slices D[2:k], D[1:k-1], D[:k-2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (_COSH_MAX, ModelSpace, _euclidean_sum, _model_label,
                       _radius_range_error)
from .report import CheckReport, check_le

__all__ = ["JacobiState", "integrate_jacobi", "dn_functional", "verify_comparison"]

_FD_SLACK = 1e-5  # verify_comparison's tolerance, relative to the finite-difference scale
_ROUND_TOL = 32.0 * np.finfo(float).eps  # integrate_jacobi's input tolerance; see its docstring


@dataclass
class JacobiState:
    model: ModelSpace
    base: np.ndarray
    v: np.ndarray              # initial velocity (gamma'(0))
    times: np.ndarray          # (T,)
    J: np.ndarray              # (T, 2, 2)
    cs: np.ndarray             # dpsi(L t) per time, L = |v|
    sn: np.ndarray             # psi(L t) / L per time (t when L = 0)
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

    x, v and the Hessian must be finite.  On the curved charts, with |.| the
    Euclidean norm of the ambient coordinates, x must lie on the model,
    |<x, x> - 1/kappa| <= 32 eps |x|^2, and v must be tangent at x,
    |<x, v>| <= 32 eps |x| (|x| + |v|) |x| sqrt|kappa|.  Coordinates within
    8 ulps of |x| of a point on the model leave at most 2 sqrt(3) 8 eps |x|^2
    of residual, and evaluating <x, x> and 1/kappa adds 2 eps |x|^2.  A
    tangent formed from points (log, a projection) carries errors on the
    scale |x| + |v|, not |v|; |x| sqrt|kappa|, 1 on the sphere and
    cosh-like on the hyperboloid, is the condition number of projecting an
    ambient vector onto the tangent plane, as tangent_frame does.  Every dot
    of these checks is the ordered float sum (a0 b0 + a1 b1) +- a2 b2, the
    hyperboloid's sign on the last term, so no BLAS that fuses multiply-adds
    moves an input across its bound.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    x, v, H0 = (np.asarray(a, float) for a in (x, v, initial_hessian))
    xs, vs = x.tolist(), v.tolist()
    named = {"x": xs, "v": vs, "initial Hessian": H0.ravel().tolist()}
    bad = [name for name, a in named.items() if not all(map(math.isfinite, a))]
    if bad:
        raise ValueError(f"{bad[0]} must be finite")
    (h00, h01), (h10, h11) = H0.tolist()
    if abs(h01 - h10) > 1e-12:
        raise ValueError("initial Hessian must be symmetric")
    kappa = m.sectional()
    if kappa != 0.0:   # "not <=" also refuses a residual that left float64
        xn = math.sqrt(_euclidean_sum([a * a for a in xs]))
        if not abs(m._isum([a * a for a in xs]) - 1.0 / kappa) <= _ROUND_TOL * xn * xn:
            raise ValueError(f"x is not a point of {_model_label(m)}")
        vn = math.sqrt(_euclidean_sum([a * a for a in vs]))
        scale = xn * (xn + vn) * xn * math.sqrt(abs(kappa))
        if not abs(m._isum([a * b for a, b in zip(xs, vs)])) <= _ROUND_TOL * scale:
            raise ValueError("v is not tangent at x")
    L = _speed(m, vs)
    if L >= m.cut_radius:
        raise ValueError("initial speed exceeds the cut radius")
    if kappa < 0.0 and math.sqrt(-kappa) * L > _COSH_MAX:   # exp's refusals, in its order
        big = float(np.max(np.abs(v)))   # |v| itself may overflow in L
        raise _radius_range_error(f"exp on {_model_label(m)}",
                                  big * float(m.tangent_norm(x, v / big)))
    if L >= m.cut_radius - 1e-15:
        raise ValueError("tangent norm exceeds the cut radius")
    grid = _time_grid(n_steps)
    cs, sn = _cs_sn(m, L, grid)
    J = np.empty((len(grid), 2, 2))
    J[:, 0, 0] = grid * h00 + 1.0
    J[:, 0, 1] = grid * h01
    J[:, 1, 0] = sn * h10
    J[:, 1, 1] = sn * h11 + cs
    gamma = _rows(1.0, xs, grid, vs) if kappa == 0.0 else _rows(cs, xs, sn, vs)
    wr = np.exp(-(m.weight_V(gamma) - m.weight_V(x))) if m.is_weighted else np.ones(len(grid))
    return JacobiState(m, x, v, grid.copy(), J, cs, sn, wr, gamma)


@lru_cache(maxsize=8)
def _time_grid(n_steps: int) -> np.ndarray:
    """The n_steps + 1 evenly spaced times on [0, 1], read-only."""
    t = np.linspace(0.0, 1.0, n_steps + 1)
    t.flags.writeable = False
    return t


def _speed(m: ModelSpace, vs) -> float:
    """|v| from the components vs, in tangent_norm's order of operations."""
    return math.sqrt(max(m._isum([a * a for a in vs]), 0.0))


def _rows(c, xs, d, vs) -> np.ndarray:
    """The rows c x + d v, d over the times, one component at a time (the
    result is the transpose of the components' stack)."""
    return np.array([c * a + d * b for a, b in zip(xs, vs)]).T


def _cs_sn(m: ModelSpace, L, t):
    """(cs, sn) = (dpsi(L t), psi(L t) / L), with sn = t where L = 0, for an
    array of speeds L or of times t."""
    Lt = L * t
    moving = L > 0.0
    return m.dpsi(Lt), np.where(moving, m.psi(Lt) / np.where(moving, L, 1.0), t)


def dn_functional(state: JacobiState, N) -> np.ndarray:
    """D_N(t) samples on the valid prefix, NaN from the first sample whose
    determinant is not positive on; ValueError when that sample is t = 0."""
    det = state.det() * state.weight_ratio
    k = _prefix_len(det > 0.0)
    if k == 0:
        raise ValueError("determinant nonpositive at t = 0")
    out = np.empty_like(det)
    out[:k] = np.log(det[:k]) if math.isinf(N) else det[:k] ** (1.0 / N)
    out[k:] = np.nan
    return out


def _prefix_len(ok: np.ndarray) -> int:
    """Length of the leading run of True in ok."""
    k = int(ok.argmin())   # the first False, or 0 when there is none
    return len(ok) if ok[k] else k


def verify_comparison(state: JacobiState, m: ModelSpace, N, K: float,
                      r: float) -> CheckReport:
    """Concavity comparison for D_N along the geodesic.

    Checks, at interior sample times with valid determinant,

        D_N'' <= -(1/N) Ric_{N,nu}(gamma') D_N     (N < inf)
        D_inf'' <= -Ric_{inf,nu}(gamma')           (N = inf)

    by centered second differences, and the radius-uniform form
    D_N'' <= 4 (K/N) r^2 D_N  with |gamma'| <= 2r; the stored lhs is the
    larger of the two gaps.  m must be the state's own model; K must be
    finite, r finite and positive, and N at least m.dim (inf allowed).
    """
    if m != state.model:
        raise ValueError(f"m is {_model_label(m)}, but the state is on "
                         f"{_model_label(state.model)}")
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, not {K:g}")
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be finite and positive, not {r:g}")
    if not N >= m.dim:   # also refuses N = nan
        raise ValueError(f"N must be at least the dimension {m.dim}, not {N:g}")
    D = dn_functional(state, N)
    h = state.times[1] - state.times[0]
    k = _prefix_len(np.isfinite(D))
    n_interior = k - 2
    if n_interior < 8:
        raise ValueError("sampling too coarse: too few valid interior times")
    idx = slice(1, k - 1)
    d2 = (D[2:k] - 2.0 * D[1:k - 1] + D[:k - 2]) / (h * h)
    ric = m.ricci_nu_quadratic(state.gamma[idx], _velocity(state, idx), N)
    if math.isinf(N):
        rhs, rhs_uniform = -ric, 4.0 * K * r * r
    else:
        rhs, rhs_uniform = -(ric / N) * D[idx], 4.0 * (K / N) * r * r * D[idx]
    scale = max(1.0, float(np.abs(d2).max()), float(np.abs(rhs).max()))
    gap = float((d2 - rhs).max())
    gap_u = float((d2 - rhs_uniform).max())
    return check_le("jacobi-concavity", "determinant-comparison",
                    max(gap, gap_u), 0.0, abs_tol=_FD_SLACK * scale,
                    n_interior=n_interior, fd_scale=scale,
                    comparison_gap=gap, uniform_form_gap=gap_u)


def _velocity(state: JacobiState, idx) -> np.ndarray:
    """gamma'(t) at state.times[idx], exact on the models: v itself on the
    flat charts, -kappa L^2 sn(t) x + cs(t) v, L = |v|, on the curved ones,
    from the state's own pair."""
    m = state.model
    x, v = state.base, state.v
    if m.is_flat_chart:
        return np.broadcast_to(v, state.times[idx].shape + v.shape)
    L = _speed(m, v.tolist())
    return _rows(-m.sectional() * L * L * state.sn[idx], x.tolist(), state.cs[idx], v.tolist())
