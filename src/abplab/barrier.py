"""The radial barrier: cubic core glued C^2 to a power tail at t = 1/18.

    h(t) = beta0 + beta1 t^2 + beta2 t^3          t <= 1/18
           18^alpha - t^(-alpha)                  t >  1/18

with the cubic coefficients

    beta0 = -(1/6) alpha (5 + alpha) 18^alpha
    beta1 = (18^2/2) alpha (3 + alpha) 18^alpha
    beta2 = -(18^3/3) alpha (2 + alpha) 18^alpha.

These coefficients force value and first two derivatives of the two pieces to
agree at the junction 1/18 exactly when the tail constant is 18^alpha (the
cubic vanishes there together with 18^alpha - 18^alpha); the resulting h is
C^2, increasing, with h'(0) = 0 and inf h = h(0) = beta0 >= -alpha^2 18^alpha.

psi = h(rho(x0, .)/r) is the comparison barrier on the ball B_r(x0): its
weighted Laplacian is driven below -N H(w r) outside B_{r/18} and bounded by
972 alpha^3 18^alpha inside.  The inside bound is checked with the 18^alpha
factor, which is the one the glued coefficients actually support; the smaller
4^alpha variant is recorded in the report diagnostics for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CurvatureParams, calH
from .fields import ScalarField, radial_field
from .geometry import GeodesicBallGrid, ModelSpace
from .report import CheckReport, check_le

__all__ = ["BarrierSpec", "barrier_h", "barrier_dh", "barrier_d2h", "barrier_psi",
           "barrier_field", "verify_barrier", "check_ricci_comparison"]

_JUNCTION = 1.0 / 18.0


@dataclass(frozen=True)
class BarrierSpec:
    alpha: float
    model: ModelSpace = None
    center: np.ndarray = None
    r: float = 1.0

    def __post_init__(self):
        if self.alpha < 2.0:
            raise ValueError("barrier exponent alpha must be >= 2")
        if not self.r > 0:
            raise ValueError("barrier radius r must be positive")

    @property
    def beta0(self) -> float:
        a = self.alpha
        return -(1.0 / 6.0) * a * (5.0 + a) * 18.0**a

    @property
    def beta1(self) -> float:
        a = self.alpha
        return (18.0**2 / 2.0) * a * (3.0 + a) * 18.0**a

    @property
    def beta2(self) -> float:
        a = self.alpha
        return -(18.0**3 / 3.0) * a * (2.0 + a) * 18.0**a

    @property
    def junction(self) -> float:
        return _JUNCTION


def barrier_h(spec: BarrierSpec, t):
    t = np.asarray(t, float)
    if np.any(t < 0):
        raise ValueError("h is defined on t >= 0")
    a = spec.alpha
    cubic = spec.beta0 + spec.beta1 * t * t + spec.beta2 * t**3
    ts = np.where(t > _JUNCTION, t, 1.0)
    tail = 18.0**a - ts ** (-a)
    out = np.where(t <= _JUNCTION, cubic, tail)
    return out if out.ndim else float(out)


def barrier_dh(spec: BarrierSpec, t):
    t = np.asarray(t, float)
    a = spec.alpha
    cubic = 2.0 * spec.beta1 * t + 3.0 * spec.beta2 * t * t
    ts = np.where(t > _JUNCTION, t, 1.0)
    tail = a * ts ** (-(a + 1.0))
    out = np.where(t <= _JUNCTION, cubic, tail)
    return out if out.ndim else float(out)


def barrier_d2h(spec: BarrierSpec, t):
    t = np.asarray(t, float)
    a = spec.alpha
    cubic = 2.0 * spec.beta1 + 6.0 * spec.beta2 * t
    ts = np.where(t > _JUNCTION, t, 1.0)
    tail = -a * (a + 1.0) * ts ** (-(a + 2.0))
    out = np.where(t <= _JUNCTION, cubic, tail)
    return out if out.ndim else float(out)


def junction_residuals(spec: BarrierSpec):
    """|cubic - tail| for value and first two derivatives at t = 1/18."""
    a, j = spec.alpha, _JUNCTION
    cubic = (spec.beta0 + spec.beta1 * j * j + spec.beta2 * j**3,
             2.0 * spec.beta1 * j + 3.0 * spec.beta2 * j * j,
             2.0 * spec.beta1 + 6.0 * spec.beta2 * j)
    tail = (18.0**a - j ** (-a),
            a * j ** (-(a + 1.0)),
            -a * (a + 1.0) * j ** (-(a + 2.0)))
    return tuple(abs(c - t) for c, t in zip(cubic, tail))


def barrier_psi(spec: BarrierSpec, p):
    """psi(p) = h(rho(x0, p)/r); radial and continuous on the ball."""
    m, x0, r = spec.model, spec.center, spec.r
    rho = m.distance(np.asarray(x0, float), np.asarray(p, float))
    if np.any(rho >= m.cut_radius):
        raise ValueError("barrier evaluated beyond the cut radius")
    return barrier_h(spec, rho / r)


def barrier_field(grid: GeodesicBallGrid, spec: BarrierSpec) -> ScalarField:
    """The barrier as a ScalarField with piecewise-closed-form derivatives."""
    r = spec.r
    return radial_field(
        grid, spec.center,
        lambda rho: barrier_h(spec, np.asarray(rho) / r),
        lambda rho: barrier_dh(spec, np.asarray(rho) / r) / r,
        lambda rho: barrier_d2h(spec, np.asarray(rho) / r) / (r * r),
    )


def _lap_nu_psi_radial(spec: BarrierSpec, rho):
    """r^2 Delta_nu psi along the radius, via the radial closed form."""
    m, r = spec.model, spec.r
    t = np.asarray(rho, float) / r
    h1 = barrier_dh(spec, t)
    h2 = barrier_d2h(spec, t)
    # Delta_nu f(rho) = f'' + (psi'/psi) f' - V' f'; for the gaussian plane
    # the barrier is centered wherever the ball is, V' is radial only for the
    # origin-centered case handled here
    rho = np.asarray(rho, float)
    small = rho < 1e-12
    safe = np.where(small, 1.0, rho)
    met = np.where(small, 0.0, m.dpsi(safe) / m.psi(safe))
    vr = spec.model.lam * rho if m.kind == "gaussian_plane" else 0.0
    lap = h2 / (r * r) + (met - vr) * h1 / r
    near0 = 2.0 * barrier_d2h(spec, t) / (r * r)  # limit f'' + f'/rho -> 2 f''(0)
    return r * r * np.where(small, near0, lap)


def verify_barrier(spec: BarrierSpec, params: CurvatureParams,
                   n_samples: int = 4000) -> list[CheckReport]:
    """Dense radial verification of the barrier inequalities on the model ball.

    (a) inf h >= -alpha^2 18^alpha
    (b) derivative bounds on both pieces
    (c) r^2 Delta_nu psi / N + H(w r) <= 972 alpha^3 18^alpha on B_{r/18}
    (d) r^2 Delta_nu psi / N + H(w r) <= 0 outside B_{r/18}
    """
    a, N, r = spec.alpha, params.N, spec.r
    w = params.omega
    reports = []

    t = np.linspace(0.0, 4.0, n_samples)
    hv = barrier_h(spec, t)
    reports.append(check_le("barrier-inf", "barrier-lower-bound",
                            -float(np.min(hv)), a * a * 18.0**a,
                            inf_h=float(np.min(hv)), attained_at=float(t[np.argmin(hv)])))

    tc = np.linspace(1e-9, _JUNCTION, n_samples // 2)
    ratio = barrier_dh(spec, tc) / tc
    gap_core = max(
        float(np.max(ratio)) - 972.0 * a * a * 18.0**a,
        float(np.max(np.abs(barrier_d2h(spec, tc) - ratio))) - 972.0 * a * a * 18.0**a,
        -float(np.min(ratio)),  # positivity of h'/t on the core
    )
    tt = np.linspace(_JUNCTION * (1.0 + 1e-9), 4.0, n_samples // 2)
    exact_tail = barrier_d2h(spec, tt) - barrier_dh(spec, tt) / tt \
        + a * (a + 2.0) * tt ** (-(a + 2.0))
    gap_tail = float(np.max(np.abs(exact_tail)))
    reports.append(check_le("barrier-derivatives", "barrier-derivative-bounds",
                            max(gap_core, gap_tail / (a * 18.0**a)), 1e-12,
                            core_gap=gap_core, tail_identity_residual=gap_tail))

    rho_in = np.linspace(0.0, r / 18.0, n_samples // 2)
    lhs_in = _lap_nu_psi_radial(spec, rho_in) / N + calH(w * r)
    bound_in = 972.0 * a**3 * 18.0**a
    reports.append(check_le("barrier-inside", "barrier-laplacian-inside",
                            float(np.max(lhs_in)), bound_in,
                            measured_max=float(np.max(lhs_in)),
                            stated_variant_4_alpha=972.0 * a**3 * 4.0**a))

    rho_out = np.linspace(r / 18.0 * (1 + 1e-9), r * (1.0 - 1e-9), n_samples // 2)
    lhs_out = _lap_nu_psi_radial(spec, rho_out) / N + calH(w * r)
    reports.append(check_le("barrier-outside", "barrier-laplacian-outside",
                            float(np.max(lhs_out)), 0.0,
                            measured_max=float(np.max(lhs_out))))
    return reports


def check_ricci_comparison(m: ModelSpace, params: CurvatureParams, y,
                           sample_radius: float, n_samples: int = 2000,
                           n_dirs: int = 16) -> CheckReport:
    """Delta_nu(rho_y^2/2) <= N H(w rho) on a dense radial sample.

    On the flat weighted plane the left side depends on the direction from y,
    so a fan of directions is sampled; the curvature parameter K must bound
    the Bakry-Emery Ricci from below on the sampled region.
    """
    y = np.asarray(y, float)
    N, w = params.N, params.omega
    rho = np.linspace(1e-9, sample_radius, n_samples)
    if m.kind == "gaussian_plane":
        th = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], -1)
        x = y[None, None, :] + rho[:, None, None] * dirs[None, :, :]
        # Delta(rho^2/2) = 2, minus lam * x . (x - y)
        lhs = 2.0 - m.lam * np.einsum("rdi,rdi->rd", x, x - y[None, None, :])
        lhs = lhs.max(axis=1)
    else:
        lhs = 1.0 + m.dist_hessian_transverse(rho)
    rhs = N * calH(w * rho)
    gap = float(np.max(lhs - rhs))
    return check_le("ricci-comparison", "distance-laplacian-comparison",
                    gap, 0.0, abs_tol=1e-9,
                    max_gap=gap, sample_radius=sample_radius)
