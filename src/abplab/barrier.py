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
from .fields import ScalarField, _laplacian_nu, _radial_derivatives, radial_field
from .geometry import GeodesicBallGrid, ModelSpace
from .report import CheckReport, check_le

__all__ = ["BarrierSpec", "barrier_h", "barrier_dh", "barrier_d2h", "barrier_psi",
           "barrier_field", "verify_barrier", "check_ricci_comparison"]

_JUNCTION = 1.0 / 18.0
_BARRIER_SAMPLES = 4000  # samples of inf h in verify_barrier; its other pieces take half
_FAN_SAMPLES = 2000      # radii per ray of the Ricci comparison fan
_FAN_DIRS = 16           # rays of that fan


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
    """r^2 Delta_nu psi at the distances rho along one ray from the centre."""
    m, r = spec.model, spec.r
    x0 = np.asarray(spec.center, float)
    p = m.exp(x0, np.asarray(rho, float)[:, None] * m.tangent_frame(x0)[0])
    grad, lap = _radial_derivatives(m, x0, p, lambda s: barrier_dh(spec, s / r) / r,
                                    lambda s: barrier_d2h(spec, s / r) / (r * r))
    return r * r * _laplacian_nu(m, p, grad, lap)


def verify_barrier(spec: BarrierSpec, params: CurvatureParams) -> list[CheckReport]:
    """Dense radial verification of the barrier inequalities on the model ball;
    Delta_nu psi is sampled along one ray from the centre, by the same fields
    calculus as the contact refinement.

    (a) inf h >= -alpha^2 18^alpha
    (b) derivative bounds on both pieces
    (c) r^2 Delta_nu psi / N + H(w r) <= 972 alpha^3 18^alpha on B_{r/18}
    (d) r^2 Delta_nu psi / N + H(w r) <= 0 outside B_{r/18}
    """
    a, N, r = spec.alpha, params.N, spec.r
    w = params.omega
    reports = []

    t = np.linspace(0.0, 4.0, _BARRIER_SAMPLES)
    hv = barrier_h(spec, t)
    reports.append(check_le("barrier-inf", "barrier-lower-bound",
                            -float(np.min(hv)), a * a * 18.0**a,
                            inf_h=float(np.min(hv)), attained_at=float(t[np.argmin(hv)])))

    tc = np.linspace(1e-9, _JUNCTION, _BARRIER_SAMPLES // 2)
    ratio = barrier_dh(spec, tc) / tc
    gap_core = max(
        float(np.max(ratio)) - 972.0 * a * a * 18.0**a,
        float(np.max(np.abs(barrier_d2h(spec, tc) - ratio))) - 972.0 * a * a * 18.0**a,
        -float(np.min(ratio)),  # positivity of h'/t on the core
    )
    tt = np.linspace(_JUNCTION * (1.0 + 1e-9), 4.0, _BARRIER_SAMPLES // 2)
    exact_tail = barrier_d2h(spec, tt) - barrier_dh(spec, tt) / tt \
        + a * (a + 2.0) * tt ** (-(a + 2.0))
    gap_tail = float(np.max(np.abs(exact_tail)))
    reports.append(check_le("barrier-derivatives", "barrier-derivative-bounds",
                            max(gap_core, gap_tail / (a * 18.0**a)), 1e-12,
                            core_gap=gap_core, tail_identity_residual=gap_tail))

    rho_in = np.linspace(0.0, r / 18.0, _BARRIER_SAMPLES // 2)
    lhs_in = _lap_nu_psi_radial(spec, rho_in) / N + calH(w * r)
    bound_in = 972.0 * a**3 * 18.0**a
    reports.append(check_le("barrier-inside", "barrier-laplacian-inside",
                            float(np.max(lhs_in)), bound_in,
                            measured_max=float(np.max(lhs_in)),
                            stated_variant_4_alpha=972.0 * a**3 * 4.0**a))

    rho_out = np.linspace(r / 18.0 * (1 + 1e-9), r * (1.0 - 1e-9), _BARRIER_SAMPLES // 2)
    lhs_out = _lap_nu_psi_radial(spec, rho_out) / N + calH(w * r)
    reports.append(check_le("barrier-outside", "barrier-laplacian-outside",
                            float(np.max(lhs_out)), 0.0,
                            measured_max=float(np.max(lhs_out))))
    return reports


def check_ricci_comparison(m: ModelSpace, params: CurvatureParams, y,
                           sample_radius: float) -> CheckReport:
    """Delta_nu(rho_y^2/2) <= N H(w rho) on a dense sample of a fan of
    _FAN_DIRS rays from y.

    The left side depends on the direction where the weight is not radial
    about y, so the fan is sampled on every model; the curvature parameter K
    must bound the Bakry-Emery Ricci from below on the sampled region.
    """
    y = np.asarray(y, float)
    N, w = params.N, params.omega
    rho = np.linspace(1e-9, sample_radius, _FAN_SAMPLES)
    th = np.linspace(0.0, 2.0 * math.pi, _FAN_DIRS, endpoint=False)
    e1, e2 = m.tangent_frame(y)
    dirs = np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2
    p = m.exp(y, rho[:, None, None] * dirs[None, :, :])
    grad, lap = _radial_derivatives(m, y, p, lambda s: s, np.ones_like)  # rho^2/2
    lhs = _laplacian_nu(m, p, grad, lap).max(axis=1)
    rhs = N * calH(w * rho)
    gap = float(np.max(lhs - rhs))
    return check_le("ricci-comparison", "distance-laplacian-comparison",
                    gap, 0.0, abs_tol=1e-9,
                    max_gap=gap, sample_radius=sample_radius)
