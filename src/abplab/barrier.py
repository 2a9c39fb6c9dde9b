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
from .geometry import GeodesicBallGrid, ModelSpace, _model_label, _radius_range_error
from .report import CheckReport, check_le

__all__ = ["BarrierSpec", "barrier_h", "barrier_dh", "barrier_d2h", "barrier_field",
           "verify_barrier", "check_ricci_comparison"]

_JUNCTION = 1.0 / 18.0
_ALPHA_MAX = 200.0       # keeps alpha^3 18^(alpha + 2), the checks' largest factor, finite
_BARRIER_SAMPLES = 4000  # samples of inf h in verify_barrier; its other pieces take half
_FAN_SAMPLES = 2000      # radii per ray of the Ricci comparison fan
_FAN_DIRS = 16           # rays of that fan
_TAIL_TOL = 4.5 * np.finfo(float).eps   # the tail identity's rounding; see verify_barrier
_FAN_TOL = 16.0 * np.finfo(float).eps   # the comparison's rounding; see check_ricci_comparison


@dataclass(frozen=True)
class BarrierSpec:
    alpha: float
    model: ModelSpace = None
    center: np.ndarray = None
    r: float = 1.0

    def __post_init__(self):
        if not 2.0 <= self.alpha <= _ALPHA_MAX:
            raise ValueError(f"barrier exponent alpha must be >= 2 and <= {_ALPHA_MAX:g}")
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


# (cubic, tail) of h^(k) at t, k = 0, 1, 2; t a float or an array
_PIECES = (
    (lambda s, t: s.beta0 + s.beta1 * t * t + s.beta2 * t**3,
     lambda s, t: 18.0**s.alpha - t ** (-s.alpha)),
    (lambda s, t: 2.0 * s.beta1 * t + 3.0 * s.beta2 * t * t,
     lambda s, t: s.alpha * t ** (-(s.alpha + 1.0))),
    (lambda s, t: 2.0 * s.beta1 + 6.0 * s.beta2 * t,
     lambda s, t: -s.alpha * (s.alpha + 1.0) * t ** (-(s.alpha + 2.0))),
)


def _glued(spec: BarrierSpec, t, k: int):
    """h^(k)(t): the cubic up to the junction, the tail beyond it."""
    cubic, tail = _PIECES[k]
    t = np.asarray(t, float)
    out = np.where(t <= _JUNCTION, cubic(spec, t), tail(spec, np.where(t > _JUNCTION, t, 1.0)))
    return out if out.ndim else float(out)


def barrier_h(spec: BarrierSpec, t):
    if np.any(np.asarray(t) < 0):
        raise ValueError("h is defined on t >= 0")
    return _glued(spec, t, 0)


def barrier_dh(spec: BarrierSpec, t):
    return _glued(spec, t, 1)


def barrier_d2h(spec: BarrierSpec, t):
    return _glued(spec, t, 2)


def junction_residuals(spec: BarrierSpec):
    """|cubic - tail| for value and first two derivatives at t = 1/18."""
    return tuple(abs(cubic(spec, _JUNCTION) - tail(spec, _JUNCTION)) for cubic, tail in _PIECES)


def barrier_field(grid: GeodesicBallGrid, spec: BarrierSpec) -> ScalarField:
    """The barrier as a ScalarField with piecewise-closed-form derivatives.

    ValueError when spec's model is not grid's: the field lives on the grid.
    """
    if spec.model != grid.model:
        raise ValueError(f"the barrier is on {_model_label(spec.model)}, but the grid is on "
                         f"{_model_label(grid.model)}")
    r = spec.r
    return radial_field(
        grid, spec.center,
        lambda rho: barrier_h(spec, np.asarray(rho) / r),
        lambda rho: barrier_dh(spec, np.asarray(rho) / r) / r,
        lambda rho: barrier_d2h(spec, np.asarray(rho) / r) / (r * r),
    )


def _lap_nu_psi_radial(spec: BarrierSpec, rho):
    """r^2 Delta_nu psi at the distances rho along one ray from the centre;
    ValueError where it is not finite."""
    m, r = spec.model, spec.r
    x0 = np.asarray(spec.center, float)
    with np.errstate(all="ignore"):
        p = m.exp(x0, np.asarray(rho, float)[:, None] * m.tangent_frame(x0)[0])
        grad, lap = _radial_derivatives(m, x0, p, lambda s: barrier_dh(spec, s / r) / r,
                                        lambda s: barrier_d2h(spec, s / r) / (r * r))
        out = r * r * _laplacian_nu(m, p, grad, lap)
    return _finite_laplacian(out, "r^2 Delta_nu psi", r)


def _finite_laplacian(lap, what: str, r: float):
    """lap, or ValueError if a sample is not finite: the radius r leaves float64."""
    if not np.all(np.isfinite(lap)):
        raise _radius_range_error(f"{what} is not finite on the sample", r)
    return lap


def verify_barrier(spec: BarrierSpec, params: CurvatureParams) -> list[CheckReport]:
    """Dense radial verification of the barrier inequalities on the model ball;
    Delta_nu psi is sampled along one ray from the centre, by the same fields
    calculus as the contact refinement.

    (a) inf h >= -alpha^2 18^alpha
    (b) derivative bounds on both pieces; on the tail, the identity
        h'' - h'/t + a(a+2) t^-(a+2) = 0 with a = alpha, each residual
        relative to its terms' sum S = |h''| + |h'/t| + a(a+2) t^-(a+2)
    (c) r^2 Delta_nu psi / N + H(w r) <= 972 alpha^3 18^alpha on B_{r/18}
    (d) r^2 Delta_nu psi / N + H(w r) <= 0 outside B_{r/18}

    The identity's allowance is its rounding, with u = eps/2 and pow
    within one ulp.  h'' and the third term share one pow(t, -(a+2)) and
    carry 3u each besides; h'/t carries 2u besides its own pow(t, -(a+1)),
    and the two sums add 2u S.  The pows' errors, with the rounding of the
    exponents a+1 and a+2, are at most ((a+i) |ln t| + 2) u each, but they
    enter only through a t^-(a+2) = |h'/t| = S / (2a + 4), as the exact
    identity cancels the shared pow's coefficients down to a.  With
    |ln t| <= ln 18 on the tail and a >= 2 the residual is at most
    (5 + ln 18 + 1/2) u S < 9u S = 4.5 eps S.
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
    d2, q, c = barrier_d2h(spec, tt), barrier_dh(spec, tt) / tt, a * (a + 2.0) * tt ** (-(a + 2.0))
    residual = np.abs(d2 - q + c)
    tail_ratio = float(np.max(residual / (np.abs(d2) + np.abs(q) + c)))
    reports.append(check_le("barrier-derivatives", "barrier-derivative-bounds",
                            max(gap_core, tail_ratio), _TAIL_TOL, core_gap=gap_core,
                            tail_identity_residual=float(np.max(residual)),
                            tail_identity_ratio=tail_ratio))

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

    The allowance is the rounding, u = eps/2, of a sample's left side 1 + k - t,
    k = rho psi'/psi, t = g(grad rho^2/2, grad V), and right side N calH(w rho):
    32u S = 16 eps S, S the largest |1 + k| + |t| + |N H|.  The chord of p - y
    carries 3u, rho, psi and psi' 5u each and k 2u more: 20u |k|, with
    |k| <= |1 + k| + N H; t 6u |t|, N calH 5u, the sums 3u S: under 28u S.
    exp moves k by dk/d(s rho) times a few u s|p|, but with K >= 0 on the
    sphere and K >= k on the hyperboloid the sides meet only as rho -> 0,
    where s|p| -> 1 and dk/d(s rho) -> 0, or on the flat charts, k = 1 exact.
    """
    y = np.asarray(y, float)
    N, w = params.N, params.omega
    rho = np.linspace(1e-9, sample_radius, _FAN_SAMPLES)
    th = np.linspace(0.0, 2.0 * math.pi, _FAN_DIRS, endpoint=False)
    e1, e2 = m.tangent_frame(y)
    dirs = np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2
    with np.errstate(all="ignore"):
        p = m.exp(y, rho[:, None, None] * dirs[None, :, :])
        grad, lap = _radial_derivatives(m, y, p, lambda s: s, np.ones_like)  # rho^2/2
        lap_nu = _laplacian_nu(m, p, grad, lap)
    lhs = _finite_laplacian(lap_nu, "Delta_nu(rho_y^2/2)", sample_radius).max(axis=1)
    rhs = N * calH(w * rho)
    gap = float(np.max(lhs - rhs))
    size = float(np.max(np.abs(lap) + np.abs(lap - lap_nu) + np.abs(rhs)[:, None]))
    return check_le("ricci-comparison", "distance-laplacian-comparison",
                    gap, 0.0, abs_tol=_FAN_TOL * size,
                    max_gap=gap, sample_radius=sample_radius)
