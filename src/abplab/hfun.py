"""The sharp Harnack ratio functional on the three constant-curvature planes.

hfun(m, d) is the sharp constant of the geodesic ball B_{sqrt(2) d}: the
supremum over positive harmonic functions on it of sup/inf over its half
ball B_{d/sqrt(2)}.  It has closed forms through the conformal picture: a
geodesic ball maps to a Euclidean disc, harmonic functions correspond across
the conformal factor, and the extremal ratio of the Poisson kernel over the
image of the half ball gives

    euclidean:     9
    sphere k:      (1 + 2 cos(phi))^2,    phi = sqrt(k) d / sqrt(2)
    hyperbolic k:  (1 + 2 cosh(phi))^2

that is (1 + 2 dpsi(d / sqrt(2)))^2 in the model's own polar coefficient,
with the half-ball image radius ratio theta(d) = tan(phi/2)/tan(phi)
(tanh/tanh in the hyperbolic case, 1/2 in the flat one), tied to the value
by ((1 + theta)/(1 - theta))^2.  The stereographic image of B_rho has radius
proportional to tan(sqrt(k) rho/2), so theta is the image ratio of B_{D/2}
in B_D for D = sqrt(2) d, not for D = d.

The numeric optimizer maximizes over boundary point masses; mixtures are
dominated pointwise by their best atom, so point masses suffice -- a claim
the test suite stresses directly instead of assuming.  The atoms and the
probe angles share one lattice, so a rotation by any atom's angle maps the
probe set onto itself and every atom gives the same ratio: one atom is
evaluated, and the test suite keeps an all-atoms search as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ModelSpace

__all__ = ["HfunResult", "poisson_kernel_disc", "hfun_closed_form",
           "theta_ratio", "hfun_numeric", "expansion_fit", "chart_phi"]


@dataclass
class HfunResult:
    value_closed: float
    value_numeric: float
    theta_used: float


def poisson_kernel_disc(x, omega):
    """Unit-disc Poisson kernel (1 - |x|^2) / |x - e^{i omega}|^2, positive and
    harmonic in x."""
    x = np.asarray(x, float)
    r2 = np.einsum("...i,...i->...", x, x)
    if np.any(r2 >= 1.0):
        raise ValueError("kernel argument must lie inside the unit disc")
    e = np.stack([np.cos(omega), np.sin(omega)], axis=-1)
    d2 = np.einsum("...i,...i->...", x - e, x - e)
    return (1.0 - r2) / d2


def chart_phi(m: ModelSpace, d: float) -> float:
    """Conformal chart angle phi = sqrt|kappa| d / sqrt(2), half of sqrt|kappa| D
    for the ball radius D = sqrt(2) d; validity needs phi < 1."""
    if m.is_flat_chart:
        return 0.0
    phi = math.sqrt(abs(m.sectional())) * d / math.sqrt(2.0)
    if not phi < 1.0:
        raise ValueError("radius outside the conformal chart validity (phi >= 1)")
    return phi


def hfun_closed_form(m: ModelSpace, d: float) -> float:
    """(1 + 2 dpsi(d/sqrt 2))^2: 9 on the flat charts, even in d."""
    chart_phi(m, d)
    return float((1.0 + 2.0 * m.dpsi(d / math.sqrt(2.0))) ** 2)


def theta_ratio(m: ModelSpace, d: float) -> float:
    """Image radius ratio of B_{d/sqrt 2} inside the disc image of B_{sqrt 2 d},
    tan(phi/2)/tan(phi) with phi = sqrt(k) d/sqrt 2 (tanh when hyperbolic, 1/2
    flat): psi(h/2) dpsi(h) / (dpsi(h/2) psi(h)) with h = d/sqrt 2; needs d > 0."""
    if not d > 0:
        raise ValueError("hfun radius d must be positive")
    chart_phi(m, d)
    h = d / math.sqrt(2.0)
    return float(m.psi(0.5 * h) * m.dpsi(h) / (m.dpsi(0.5 * h) * m.psi(h)))


def hfun_numeric(m: ModelSpace, d: float, n_boundary: int = 512,
                 n_ball: int = 512, n_radial: int = 64) -> HfunResult:
    """Maximize the kernel sup/inf ratio over boundary atoms and probe points.

    The probe set is a polar grid of the closed disc of radius theta(d)
    including its boundary circle, where the extremal values live.  Atoms sit
    at multiples of 2 pi / n_boundary and probe angles at multiples of
    2 pi / n_ball.  With n_boundary dividing n_ball, the rotation taking any
    atom to omega = 0 maps the probe set onto itself, so every atom gives the
    ratio of the atom at 0, the one evaluated.  The kernel is largest at
    angle 0 and smallest at the antipode pi on the boundary circle, so n_ball
    must be even for the analytic maximizer to lie in the search set.
    """
    if n_boundary < 32 or n_ball < 32:
        raise ValueError("resolution below the minimum of 32")
    if n_ball % 2:
        raise ValueError("n_ball must be even, so that the antipode pi is a probe angle")
    if n_ball % n_boundary:
        raise ValueError("n_boundary must divide n_ball")
    theta = theta_ratio(m, d)
    ang = np.arange(n_ball) * (2.0 * math.pi / n_ball)
    rad = np.linspace(0.0, theta, n_radial)
    X = (rad[:, None, None]
         * np.stack([np.cos(ang), np.sin(ang)], -1)[None, :, :]).reshape(-1, 2)
    P = poisson_kernel_disc(X, 0.0)
    best = float(P.max() / P.min())
    return HfunResult(hfun_closed_form(m, d), best, theta)


def expansion_fit(d_samples, values, degree: int = 3):
    """Least-squares polynomial fit a0 + a1 d + ... ; returns (coeffs, residual).

    Ill-conditioned sample sets (clustered d) are rejected; the cubic/quartic
    term doubles as a noise proxy when the underlying expansion is even.
    """
    d = np.asarray(d_samples, float)
    v = np.asarray(values, float)
    if len(d) < degree + 2:
        raise ValueError("need at least degree + 2 samples")
    A = np.vander(d, degree + 1, increasing=True)
    coeffs, res, rank, sv = np.linalg.lstsq(A, v, rcond=None)
    if rank < degree + 1 or sv[-1] < 1e-13 * sv[0]:
        raise ValueError("sample layout too clustered for a stable fit")
    resid = float(np.sqrt(np.sum((A @ coeffs - v) ** 2)))
    return coeffs, resid
