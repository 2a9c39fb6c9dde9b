"""The sharp Harnack ratio functional on the three constant-curvature planes.

For a ball of geodesic radius d, the supremum over positive harmonic
functions of sup/inf over the half-radius ball has closed forms through the
conformal picture: a geodesic ball maps to a Euclidean disc, harmonic
functions correspond across the conformal factor, and the extremal ratio of
the Poisson kernel over the image of the half ball gives

    euclidean:     9
    sphere k:      (1 + 2 cos(phi))^2,    phi = sqrt(k) d / sqrt(2)
    hyperbolic k:  (1 + 2 cosh(phi))^2

with the half-ball image radius ratio theta(d) = tan(phi/2)/tan(phi)
(tanh/tanh in the hyperbolic case, 1/2 in the flat one), tied to the value
by ((1 + theta)/(1 - theta))^2.

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
    model: ModelSpace
    d: float
    value_closed: float
    value_numeric: float
    theta_used: float
    n_boundary: int
    n_ball: int


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
    """Conformal chart angle phi = sqrt(k) d / sqrt(2); validity needs phi < 1."""
    if m.kind in ("euclidean", "gaussian_plane"):
        return 0.0
    phi = math.sqrt(m.k) * d / math.sqrt(2.0)
    if not phi < 1.0:
        raise ValueError("radius outside the conformal chart validity (phi >= 1)")
    return phi


def hfun_closed_form(m: ModelSpace, d: float) -> float:
    phi = chart_phi(m, d)
    if m.kind == "sphere":
        return (1.0 + 2.0 * math.cos(phi)) ** 2
    if m.kind == "hyperbolic":
        return (1.0 + 2.0 * math.cosh(phi)) ** 2
    return 9.0


def theta_ratio(m: ModelSpace, d: float) -> float:
    """Image radius ratio of the half ball inside the full ball's disc image."""
    phi = chart_phi(m, d)
    if m.kind == "sphere":
        return math.tan(0.5 * phi) / math.tan(phi)
    if m.kind == "hyperbolic":
        return math.tanh(0.5 * phi) / math.tanh(phi)
    return 0.5


def hfun_numeric(m: ModelSpace, d: float, n_boundary: int = 512,
                 n_ball: int = 512, n_radial: int = 64) -> HfunResult:
    """Maximize the kernel sup/inf ratio over boundary atoms and probe points.

    The probe set is a polar grid of the closed disc of radius theta(d)
    including its boundary circle, where the extremal values live.  Atoms sit
    at multiples of 2 pi / n_boundary and probe angles at multiples of
    2 pi / n_ball.  With n_boundary dividing n_ball, the rotation taking any
    atom to omega = 0 maps the probe set onto itself, so every atom gives the
    ratio of the atom at 0, the one evaluated; the analytic maximizer lies in
    the search set.
    """
    if n_boundary < 32 or n_ball < 32:
        raise ValueError("resolution below the minimum of 32")
    if n_ball % n_boundary:
        raise ValueError("n_boundary must divide n_ball")
    theta = theta_ratio(m, d)
    ang = np.arange(n_ball) * (2.0 * math.pi / n_ball)
    rad = np.linspace(0.0, theta, n_radial)
    X = (rad[:, None, None]
         * np.stack([np.cos(ang), np.sin(ang)], -1)[None, :, :]).reshape(-1, 2)
    P = poisson_kernel_disc(X, 0.0)
    best = float(P.max() / P.min())
    return HfunResult(m, d, hfun_closed_form(m, d), best, theta, n_boundary, n_ball)


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
