"""Dirichlet solver for the weighted Laplacian on geodesic ball grids.

The operator is discretized in conservative (flux) form on the cell-centered
polar grid:

    (1/(psi w)) d/drho [ psi w du/drho ]  +  psi^{-2} d2u/dtheta2,
    w = exp(-V) along the radius,

which reproduces u_rr + (psi'/psi) u_r - V' u_r + psi^{-2} u_tt to O(h^2) and
is an M-matrix for any psi, w > 0, so the discrete maximum principle holds by
construction.  The pole face carries coefficient psi(0) = 0, hence the first
ring needs no special closure.  The weight must be constant on every ring
(weighted balls are origin-centered), so the coefficients are angle-free and
an FFT in theta reduces the solve to one tridiagonal system per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .geometry import GeodesicBallGrid

__all__ = ["DirichletProblem", "solve_poisson", "apply_weighted_laplacian",
           "node_laplacian_nu", "radial_face_coefficients"]

_TOL_FACTOR = 1e-10  # solve_poisson's residual tolerance, relative to ||f||_inf
_MAX_REFINE = 4      # its most refinement steps


@dataclass
class DirichletProblem:
    grid: GeodesicBallGrid
    f: np.ndarray       # (n_r, n_theta) right-hand side
    g: np.ndarray       # (n_theta,) Dirichlet boundary values at rho = radius

    def __post_init__(self):
        g = self.grid
        if g.n_r < 64 or g.n_theta < 64:
            raise ValueError("solver grid must be at least 64 x 64")
        V = g.model.weight_V(g.points)
        if np.any(np.ptp(V, axis=1) > 1e-12 * np.max(np.abs(V), axis=1)):
            raise ValueError("the weight varies around a ring: weighted solves "
                             "require an origin-centered ball")
        self.f = np.asarray(self.f, float).reshape(g.shape)
        self.g = np.asarray(self.g, float).reshape(g.n_theta)


def _radial_weight(grid: GeodesicBallGrid, rho):
    """exp(-V) at distances rho along one ray from the centre."""
    m = grid.model
    ray = np.asarray(rho, float)[..., None] * grid.frame[0]
    return np.exp(-m.weight_V(m.exp(grid.center, ray)))


def radial_face_coefficients(grid: GeodesicBallGrid):
    """psi * exp(-V) at the n_r + 1 radial faces (zero at the pole face)."""
    faces = np.arange(grid.n_r + 1) * grid.drho
    return grid.model.psi(faces) * _radial_weight(grid, faces)


def _stencil(grid: GeodesicBallGrid):
    m = grid.model
    h = grid.drho
    cf = radial_face_coefficients(grid)
    cc = m.psi(grid.rho) * _radial_weight(grid, grid.rho)
    lo = cf[:-1] / (h * h * cc)   # couples u_{i-1}
    hi = cf[1:] / (h * h * cc)    # couples u_{i+1}
    ang = 1.0 / (m.psi(grid.rho) ** 2 * grid.dtheta ** 2)
    return lo, hi, ang


def apply_weighted_laplacian(grid: GeodesicBallGrid, values, boundary=None):
    """Discrete weighted Laplacian at every node.

    The outermost ring needs the Dirichlet trace (ghost value 2 g - u_last);
    without it that ring is returned as NaN.  This is the same stencil the
    solver inverts, so solver output reproduces its right-hand side to
    rounding error.
    """
    u = np.asarray(values, float).reshape(grid.shape)
    lo, hi, ang = _stencil(grid)
    up = np.empty_like(u)
    up[:-1] = u[1:]
    if boundary is not None:
        up[-1] = 2.0 * np.asarray(boundary, float) - u[-1]
    else:
        up[-1] = np.nan
    down = np.empty_like(u)
    down[1:] = u[:-1]
    down[0] = 0.0  # multiplied by lo[0] = 0: the pole face has zero area
    rad = lo[:, None] * down + hi[:, None] * up - (lo + hi)[:, None] * u
    th = (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) * ang[:, None]
    return rad + th


def node_laplacian_nu(u: ScalarField, nodes=None, boundary=None):
    """Weighted Laplacian of u at the flat node indices nodes, or grid-shaped
    at every node: the closed form when u has derivatives, else the solver
    stencil with the Dirichlet trace boundary (apply_weighted_laplacian)."""
    grid = u.grid
    if u.has_derivatives:
        return u.laplacian_nu(grid.points if nodes is None else grid.flat_points()[nodes])
    lap = apply_weighted_laplacian(grid, u.values, boundary)
    return lap if nodes is None else lap.reshape(-1)[nodes]


def solve_poisson(prob: DirichletProblem):
    """Solve Delta_nu u = f with Dirichlet data; returns (field, residual).

    Direct FFT + tridiagonal factorization, followed by iterative refinement
    until the a-posteriori residual satisfies

        ||residual||_inf <= _TOL_FACTOR * ||f||_inf + 1e-12 + 8 eps ||A|| ||u||

    The last term is the backward-error floor: stencil rows next to the pole
    scale like 1/(psi(h/2) dtheta)^2, so evaluating the operator there incurs
    roundoff of that size and no smaller residual is certifiable.
    Raises if _MAX_REFINE refinement steps do not reach it.
    """
    grid = prob.grid
    n_r, n_t = grid.shape
    lo, hi, ang = _stencil(grid)
    fh = np.fft.rfft(prob.f, axis=1)
    gh = np.fft.rfft(prob.g)
    modes = np.arange(fh.shape[1])
    lam_t = -(2.0 * np.sin(modes * math.pi / n_t)) ** 2 / grid.dtheta ** 2

    # lam_t carries the 1/dtheta^2 of the angular second difference, ang the
    # 1/(psi^2 dtheta^2) of the stencil: their product restores psi^{-2} lam_t
    diag = -(lo + hi)[:, None] + (lam_t[None, :] * (ang * grid.dtheta ** 2)[:, None])
    rhs = fh.copy()
    # Dirichlet ghost: u_n = 2 g - u_{n-1}
    diag[-1, :] -= hi[-1]
    rhs[-1, :] -= 2.0 * hi[-1] * gh

    u_hat = _thomas_all_modes(lo, hi, diag, rhs)
    u = np.fft.irfft(u_hat, n=n_t, axis=1)

    a_norm = float(np.max(np.abs(diag))) + float(np.max(lo + hi))
    res = prob.f - apply_weighted_laplacian(grid, u, prob.g)

    def tol_now():
        floor = 8.0 * np.finfo(float).eps * a_norm * float(np.max(np.abs(u)))
        return _TOL_FACTOR * float(np.max(np.abs(prob.f))) + 1e-12 + floor

    for _ in range(_MAX_REFINE):
        if float(np.max(np.abs(res))) <= tol_now():
            break
        rh = np.fft.rfft(res, axis=1)
        du = np.fft.irfft(_thomas_all_modes(lo, hi, diag, rh), n=n_t, axis=1)
        u = u + du
        res = prob.f - apply_weighted_laplacian(grid, u, prob.g)
    residual = float(np.max(np.abs(res)))
    tol = tol_now()
    if residual > tol:
        raise RuntimeError(f"poisson solve did not reach tolerance: residual {residual:.3e}")
    return ScalarField(grid, u), residual


def _thomas_all_modes(lo, hi, diag, rhs):
    """Tridiagonal solves, vectorized across Fourier modes.

    lo/hi are shared (n_r,) couplings; diag is (n_r, n_modes); the last-row
    boundary fold is already applied by the caller.
    """
    n_r, n_m = rhs.shape
    cp = np.empty((n_r, n_m), complex)
    dp = np.empty((n_r, n_m), complex)
    hi_r = hi.copy()
    hi_r[-1] = 0.0
    cp[0] = hi_r[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n_r):
        den = diag[i] - lo[i] * cp[i - 1]
        cp[i] = hi_r[i] / den
        dp[i] = (rhs[i] - lo[i] * dp[i - 1]) / den
    x = np.empty((n_r, n_m), complex)
    x[-1] = dp[-1]
    for i in range(n_r - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x
