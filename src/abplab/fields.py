"""Scalar fields on geodesic ball grids, with optional analytic derivatives.

A :class:`ScalarField` always carries node samples on a grid.  Fields built
from closed forms additionally expose evaluators at arbitrary points, which
the contact-set and transport machinery use for sub-cell refinement: value_fn
and one deriv_fn(p, hessian) returning the gradient, or (grad, Hess) when
hessian is true.  Gradients are embedding-space tangent vectors; Hessians
are embedding-space symmetric matrices annihilating the normal direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GeodesicBallGrid, ModelSpace

__all__ = [
    "ScalarField",
    "constant_field",
    "radial_field",
    "quadratic_field",
    "bump_field",
    "sum_fields",
    "random_bump_field",
]

# random_bump_field: number of bumps, range of their rates beta, and the
# share of the grid radius their centres are drawn from
_N_BUMPS = 4
_BETA_RANGE = (2.0, 8.0)
_CENTER_FRAC = 0.6


@dataclass
class ScalarField:
    grid: GeodesicBallGrid
    values: np.ndarray  # (n_r, n_theta)
    value_fn: Optional[Callable] = None
    deriv_fn: Optional[Callable] = None  # (p, hessian) -> grad or (grad, Hess)

    @property
    def has_derivatives(self) -> bool:
        return self.deriv_fn is not None

    def value(self, p):
        if self.value_fn is None:
            raise ValueError("field has no closed-form evaluator")
        return self.value_fn(np.asarray(p, float))

    def _derivatives(self, p, hessian: bool):
        if self.deriv_fn is None:
            raise ValueError("field has no closed-form derivatives")
        return self.deriv_fn(np.asarray(p, float), hessian)

    def grad(self, p):
        return self._derivatives(p, False)

    def hess(self, p):
        return self._derivatives(p, True)[1]

    def jet(self, p):
        """(grad, Hess) from one derivative evaluation."""
        return self._derivatives(p, True)

    def laplacian(self, p):
        """Metric Laplacian: the trace of the Hessian against the metric."""
        return _metric_trace(self.grid.model, self.hess(p))

    def laplacian_nu(self, p):
        """Weighted Laplacian: Delta u - g(grad u, grad V)."""
        return _laplacian_nu(self.grid.model, p, *self.jet(p))

    def check_consistency(self) -> float:
        """Max |closed form - node samples|; raises if no closed form."""
        v = self.value(self.grid.points)
        return float(np.max(np.abs(v - self.values)))


def _metric_trace(m: ModelSpace, H):
    """tr(H G), G the ambient metric (the Minkowski diagonal on the hyperboloid)."""
    return np.einsum("...ii,i->...", H, m.lower(np.ones(m.embedding_dim)))


def _laplacian_nu(m: ModelSpace, p, grad, H):
    """Delta_nu u = tr(Hess u) - g(grad u, grad V) at p, from the gradient
    and Hessian of u there."""
    return _metric_trace(m, H) - m.tangent_inner(p, grad, m.grad_V(p))


def hess_form(m: ModelSpace, H, X, Y):
    """Evaluate the Hessian bilinear form on tangent vectors.

    H is stored as the frame outer-product matrix sum h_ij e_i@e_j, so the
    indices are lowered with the ambient metric before contracting.
    """
    X = m.lower(np.asarray(X, float))
    Y = m.lower(np.asarray(Y, float))
    return np.einsum("...i,...ij,...j->...", X, H, Y)


def _frame_components(m: ModelSpace, H, e1, e2):
    """Symmetric 2x2 components [[h11, h12], [h12, h22]] of embedding Hessians
    H in the frames (e1, e2), h_ab = hess_form(m, H, e_a, e_b); vectorized
    over the leading axes of H, e1 and e2."""
    l1, l2 = m.lower(e1), m.lower(e2)
    h11, h12, h22 = (np.einsum("...i,...ij,...j->...", x, H, y)
                     for x, y in ((l1, l1), (l1, l2), (l2, l2)))
    return np.stack([h11, h12, h12, h22], -1).reshape(np.shape(h11) + (2, 2))


def _radial_derivatives(m: ModelSpace, center, p, df, d2f=None):
    """Gradient of f(rho), rho = rho(center, .), at the points p, and with d2f
    also its Hessian:

        grad = f' e_r,   Hess = f'' e_r@e_r + f' (psi'/psi) e_t@e_t,

    e_r pointing away from the centre and e_t = rotate90(e_r).  Within 1e-8
    of the centre the Hessian is its limit f''(0) times the tangent
    projector, so f must be even at 0 (f'(0) = 0).  df and d2f map rho to
    f' and f''; center broadcasts against p.
    """
    p = np.asarray(p, float)
    v = m.log(p, center)   # points from p toward the centre, norm rho
    rho = m.tangent_norm(p, v)
    at_center = rho < 1e-12
    er = np.where(at_center[..., None], 0.0, -v / np.where(at_center, 1.0, rho)[..., None])
    d1 = df(rho)
    grad = d1[..., None] * er
    if d2f is None:
        return grad
    d2 = d2f(rho)
    small = rho < 1e-8
    if np.any(small):
        # any orthonormal (e_r, e_t) spans the projector there
        er = np.where(small[..., None], m.tangent_frame(p)[0], er)
    et = m.rotate90(p, er)
    safe = np.where(small, 1.0, rho)
    kt = np.where(small, d2, d1 * m.dpsi(safe) / m.psi(safe))
    H = (d2[..., None, None] * np.einsum("...i,...j->...ij", er, er)
         + kt[..., None, None] * np.einsum("...i,...j->...ij", et, et))
    return grad, H


def constant_field(grid: GeodesicBallGrid, c: float) -> ScalarField:
    m = grid.model
    d = m.embedding_dim

    def val(p):
        return np.full(np.asarray(p).shape[:-1], float(c))

    def deriv(p, hessian):
        grad = np.zeros(np.asarray(p).shape[:-1] + (d,))
        return (grad, np.zeros(grad.shape + (d,))) if hessian else grad

    vals = np.full(grid.shape, float(c))
    return ScalarField(grid, vals, val, deriv)


def radial_field(grid: GeodesicBallGrid, center, f, df, d2f) -> ScalarField:
    """Field u(x) = f(rho(center, x)) with analytic first/second derivatives.

    f must be even at 0 (df(0) = 0) so the composition is smooth across the
    center.  Gradient and Hessian follow the standard radial decomposition:
    grad u = f' e_r,  Hess u = f'' e_r@e_r + f' (psi'/psi) e_t@e_t.
    """
    m = grid.model
    center = np.asarray(center, float)

    def val(p):
        return f(m.distance(center, p))

    def deriv(p, hessian):
        return _radial_derivatives(m, center, p, df, d2f if hessian else None)

    vals = f(m.distance(center, grid.points))
    return ScalarField(grid, vals, val, deriv)


def quadratic_field(grid: GeodesicBallGrid, center, b: float) -> ScalarField:
    """u = (b/2) * rho(center, .)^2 -- the workhorse equality-case field."""
    m = grid.model
    if m.is_flat_chart:
        c = np.asarray(center, float)

        def val(p):
            d = np.asarray(p, float) - c
            return 0.5 * b * np.einsum("...i,...i->...", d, d)

        def deriv(p, hessian):
            grad = b * (np.asarray(p, float) - c)
            if not hessian:
                return grad
            return grad, np.broadcast_to(b * np.eye(2), grad.shape + (2,)).copy()

        vals = val(grid.points)
        return ScalarField(grid, vals, val, deriv)
    return radial_field(
        grid,
        center,
        lambda r: 0.5 * b * r * r,
        lambda r: b * r,
        lambda r: np.full_like(np.asarray(r, float), b),
    )


def bump_field(grid: GeodesicBallGrid, center, amplitude: float, beta: float) -> ScalarField:
    """u = amplitude * exp(-beta * rho^2): smooth, localized, sign-free Hessian."""

    def f(r):
        return amplitude * np.exp(-beta * r * r)

    def df(r):
        return amplitude * (-2.0 * beta * r) * np.exp(-beta * r * r)

    def d2f(r):
        return amplitude * (4.0 * beta * beta * r * r - 2.0 * beta) * np.exp(-beta * r * r)

    return radial_field(grid, center, f, df, d2f)


def sum_fields(fields: Sequence[ScalarField]) -> ScalarField:
    grid = fields[0].grid
    vals = np.sum([f.values for f in fields], axis=0)
    if all(f.has_derivatives for f in fields):
        def val(p):
            return np.sum([f.value(p) for f in fields], axis=0)

        def deriv(p, hessian):
            parts = [f.deriv_fn(p, hessian) for f in fields]
            if not hessian:
                return np.sum(parts, axis=0)
            return tuple(np.sum(d, axis=0) for d in zip(*parts))

        return ScalarField(grid, vals, val, deriv)
    return ScalarField(grid, vals)


def random_bump_field(grid: GeodesicBallGrid, rng, hess_bound=1.0) -> ScalarField:
    """Seeded random sum of _N_BUMPS radial bumps with total Hessian norm <= hess_bound.

    Centers are drawn inside _CENTER_FRAC of the grid ball, so every distance
    function involved stays smooth on the working domain.
    """
    m = grid.model
    e1, e2 = grid.frame
    parts = []
    bound = 0.0
    for _ in range(_N_BUMPS):
        beta = rng.uniform(*_BETA_RANGE)
        amp = rng.uniform(-1.0, 1.0)
        r0 = _CENTER_FRAC * grid.radius * np.sqrt(rng.uniform(0.0, 1.0))
        th0 = rng.uniform(0.0, 2.0 * np.pi)
        c = m.exp(grid.center, r0 * (np.cos(th0) * e1 + np.sin(th0) * e2))
        parts.append((amp, beta, c))
        # |f''| <= 2 beta |amp| and transverse factor is bounded by the same scale
        bound += 2.0 * beta * abs(amp) * max(1.0, float(m.dist_hessian_transverse(2.0 * grid.radius)))
    scale = hess_bound / bound if bound > 0 else 1.0
    fields = [bump_field(grid, c, scale * amp, beta) for amp, beta, c in parts]
    return sum_fields(fields)

