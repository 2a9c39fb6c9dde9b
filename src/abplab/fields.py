"""Scalar fields on geodesic ball grids, with optional analytic derivatives.

A :class:`ScalarField` is node values on a grid.  A sampled field (a Poisson
solution, data) is given its array; a field built from a closed form is
given value_fn instead and samples its nodes, value_fn(grid.points), the
first time its values are read, since most verdicts read it only through
its jets.  Closed-form fields also give one deriv_fn(p, frame), at any
points, which returns a pair: (grad, lap), lap the frame-free trace of the
Hessian that grad, laplacian and laplacian_nu read, when frame is None, and
else (grad, h) in the orthonormal tangent frame (e1, e2) at p, for the
contact refinement and the transport.  Gradients are embedding-space
tangent vectors; h holds h_ab = Hess u(e_a, e_b) as three contiguous rows
(h11, h12, h22) of shape (3,) + batch, so no evaluation builds a matrix but
ScalarField.hess.  The radial jets scale the tangent toward the centre
component by component (geometry._scale), a bump's f' and f'' share one
exp(-beta rho^2), and sum_fields adds the parts of a pair in place, in
their order.

The closed-form builders also record _hess_floor, a floor on the least
eigenvalue of Hess u over the closed grid ball, each derived in its
docstring; the contact scan certifies contacts with it (contact.py).  Only
these builders set it: any other field (a sampled field, a radial_field, a
ScalarField built from a user's jet) has None, as no check could hold a
floor it is given to the field.  Every floor reads the transverse factor
tau(rho) = rho psi'/psi of Hess(rho^2/2), whose eigenvalues are 1 (radial)
and tau (transverse): tau(0) = 1 and tau is monotone in rho (1 on the flat
charts, s rho cot(s rho) falling on the sphere, s rho coth(s rho) rising on
the hyperboloid), so on [0, rho_max] its extremes are 1 and tau(rho_max).
A ball point lies within rho_max = rho(c, o) + r of a centre c, o and r
the grid's centre and radius.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GeodesicBallGrid, ModelSpace, _scale

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

# the identity as Hessian rows (h11, h12, h22)
_I_ROWS = np.array([1.0, 0.0, 1.0])


class ScalarField:
    def __init__(self, grid: GeodesicBallGrid, values: Optional[np.ndarray] = None,
                 value_fn: Optional[Callable] = None, deriv_fn: Optional[Callable] = None):
        """values, shape (n_r, n_theta), may be None only beside a value_fn,
        which then samples the nodes on first read; deriv_fn(p, frame) of a
        float array p returns (grad, lap), or (grad, h) given a frame."""
        if values is None and value_fn is None:
            raise ValueError("a field needs node values or a value_fn to sample them from")
        self.grid = grid
        self._values = values
        self.value_fn = value_fn
        self.deriv_fn = deriv_fn
        # a floor on the least eigenvalue of Hess u over the closed grid
        # ball, which only this module's closed-form builders set (_floored)
        self._hess_floor: Optional[float] = None

    @property
    def values(self) -> np.ndarray:
        """The (n_r, n_theta) node values, sampled and kept on first read."""
        if self._values is None:
            self._values = self.value_fn(self.grid.points)
        return self._values

    @property
    def has_derivatives(self) -> bool:
        return self.deriv_fn is not None

    def value(self, p):
        if self.value_fn is None:
            raise ValueError("field has no closed-form evaluator")
        return self.value_fn(np.asarray(p, float))

    def grad(self, p):
        return self.jet(p, None)[0]

    def jet(self, p, frame):
        """deriv_fn's pair from one evaluation: (grad, lap) when frame is None,
        lap the trace of the Hessian, else (grad, h), h = (h11, h12, h22) of
        shape (3,) + p.shape[:-1], h_ab = Hess u(e_a, e_b) in the orthonormal
        frame (e1, e2) at p."""
        if self.deriv_fn is None:
            raise ValueError("field has no closed-form derivatives")
        return self.deriv_fn(np.asarray(p, float), frame)

    def hess(self, p):
        """The Hessian as an embedding matrix sum_ab h_ab e_a@e_b, the form
        hess_form contracts, from the 2x2 matrix of the rows (h12 twice)."""
        frame = self.grid.model.tangent_frame(np.asarray(p, float))
        E = np.stack(frame, -2)
        h11, h12, h22 = self.jet(p, frame)[1]
        h = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
        return np.einsum("...ai,...ab,...bj->...ij", E, h, E)

    def laplacian(self, p):
        """Metric Laplacian: the trace of the Hessian, with no frame."""
        return self.jet(p, None)[1]

    def laplacian_nu(self, p):
        """Weighted Laplacian: Delta u - g(grad u, grad V)."""
        return _laplacian_nu(self.grid.model, p, *self.jet(p, None))


def _floored(u: ScalarField, floor: Optional[float]) -> ScalarField:
    """u with the Hessian floor floor, where it is finite; else none."""
    u._hess_floor = float(floor) if floor is not None and math.isfinite(floor) else None
    return u


def _laplacian_nu(m: ModelSpace, p, grad, lap):
    """Delta_nu u = Delta u - g(grad u, grad V) at p, from the gradient of u
    there and its Laplacian lap, the trace of its Hessian; lap itself where
    V = 0."""
    if not m.is_weighted:
        return lap
    return lap - m.tangent_inner(p, grad, m.grad_V(p))


def hess_form(m: ModelSpace, H, X, Y):
    """The Hessian form H(X, Y) of tangent vectors: H is the frame outer-product
    matrix sum h_ij e_i@e_j (ScalarField.hess), its indices lowered to contract."""
    X = m.lower(np.asarray(X, float))
    Y = m.lower(np.asarray(Y, float))
    return np.einsum("...i,...ij,...j->...", X, H, Y)


def _radial_derivatives(m: ModelSpace, center, p, df, d2f, frame=None):
    """The jet of f(rho), rho = rho(center, .), at the points p,

        grad = f' e_r,   Hess = k I + (f'' - k) e_r@e_r,   k = f' psi'/psi,

    e_r = -w/psi pointing away from the centre, with rho, psi, psi' and w
    (the tangent toward the centre) from the one chord m._polar(p, center).
    Returns (grad, f'' + k), the frame-free trace, when frame is None, else
    (grad, h), h the rows (h11, h12, h22), shape (3,) + batch, in the
    orthonormal frame (e1, e2) at p; with c_a = <e_r, e_a> (h is even in c),

        h11 = k + (f'' - k) c1^2,   h12 = (f'' - k) c1 c2,   h22 = k + (f'' - k) c2^2,

    so the cosines' rounding, about eps |p|/rho, enters only times f'' - k.
    At the centre alone, psi = w = 0, k is its limit f''(0) (f must be even
    at 0) and the jet is exactly (0, f''(0) I).  df and d2f map rho to f'
    and f''; center broadcasts against p.
    """
    rho, psi, dpsi, w = m._polar(p, center)
    zero = psi == 0.0
    at_centre = zero.any()   # np.where only then
    if at_centre:
        psi = np.where(zero, 1.0, psi)
    d1 = df(rho)
    grad = _scale(-d1 / psi, w)
    d2 = d2f(rho)
    k = np.where(zero, d2, d1 * dpsi / psi) if at_centre else d1 * dpsi / psi
    if frame is None:
        return grad, d2 + k
    c1, c2 = (m.tangent_inner(p, w, e) / psi for e in frame)
    dk = d2 - k
    h = np.empty((3,) + c1.shape)
    h[0] = k + dk * c1 * c1
    h[1] = dk * c1 * c2
    h[2] = k + dk * c2 * c2
    return grad, h


def _scalar_hessian(s: float, batch: tuple, frame):
    """s I at a batch of points: its trace 2 s, or given a frame its rows."""
    if frame is None:
        return np.full(batch, 2.0 * s)
    h = np.empty((3,) + batch)
    h[...] = (s * _I_ROWS).reshape((3,) + (1,) * len(batch))
    return h


def constant_field(grid: GeodesicBallGrid, c: float) -> ScalarField:
    """u = c: Hess u = 0, so its floor is 0."""
    d = grid.model.embedding_dim

    def val(p):
        return np.full(np.asarray(p).shape[:-1], float(c))

    def deriv(p, frame):
        batch = np.shape(p)[:-1]
        return np.zeros(batch + (d,)), _scalar_hessian(0.0, batch, frame)

    return _floored(ScalarField(grid, None, val, deriv), 0.0)


def radial_field(grid: GeodesicBallGrid, center, f, df, d2f) -> ScalarField:
    """Field u(x) = f(rho(center, x)) with analytic first/second derivatives.

    f must be even at 0 (df(0) = 0) so the composition is smooth across the
    center.  Gradient and Hessian follow the standard radial decomposition,
    see _radial_derivatives.
    """
    m = grid.model
    center = np.asarray(center, float)

    def val(p):
        return f(m.distance(center, p))

    def deriv(p, frame):
        return _radial_derivatives(m, center, p, df, d2f, frame)

    return ScalarField(grid, None, val, deriv)


def _tau_at_reach(grid: GeodesicBallGrid, center) -> float:
    """tau(rho_max), rho_max = rho(center, o) + r the reach of the ball from
    center; NaN (no floor) from the sphere's cut radius on, where rho^2/2
    is not smooth, and for a centre antipodal to o, which distance refuses."""
    m = grid.model
    try:
        reach = float(m.distance(np.asarray(center, float), grid.center)) + grid.radius
    except ValueError:
        return math.nan
    return float(m.dist_hessian_transverse(reach)) if reach < m.cut_radius else math.nan


def quadratic_field(grid: GeodesicBallGrid, center, b: float) -> ScalarField:
    """u = (b/2) * rho(center, .)^2 -- the workhorse equality-case field.

    Hess u = b Hess(rho^2/2) has the eigenvalues b and b tau(rho); tau is
    monotone from tau(0) = 1, so over the ball the least is the floor
    min(b, b tau(rho_max))."""
    m = grid.model
    tau = _tau_at_reach(grid, center)
    floor = min(b, b * tau) if math.isfinite(tau) else None
    if m.is_flat_chart:
        c = np.asarray(center, float)

        def val(p):
            d = np.asarray(p, float) - c
            return 0.5 * b * np.einsum("...i,...i->...", d, d)

        def deriv(p, frame):
            # b (p - c) by coordinate: a (2,) centre broadcast over the
            # points' last axis runs one inner loop per point
            grad = np.empty(p.shape)
            for i in range(2):
                grad[..., i] = b * (p[..., i] - c[i])
            return grad, _scalar_hessian(b, grad.shape[:-1], frame)

        return _floored(ScalarField(grid, None, val, deriv), floor)
    return _floored(radial_field(
        grid,
        center,
        lambda r: 0.5 * b * r * r,
        lambda r: b * r,
        lambda r: np.full_like(np.asarray(r, float), b),
    ), floor)


def bump_field(grid: GeodesicBallGrid, center, amplitude: float, beta: float) -> ScalarField:
    """u = amplitude * exp(-beta * rho^2): smooth, localized, sign-free Hessian.

    A jet evaluates exp(-beta rho^2) once: _radial_derivatives calls df
    before d2f on the same rho, so d2f reads the exponential df just took.

    Floor: with A = amplitude and x = beta rho^2, the radial eigenvalue is
    f'' = 2 beta A (2x - 1) e^{-x} and the transverse one (f'/rho) tau(rho)
    = -2 beta A e^{-x} tau(rho).  |2x - 1| e^{-x} <= 1 and e^{-x} <= 1, and
    |tau| <= max(1, |tau(rho_max)|) below the cut radius (tau falls through
    0 on the sphere past s rho = pi/2), so both are at least
    -2 beta |A| max(1, |tau(rho_max)|)."""
    m = grid.model
    center = np.asarray(center, float)

    def f(r):
        return amplitude * np.exp(-beta * r * r)

    def deriv(p, frame):
        g = None

        def df(r):
            nonlocal g
            g = np.exp(-beta * r * r)
            return amplitude * (-2.0 * beta * r) * g

        def d2f(r):
            return amplitude * (4.0 * beta * beta * r * r - 2.0 * beta) * g

        return _radial_derivatives(m, center, p, df, d2f, frame)

    tau = _tau_at_reach(grid, center)
    floor = -2.0 * beta * abs(amplitude) * max(1.0, abs(tau)) if math.isfinite(tau) else None
    return _floored(ScalarField(grid, None, lambda p: f(m.distance(center, p)), deriv), floor)


def _sum(parts):
    """((p0 + p1) + p2) + ..., the later parts added in place into the
    first sum, so no part is written to and no sum past the first is a
    new array."""
    if len(parts) == 1:
        return parts[0]
    total = parts[0] + parts[1]
    for part in parts[2:]:
        total += part
    return total


def sum_fields(fields: Sequence[ScalarField]) -> ScalarField:
    """The pointwise sum of fields on one grid, added part after part,
    ((f0 + f1) + f2) + ..., with no stacked copy of the parts.  A sum of
    closed-form parts is closed-form, and samples its nodes on first read
    like its parts; a sum with a part that lacks a value_fn or derivatives
    is sampled, from the parts' values.  The least eigenvalue of a sum is at
    least the sum of its parts' least eigenvalues, so a closed-form sum's
    floor is the sum of its parts' floors, and none if a part has none."""
    grid = fields[0].grid
    if not all(f.value_fn is not None and f.has_derivatives for f in fields):
        return ScalarField(grid, _sum([f.values for f in fields]))

    def val(p):
        return _sum([f.value(p) for f in fields])

    def deriv(p, frame):
        return tuple(_sum(d) for d in zip(*(f.deriv_fn(p, frame) for f in fields)))

    floors = [f._hess_floor for f in fields]
    return _floored(ScalarField(grid, None, val, deriv),
                    None if None in floors else math.fsum(floors))


def random_bump_field(grid: GeodesicBallGrid, rng, hess_bound=1.0) -> ScalarField:
    """Seeded random sum of _N_BUMPS radial bumps with total Hessian norm <= hess_bound.

    Centers are drawn inside _CENTER_FRAC of the grid ball, so every distance
    function involved stays smooth on the working domain.  Its floor is the
    sum of its bumps' (sum_fields): -|hess_bound| up to rounding on the flat
    charts and the sphere (tau(2r) >= -1), above it on the hyperboloid.
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

