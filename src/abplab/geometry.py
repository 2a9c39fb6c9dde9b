"""Closed-form model geometries, geodesic polar grids and quadrature.

Four two-dimensional metric-measure model spaces are supported:

* ``euclidean``       -- the flat plane, uniform measure.
* ``sphere``          -- curvature ``k > 0``, embedded as the round sphere of
                         radius ``1/sqrt(k)`` in R^3.
* ``hyperbolic``      -- curvature ``-k``, hyperboloid model in Minkowski R^{2,1}.
* ``gaussian_plane``  -- flat metric with weighted measure
                         ``exp(-lam*|x|^2/2) dx``.

They are one family keyed by the signed curvature kappa (k, -k, 0, 0).  The
curved members are the quadric <p, p> = 1/kappa under the family inner
product (Euclidean, Minkowski), so each operation has one curved formula in
the model functions sn/cs (sin/cos, sinh/cosh) of s rho, s = sqrt|kappa|, and
where it pays a flat-chart one free of transcendental work.  The weight
V = lam |p|^2 / 2 is keyed by lam alone, 0 off the gaussian plane.

Points live in embedding coordinates (length-2 vectors for the plane models,
length-3 for sphere/hyperboloid).  distance, log and psi, psi' at the
distance all come from one inner product, the chord <q - p, q - p>, exactly
0 at q == p.  Every inner product is a sum of component products taken in
the one order (t0 + t1) + t2, so distance can form chord^2 from the
per-component differences q[..., i] - p[..., i], never building the batch of
differences that log needs for its tangent, and still equal log's rho bit
for bit.  A batch of per-point scalars times a batch of vectors (the tangent
of log, the two terms of exp, the frame's projection and normalisation) is
formed component by component, as numpy broadcasts it over the trailing
axis several times slower; each component takes the same operations as the
stacked form, so the values are the same bit for bit.  Ball measures are
floats in closed form, but for one radial Gauss-Legendre rule off the
gaussian origin.  All operations are vectorized over leading axes and pure,
so callers may evaluate them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

__all__ = [
    "ModelSpace",
    "GeodesicBallGrid",
    "build_polar_grid",
    "euclidean",
    "sphere",
    "hyperbolic",
    "gaussian_plane",
]

_MINK_DIAG = np.array([1.0, 1.0, -1.0])  # Minkowski signature (+,+,-)
_I0_MAX = 700.0  # largest |lam| |c| r of an off-origin weighted ball; np.i0 overflows from 710
_COSH_MAX = 710.4758600739439  # acosh of the largest float64: cosh and sinh overflow past it
_ROUND_TOL = 32.0 * np.finfo(float).eps  # on-model and tangency rounding, per |x|^2; see on_model
# the flat charts' tangent frame, the coordinate basis, which tangent_frame
# broadcasts read-only over a batch
_E1 = np.array([1.0, 0.0])
_E2 = np.array([0.0, 1.0])
_E1.flags.writeable = _E2.flags.writeable = False


@cache
def _gauss_legendre():
    """64-node Gauss-Legendre rule on [0, 1]; loads numpy.polynomial on first use."""
    t, w = np.polynomial.legendre.leggauss(64)
    return 0.5 * (t + 1.0), 0.5 * w


def _products(a, b):
    """The component products a[..., i] b[..., i]."""
    return [a[..., i] * b[..., i] for i in range(a.shape[-1])]


def _euclidean_sum(t):
    """Euclidean inner product from its component products, (t0 + t1) + t2."""
    return t[0] + t[1] + t[2] if len(t) == 3 else t[0] + t[1]


def _minkowski_sum(t):
    """Minkowski inner product, signature (+,+,-), from its component products."""
    return t[0] + t[1] - t[2]


def _dot(a, b):
    return _euclidean_sum(_products(a, b))


def _scale(s, v, out=None):
    """The per-point scaling s[..., None] * v, formed component by component
    (into out, which may be v itself): numpy broadcasts a batch of scalars
    over a trailing axis of length 2 or 3 several times slower than it runs
    the components one by one.  One scalar s broadcasts at no such cost, and
    takes one product, as a single point's jet or step does."""
    if np.ndim(s) == 0:
        return np.multiply(s, v, out=out)
    if out is None:
        out = np.empty(np.broadcast(s[..., None], v).shape)
    for i in range(v.shape[-1]):
        np.multiply(s, v[..., i], out=out[..., i])
    return out


def _cross(a, b):
    """The cross product of 3-vectors over the last axis, by the same
    component products and differences as np.cross, without its copies."""
    out = np.empty(np.broadcast(a, b).shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def _identity(t):
    return t


def _one_at_zero(x, ratio):
    """ratio(x), a 0/0 of limit 1 at x = 0, read as 1 where x == 0 alone (NaN stays NaN)."""
    zero = x == 0.0
    return np.where(zero, 1.0, ratio(np.where(zero, 1.0, x)))


# kind -> (sn, cs, tn = sn/cs, asn = sn's inverse, the distance from the half
# chord, isum = the ambient inner product as a sum of component products)
_FAMILY = {
    "sphere": (np.sin, np.cos, np.tan, np.arcsin, _euclidean_sum),
    "hyperbolic": (np.sinh, np.cosh, np.tanh, np.arcsinh, _minkowski_sum),
    "euclidean": (_identity, np.ones_like, _identity, _identity, _euclidean_sum),
    "gaussian_plane": (_identity, np.ones_like, _identity, _identity, _euclidean_sum),
}


@dataclass(frozen=True)
class ModelSpace:
    """One of the four closed-form model metric-measure spaces.

    The kind fixes a row (sn, cs, asn, isum) of the family table and the
    signed curvature kappa = sectional(), both resolved at construction; lam
    alone fixes the weight, and only the gaussian plane may set it nonzero.

    Parameters
    ----------
    kind : str
        "euclidean", "sphere", "hyperbolic" or "gaussian_plane".
    k : float
        Curvature magnitude for sphere/hyperbolic (> 0 there, ignored else).
    lam : float
        Weight coefficient, V(x) = lam*|x|^2/2; nonzero only on the gaussian plane.
    """

    kind: str
    k: float = 0.0
    lam: float = 0.0
    dim: int = field(default=2, init=False)
    _sn: Callable = field(init=False, repr=False, compare=False)
    _cs: Callable = field(init=False, repr=False, compare=False)
    _tn: Callable = field(init=False, repr=False, compare=False)
    _asn: Callable = field(init=False, repr=False, compare=False)
    _isum: Callable = field(init=False, repr=False, compare=False)
    _kappa: float = field(init=False, repr=False, compare=False)
    _s: float = field(init=False, repr=False, compare=False)  # sqrt|kappa|, 1 if flat

    def __post_init__(self):
        if self.kind not in _FAMILY:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in ("sphere", "hyperbolic") and not self.k > 0:
            raise ValueError(f"{self.kind} requires curvature k > 0")
        if self.lam != 0.0 and self.kind != "gaussian_plane":
            raise ValueError(f"{self.kind} carries no weight: lam must be 0")
        kappa = {"sphere": self.k, "hyperbolic": -self.k}.get(self.kind, 0.0)
        derived = zip(("_sn", "_cs", "_tn", "_asn", "_isum", "_kappa", "_s"),
                      (*_FAMILY[self.kind], kappa, math.sqrt(abs(kappa)) or 1.0))
        for name, value in derived:
            object.__setattr__(self, name, value)

    # -- basic descriptors -------------------------------------------------

    @property
    def embedding_dim(self) -> int:
        return 2 if self.is_flat_chart else 3

    @property
    def is_flat_chart(self) -> bool:
        return self._kappa == 0.0

    @property
    def is_weighted(self) -> bool:
        """True when the measure carries a nontrivial weight exp(-V)."""
        return self.lam != 0.0

    @property
    def cut_radius(self) -> float:
        """Radius within which exp is a diffeomorphism (pi/sqrt(k) on the sphere)."""
        return math.pi / self._s if self._kappa > 0 else math.inf

    @property
    def domain_radius_limit(self) -> float:
        """Working-ball limit keeping every restricted distance function smooth."""
        return 0.5 * math.pi / self._s if self._kappa > 0 else math.inf

    def origin(self) -> np.ndarray:
        if self.is_flat_chart:
            return np.zeros(2)
        return np.array([0.0, 0.0, 1.0 / self._s])

    def _inner(self, a, b):
        """The family inner product <a, b> over the last axis."""
        return self._isum(_products(a, b))

    # -- embedding constraints --------------------------------------------

    def on_model(self, xs) -> bool:
        """True when the point of ambient coordinates xs (floats) is on the
        model to rounding, |<x, x> - 1/kappa| <= 32 eps |x|^2 (Euclidean |.|):
        8 ulps of |x| off the model leave 2 sqrt(3) 8 eps |x|^2, and forming
        <x, x> and 1/kappa 2 eps |x|^2 more.  Every flat-chart point is."""
        if self._kappa == 0.0:
            return True
        sq = [a * a for a in xs]
        xn = math.sqrt(_euclidean_sum(sq))   # False below where either sum left float64
        return abs(self._isum(sq) - 1.0 / self._kappa) <= _ROUND_TOL * xn * xn < math.inf

    def tangent_inner(self, p, v, w) -> np.ndarray:
        """Riemannian inner product of tangent vectors at p."""
        return self._inner(v, w)

    def tangent_norm(self, p, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.tangent_inner(p, v, v), 0.0))

    def lower(self, v):
        """v with its index lowered, tangent_inner(p, v, w) == lower(v) . w: v times
        the Minkowski diagonal on the hyperboloid, v itself elsewhere."""
        return v * _MINK_DIAG if self._kappa < 0 else v

    # -- distance / exp / log ----------------------------------------------

    def _rho(self, chord_sq):
        """(rho, chord) from chord^2 = <q - p, q - p>: rho = 2 asn(s chord/2)/s,
        the chord when flat."""
        chord = np.sqrt(np.maximum(chord_sq, 0.0))
        half = (0.5 * self._s) * chord
        # on the sphere cs(s rho) = 1 - 2 half^2 must stay above -1 + 1e-9
        if self._kappa > 0 and np.any(half * half > 1.0 - 5e-10):
            raise ValueError("antipodal pair on the sphere (cut locus)")
        return (2.0 / self._s) * self._asn(half), chord

    def _polar(self, p, q):
        """(rho, psi(rho), psi'(rho), w) of each pair from its chord:
        psi = chord sqrt(1 - kappa chord^2/4), psi' = 1 - kappa chord^2/2, and
        w = q - kappa <p, q> p = (q - p) + (kappa chord^2/2) p, the tangent at
        p toward q with |w| = psi; exactly (0, 0, 1, 0) at q == p.  Flat
        charts skip the kappa = 0 arithmetic: rho = psi = chord, psi' = 1
        and w = d + 0.0, which turns a -0.0 difference into the +0.0 that
        d + 0 p gives, so the values match the curved form's bit for bit.
        d = q - p and then w are formed in place, component by component, by
        the same operations as the stacked forms."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        w = np.empty(np.broadcast(p, q).shape)
        for i in range(w.shape[-1]):
            np.subtract(q[..., i], p[..., i], out=w[..., i])
        if self.is_flat_chart:
            rho = np.sqrt(np.maximum(self._inner(w, w), 0.0))
            w += 0.0
            return rho, rho, np.ones_like(rho), w
        rho, chord = self._rho(self._inner(w, w))
        h = (0.25 * self._kappa) * chord * chord
        h2 = 2.0 * h
        w += _scale(h2, p)
        return rho, chord * np.sqrt(1.0 - h), 1.0 - h2, w

    def distance(self, p, q) -> np.ndarray:
        """rho of each pair, its chord^2 summed over the component differences
        q[..., i] - p[..., i]: the batch q - p of points is never formed."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        d = [q[..., i] - p[..., i] for i in range(q.shape[-1])]
        return self._rho(self._isum([c * c for c in d]))[0]

    def exp(self, p, v) -> np.ndarray:
        """Geodesic exponential cs(t) p + (sn(t)/t) v, t = s|v|, sn(t)/t = 1 at t = 0
        alone; requires |v| < cut_radius, and t <= _COSH_MAX (float64) on the hyperboloid."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        if self.is_flat_chart:   # the cut radius is infinite
            return p + v
        L = self.tangent_norm(p, v)
        self._refuse_reach(p, v, float(np.fmax.reduce(L, axis=None, initial=-math.inf)))
        t = self._s * L
        out = _scale(self._cs(t), p)
        out += _scale(_one_at_zero(t, lambda x: self._sn(x) / x), v)
        return out

    def _refuse_reach(self, p, v, L: float):
        """exp's refusals of the tangents v at p, L their largest norm (NaNs
        left out): a hyperboloid radius past float64, then the cut radius."""
        if self._kappa < 0 and self._s * L > _COSH_MAX:
            big = float(np.max(np.abs(v)))   # |v| itself may overflow in L
            raise _radius_range_error(f"exp on {_model_label(self)}",
                                      big * float(np.max(self.tangent_norm(p, v / big))))
        if L >= self.cut_radius - 1e-15:
            raise ValueError("tangent norm exceeds the cut radius")

    def log(self, p, q) -> np.ndarray:
        """Inverse of exp within the cut radius, exactly 0 at q == p."""
        rho, psi, _, w = self._polar(p, q)
        return _scale(rho / np.where(psi > 0.0, psi, 1.0), w, out=w)

    # -- frames --------------------------------------------------------------

    def tangent_frame(self, p):
        """A deterministic orthonormal tangent frame (e1, e2) at p.  On the
        flat charts it is the coordinate basis, as read-only views that
        broadcast one constant pair over p's batch: nothing is copied."""
        p = np.asarray(p, float)
        if self.is_flat_chart:
            shape = p.shape[:-1] + (2,)
            return np.broadcast_to(_E1, shape), np.broadcast_to(_E2, shape)
        # project the ambient x-axis, fall back to y-axis near its poles
        e1 = self._project_tangent(p, np.array([1.0, 0.0, 0.0]))
        n1 = self.tangent_norm(p, e1)
        bad = n1 < 1e-6
        if np.any(bad):
            e1 = np.where(bad[..., None], self._project_tangent(p, np.array([0.0, 1.0, 0.0])), e1)
            n1 = self.tangent_norm(p, e1)
        for i in range(3):
            e1[..., i] /= n1
        e2 = self.rotate90(p, e1)
        return e1, e2

    def _project_tangent(self, p, w):
        """Tangential part w - kappa <w, p> p of an ambient vector at p."""
        out = _scale(self._kappa * self._inner(w, p), p)
        for i in range(3):
            np.subtract(w[..., i], out[..., i], out=out[..., i])
        return out

    def rotate90(self, p, v):
        """Unit-preserving rotation of a tangent vector by +90 degrees."""
        v = np.asarray(v, float)
        if self.is_flat_chart:
            out = np.empty_like(v)
            out[..., 0] = -v[..., 1]
            out[..., 1] = v[..., 0]
            return out
        # lowered, the cross product with the unit normal s p is tangent on
        # both quadrics; lowering flips the sign of the third component, by
        # the same product with -1 as lower()
        out = _cross(self._s * np.asarray(p, float), v)
        if self._kappa < 0:
            out[..., 2] *= _MINK_DIAG[2]
        return out

    # -- metric coefficient, weight ------------------------------------------

    def psi(self, rho):
        """Polar metric coefficient sn(s rho)/s: rho, sin(s rho)/s or sinh(s rho)/s."""
        return self._sn(self._s * np.asarray(rho, float)) / self._s

    def dpsi(self, rho):
        return self._cs(self._s * np.asarray(rho, float))

    def dist_hessian_transverse(self, rho):
        """Transverse eigenvalue rho psi'/psi = t/tn(t), t = s rho, of Hess(rho_y^2 / 2) at
        distance rho (radial: 1); finite on the hyperboloid past _COSH_MAX, unlike psi'/psi."""
        return _one_at_zero(self._s * np.asarray(rho, float), lambda t: t / self._tn(t))

    def weight_V(self, p):
        """V(p) = lam |p|^2 / 2, identically zero when lam = 0."""
        p = np.asarray(p, float)
        return 0.5 * self.lam * _dot(p, p)

    def grad_V(self, p):
        return self.lam * np.asarray(p, float)

    # -- measures --------------------------------------------------------------

    def ball_measure(self, center, r) -> float:
        """nu-measure of the geodesic ball B_r(center).

        Unweighted balls have the closed form 4 pi psi(r/2)^2, free of the
        cancellation in 2 pi/kappa (1 - dpsi(r)); weighted balls have one at
        the origin.  Off it the angle integral is 2 pi exp(-lam (|c| - sgn(lam)
        rho)^2/2 - x) I0(x), x = |lam| |c| rho (a bounded exponent); 64-node
        Gauss-Legendre takes the radius.  x > 700 raises: np.i0 overflows from 710.
        """
        if not r < self.cut_radius:
            raise ValueError("ball radius exceeds the cut radius")
        lam = self.lam
        if lam == 0.0:
            return float(4.0 * math.pi * self.psi(0.5 * r) ** 2)
        c = math.hypot(*np.asarray(center, float))
        if c < 1e-14:
            return 2.0 * math.pi / lam * -math.expm1(-0.5 * lam * r * r)
        x_max = abs(lam) * c * r
        if x_max > _I0_MAX:
            raise ValueError(f"weighted ball needs |lam| |c| r <= {_I0_MAX:g}, not {x_max:g}")
        t, w = _gauss_legendre()
        rho, x = r * t, x_max * t
        f = rho * np.exp(-0.5 * lam * (c - np.copysign(rho, lam)) ** 2 - x) * np.i0(x)
        return float(2.0 * math.pi * r * np.dot(w, f))

    # -- curvature --------------------------------------------------------------

    def sectional(self) -> float:
        """Constant sectional (= Gauss) curvature kappa of the underlying metric."""
        return self._kappa

    def ricci_nu_quadratic(self, p, v, N):
        """Bakry-Emery Ricci form Ric_{N,nu}(v, v) at p (N in [2, inf])."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        base = self._kappa * self.tangent_inner(p, v, v)
        if self.lam == 0.0:
            return base
        lam = self.lam
        hessV = lam * _dot(v, v)  # D^2 V = lam * Id
        if math.isinf(N):
            return base + hessV
        if N <= self.dim:
            raise ValueError("finite N must exceed dim when the weight is nontrivial")
        return base + hessV - (lam * lam) * _dot(p, v) ** 2 / (N - self.dim)

    def ricci_lower_bound(self, N, ball_radius) -> float:
        """Greatest K' with Ric_{N,nu} >= K' g on the ball of given radius at the origin."""
        if not math.isinf(N):
            if N < self.dim:
                raise ValueError("effective dimension N must be >= dim")
            if N == self.dim and self.lam != 0.0:
                raise ValueError("N == dim requires a trivial weight")
        lam = self.lam
        if lam == 0.0:
            return self._kappa
        if math.isinf(N):
            return lam
        # eigenvalues of lam*I - lam^2 (x tensor x)/(N-2): {lam, lam - lam^2 rho^2/(N-2)}
        edge = lam - lam * lam * ball_radius**2 / (N - self.dim)
        return min(lam, edge)

    def ricci_reach(self, N, K) -> float:
        """Radius where ricci_lower_bound(N, .) = lam - lam^2 rho^2/(N - 2) falls
        below -K; inf where the bound is constant or below -K at 0."""
        lam = self.lam
        if lam == 0.0 or not self.dim < N < math.inf or lam + K <= 0.0:
            return math.inf
        return math.sqrt((N - self.dim) * (lam + K)) / abs(lam)


def euclidean() -> ModelSpace:
    return ModelSpace("euclidean")


def sphere(k: float) -> ModelSpace:
    return ModelSpace("sphere", k=k)


def hyperbolic(k: float) -> ModelSpace:
    return ModelSpace("hyperbolic", k=k)


def gaussian_plane(lam: float) -> ModelSpace:
    return ModelSpace("gaussian_plane", lam=lam)


@dataclass(frozen=True)
class GeodesicBallGrid:
    """Cell-centered geodesic polar grid over B_radius(center).

    Nodes sit at radii ``(i + 1/2) * radius/n_r`` and angles ``2 pi j / n_theta``;
    ``weights[i, j] = psi(rho_i) * exp(-V(node)) * drho * dtheta`` so that
    ``weights.sum()`` approximates the nu-measure of the ball.  The cell-centered
    radii avoid the polar coordinate singularity at rho = 0.

    A grid is fixed once made: no field can be rebound, and rho, theta,
    points and weights are made read-only (center, which may be the caller's
    own array, is left alone), so no caller can change the nodes or weights
    that the checks built on the grid read.
    """

    model: ModelSpace
    center: np.ndarray
    radius: float
    n_r: int
    n_theta: int
    rho: np.ndarray
    theta: np.ndarray
    points: np.ndarray   # (n_r, n_theta, embedding_dim)
    weights: np.ndarray  # (n_r, n_theta)
    frame: tuple         # orthonormal tangent frame at the center

    def __post_init__(self):
        for arr in (self.rho, self.theta, self.points, self.weights):
            arr.flags.writeable = False

    @property
    def drho(self) -> float:
        return self.radius / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def shape(self):
        return (self.n_r, self.n_theta)

    def flat_points(self) -> np.ndarray:
        return self.points.reshape(-1, self.points.shape[-1])

    def flat_weights(self) -> np.ndarray:
        return self.weights.reshape(-1)

    def mask_within(self, center, r) -> np.ndarray:
        """Boolean node mask of the sub-ball B_r(center)."""
        d = self.model.distance(self.points, np.asarray(center, float))
        return d <= r

    def radial_rings(self, r) -> int:
        """Number of complete rings with rho_i <= r."""
        return int(np.sum(self.rho <= r))


def _same_nodes(g: GeodesicBallGrid, h: GeodesicBallGrid) -> bool:
    """True when h samples g's nodes: the same grid, or one of equal shape,
    node coordinates and model, the model compared by value."""
    return h is g or (h.shape == g.shape and h.model == g.model
                      and np.array_equal(h.points, g.points))


def _model_label(m: ModelSpace) -> str:
    return f"the {m.kind} model (k={m.k:g}, lam={m.lam:g})"


def _grid_label(g: GeodesicBallGrid) -> str:
    return (f"{g.n_r}x{g.n_theta} over radius {g.radius:g} about "
            f"{np.round(g.center, 6).tolist()} on {_model_label(g.model)}")


def _radius_range_error(what: str, r: float) -> ValueError:
    """The error for a radius r at which what leaves float64, naming the end."""
    end = "large" if r > 1.0 else "small"
    return ValueError(f"{what}: radius {r:g} is too {end} for the float64 range")


def build_polar_grid(model: ModelSpace, center, r: float, n_r: int, n_theta: int) -> GeodesicBallGrid:
    """Build the geodesic polar grid; rejects radii beyond the working-ball limit."""
    if n_r < 8 or n_theta < 8:
        raise ValueError("grid resolution below the minimum of 8")
    if not r > 0:
        raise ValueError("grid radius must be positive")
    if not r < model.domain_radius_limit:
        raise ValueError("grid radius must stay below the working-ball limit")
    center = np.asarray(center, float)
    if not model.on_model(center.tolist()):
        raise ValueError("grid center is not a valid embedded point")
    drho = r / n_r
    dth = 2.0 * math.pi / n_theta
    rho = (np.arange(n_r) + 0.5) * drho
    theta = np.arange(n_theta) * dth
    e1, e2 = model.tangent_frame(center)
    dirs = np.cos(theta)[:, None] * e1[None, :] + np.sin(theta)[:, None] * e2[None, :]
    v = rho[:, None, None] * dirs[None, :, :]
    # per-node weight = cell integral of psi * exp(-V) along the ray, radial
    # 2-point Gauss per cell (midpoint form psi(rho_i) e^{-V} drho dth + O(h^2),
    # but the measure identity then holds to O(h^4)); exp(-V) is exactly 1
    # off the gaussian plane, so only a weighted model places the Gauss points
    off = 0.5 * drho / math.sqrt(3.0)
    weights = np.zeros((n_r, n_theta))
    with np.errstate(all="ignore"):   # a radius outside float64 range is refused below
        points = model.exp(center, v)
        for s in (-off, off):
            rg = rho + s
            term = 0.5 * model.psi(rg)[:, None]
            if model.is_weighted:
                pg = model.exp(center, rg[:, None, None] * dirs[None, :, :])
                term = term * np.exp(-model.weight_V(pg))
            weights += term
        weights *= drho * dth
        if not model.is_weighted:
            # exp(-V) = exp(-0 |p|^2) is 1 only while |p|^2 is finite; the
            # outermost Gauss points are the first to square past float64
            edge = model.exp(center, (rho[-1] + off) * dirs)
            if not np.all(np.isfinite(_dot(edge, edge))):
                raise _radius_range_error(f"grid points square past float64 on "
                                          f"{_model_label(model)}", r)
        total = float(np.sum(weights))
    if not 0.0 < total < math.inf:
        raise _radius_range_error(f"grid weights sum to {total:g} on {_model_label(model)}", r)
    return GeodesicBallGrid(model, center, float(r), n_r, n_theta, rho, theta, points, weights, (e1, e2))
