"""Closed-form model geometries, geodesic polar grids and quadrature.

Four two-dimensional metric-measure model spaces are supported:

* ``euclidean``       -- the flat plane, uniform measure.
* ``sphere``          -- curvature ``k > 0``, embedded as the round sphere of
                         radius ``1/sqrt(k)`` in R^3.
* ``hyperbolic``      -- curvature ``-k``, hyperboloid model in Minkowski R^{2,1}.
* ``gaussian_plane``  -- flat metric with weighted measure
                         ``exp(-lam*|x|^2/2) dx``.

Points live in embedding coordinates (length-2 vectors for the plane models,
length-3 for sphere/hyperboloid), which keeps distance/exp/log branch-free
and exactly testable.  All operations are vectorized over leading axes and
pure, so callers may evaluate them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelSpace",
    "GeodesicBallGrid",
    "Measure",
    "build_polar_grid",
    "euclidean",
    "sphere",
    "hyperbolic",
    "gaussian_plane",
]

_MINK = np.diag([1.0, 1.0, -1.0])  # Minkowski signature (+,+,-)


class Measure(NamedTuple):
    value: float
    method: str  # "closed_form" or "quadrature"


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _mdot(a, b):
    """Minkowski inner product with signature (+,+,-)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]


@dataclass(frozen=True)
class ModelSpace:
    """One of the four closed-form model metric-measure spaces.

    Parameters
    ----------
    kind : str
        "euclidean", "sphere", "hyperbolic" or "gaussian_plane".
    k : float
        Curvature magnitude for sphere/hyperbolic (> 0 there, ignored else).
    lam : float
        Weight coefficient of the gaussian plane, V(x) = lam*|x|^2/2.
    """

    kind: str
    k: float = 0.0
    lam: float = 0.0
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere", "hyperbolic", "gaussian_plane"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in ("sphere", "hyperbolic") and not self.k > 0:
            raise ValueError(f"{self.kind} requires curvature k > 0")

    # -- basic descriptors -------------------------------------------------

    @property
    def embedding_dim(self) -> int:
        return 3 if self.kind in ("sphere", "hyperbolic") else 2

    @property
    def is_flat_chart(self) -> bool:
        return self.kind in ("euclidean", "gaussian_plane")

    @property
    def cut_radius(self) -> float:
        """Radius within which exp is a diffeomorphism (pi/sqrt(k) on the sphere)."""
        if self.kind == "sphere":
            return math.pi / math.sqrt(self.k)
        return math.inf

    @property
    def domain_radius_limit(self) -> float:
        """Working-ball limit keeping every restricted distance function smooth."""
        if self.kind == "sphere":
            return 0.5 * math.pi / math.sqrt(self.k)
        return math.inf

    def origin(self) -> np.ndarray:
        if self.kind == "sphere":
            return np.array([0.0, 0.0, 1.0 / math.sqrt(self.k)])
        if self.kind == "hyperbolic":
            return np.array([0.0, 0.0, 1.0 / math.sqrt(self.k)])
        return np.zeros(2)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("sphere", "hyperbolic"):
            d["k"] = self.k
        if self.kind == "gaussian_plane":
            d["lambda"] = self.lam
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ModelSpace":
        return ModelSpace(d["kind"], k=d.get("k", 0.0), lam=d.get("lambda", 0.0))

    # -- embedding constraints --------------------------------------------

    def embedding_residual(self, p) -> np.ndarray:
        """|constraint violation| of a point: 0 for valid embedded points."""
        p = np.asarray(p, float)
        if self.kind == "sphere":
            return np.abs(_dot(p, p) - 1.0 / self.k)
        if self.kind == "hyperbolic":
            return np.abs(_mdot(p, p) + 1.0 / self.k)
        return np.zeros(p.shape[:-1])

    def tangency_residual(self, p, v) -> np.ndarray:
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        if self.kind == "sphere":
            return np.abs(_dot(p, v))
        if self.kind == "hyperbolic":
            return np.abs(_mdot(p, v))
        return np.zeros(np.broadcast_shapes(p.shape[:-1], v.shape[:-1]))

    def tangent_inner(self, p, v, w) -> np.ndarray:
        """Riemannian inner product of tangent vectors at p."""
        if self.kind == "hyperbolic":
            return _mdot(v, w)
        return _dot(v, w)

    def tangent_norm(self, p, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.tangent_inner(p, v, v), 0.0))

    # -- distance / exp / log ----------------------------------------------

    def distance(self, p, q) -> np.ndarray:
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if self.kind == "sphere":
            c = _dot(p, q) * self.k
            if np.any(c < -1.0 + 1e-9):
                raise ValueError("antipodal pair on the sphere (cut locus)")
            return np.arccos(np.clip(c, -1.0, 1.0)) / math.sqrt(self.k)
        if self.kind == "hyperbolic":
            c = -_mdot(p, q) * self.k
            return np.arccosh(np.maximum(c, 1.0)) / math.sqrt(self.k)
        return np.linalg.norm(q - p, axis=-1)

    def exp(self, p, v) -> np.ndarray:
        """Geodesic exponential; requires |v| < cut_radius."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        L = self.tangent_norm(p, v)
        if np.any(L >= self.cut_radius - 1e-15):
            raise ValueError("tangent norm exceeds the cut radius")
        if self.is_flat_chart:
            return p + v
        sk = math.sqrt(self.k)
        t = sk * L
        # sin(t)/t and its hyperbolic twin are smooth at 0; series below 1e-6
        small = t < 1e-6
        if self.kind == "sphere":
            c = np.cos(t)
            s_over = np.where(small, 1.0 - t * t / 6.0, np.sin(np.where(small, 1.0, t)) / np.where(small, 1.0, t))
        else:
            c = np.cosh(t)
            s_over = np.where(small, 1.0 + t * t / 6.0, np.sinh(np.where(small, 1.0, t)) / np.where(small, 1.0, t))
        return c[..., None] * p + s_over[..., None] * v

    def log(self, p, q) -> np.ndarray:
        """Inverse of exp within the cut radius: exp(p, log(p, q)) == q."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if self.is_flat_chart:
            return q - p
        d = self.distance(p, q)
        if self.kind == "sphere":
            u = q - (self.k * _dot(q, p))[..., None] * p
            nu = np.sqrt(np.maximum(_dot(u, u), 0.0))
        else:
            u = q + (self.k * _mdot(q, p))[..., None] * p
            nu = np.sqrt(np.maximum(_mdot(u, u), 0.0))
        scale = np.where(nu > 0, d / np.where(nu > 0, nu, 1.0), 0.0)
        return scale[..., None] * u

    # -- frames --------------------------------------------------------------

    def tangent_frame(self, p):
        """A deterministic orthonormal tangent frame (e1, e2) at p."""
        p = np.asarray(p, float)
        if self.is_flat_chart:
            shape = p.shape[:-1]
            e1 = np.broadcast_to(np.array([1.0, 0.0]), shape + (2,))
            e2 = np.broadcast_to(np.array([0.0, 1.0]), shape + (2,))
            return e1.copy(), e2.copy()
        # project the ambient x-axis, fall back to y-axis near its poles
        a = np.broadcast_to(np.array([1.0, 0.0, 0.0]), p.shape).copy()
        e1 = self._project_tangent(p, a)
        n1 = self.tangent_norm(p, e1)
        bad = n1 < 1e-6
        if np.any(bad):
            b = np.broadcast_to(np.array([0.0, 1.0, 0.0]), p.shape).copy()
            e1 = np.where(bad[..., None], self._project_tangent(p, b), e1)
            n1 = self.tangent_norm(p, e1)
        e1 = e1 / n1[..., None]
        e2 = self.rotate90(p, e1)
        return e1, e2

    def _project_tangent(self, p, w):
        if self.kind == "sphere":
            return w - (self.k * _dot(w, p))[..., None] * p
        return w + (self.k * _mdot(w, p))[..., None] * p

    def rotate90(self, p, v):
        """Unit-preserving rotation of a tangent vector by +90 degrees."""
        v = np.asarray(v, float)
        if self.is_flat_chart:
            out = np.empty_like(v)
            out[..., 0] = -v[..., 1]
            out[..., 1] = v[..., 0]
            return out
        p = np.asarray(p, float)
        sk = math.sqrt(self.k)
        if self.kind == "sphere":
            return np.cross(sk * p, v)
        # Minkowski cross J(u x v) is M-orthogonal to both u and v
        return np.cross(sk * p, v) @ _MINK

    # -- metric coefficient, weight ------------------------------------------

    def psi(self, rho):
        """Polar metric coefficient: rho, sin(sqrt(k) rho)/sqrt(k), sinh(..)/sqrt(k)."""
        rho = np.asarray(rho, float)
        if self.kind == "sphere":
            sk = math.sqrt(self.k)
            return np.sin(sk * rho) / sk
        if self.kind == "hyperbolic":
            sk = math.sqrt(self.k)
            return np.sinh(sk * rho) / sk
        return rho

    def dpsi(self, rho):
        rho = np.asarray(rho, float)
        if self.kind == "sphere":
            return np.cos(math.sqrt(self.k) * rho)
        if self.kind == "hyperbolic":
            return np.cosh(math.sqrt(self.k) * rho)
        return np.ones_like(rho)

    def dist_hessian_transverse(self, rho):
        """Transverse eigenvalue of Hess(rho_y^2 / 2) at distance rho (radial one is 1)."""
        rho = np.asarray(rho, float)
        small = np.abs(rho) < 1e-8
        safe = np.where(small, 1.0, rho)
        out = safe * self.dpsi(safe) / self.psi(safe)
        return np.where(small, 1.0, out)

    def weight_V(self, p):
        p = np.asarray(p, float)
        if self.kind == "gaussian_plane":
            return 0.5 * self.lam * _dot(p, p)
        return np.zeros(p.shape[:-1])

    def grad_V(self, p):
        p = np.asarray(p, float)
        if self.kind == "gaussian_plane":
            return self.lam * p
        return np.zeros_like(p)

    # -- measures --------------------------------------------------------------

    def ball_measure(self, center, r, n_quad: int = 512) -> Measure:
        """nu-measure of the geodesic ball B_r(center).

        Closed forms exist everywhere for the unweighted models and at the
        origin of the gaussian plane; other gaussian centers fall back to a
        dense radial-angular quadrature and are flagged as such.
        """
        if not r < self.cut_radius:
            raise ValueError("ball radius exceeds the cut radius")
        if self.kind == "euclidean":
            return Measure(math.pi * r * r, "closed_form")
        if self.kind == "sphere":
            return Measure(2.0 * math.pi / self.k * (1.0 - math.cos(math.sqrt(self.k) * r)), "closed_form")
        if self.kind == "hyperbolic":
            return Measure(2.0 * math.pi / self.k * (math.cosh(math.sqrt(self.k) * r) - 1.0), "closed_form")
        center = np.asarray(center, float)
        if _dot(center, center) < 1e-28:
            lam = self.lam
            if abs(lam) < 1e-15:
                return Measure(math.pi * r * r, "closed_form")
            return Measure(2.0 * math.pi / lam * -math.expm1(-0.5 * lam * r * r), "closed_form")
        # midpoint quadrature of exp(-V) over the off-origin disc
        h = r / n_quad
        rho = (np.arange(n_quad) + 0.5) * h
        th = (np.arange(n_quad) + 0.5) * (2 * math.pi / n_quad)
        pts = center + rho[:, None, None] * np.stack([np.cos(th), np.sin(th)], -1)[None, :, :]
        w = np.exp(-self.weight_V(pts)) * rho[:, None]
        return Measure(float(w.sum() * h * (2 * math.pi / n_quad)), "quadrature")

    # -- curvature --------------------------------------------------------------

    def sectional(self) -> float:
        """Constant sectional (= Gauss) curvature of the underlying metric."""
        if self.kind == "sphere":
            return self.k
        if self.kind == "hyperbolic":
            return -self.k
        return 0.0

    def ricci_nu_quadratic(self, p, v, N):
        """Bakry-Emery Ricci form Ric_{N,nu}(v, v) at p (N in [2, inf])."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        base = self.sectional() * self.tangent_inner(p, v, v)
        if self.kind != "gaussian_plane" or self.lam == 0.0:
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
            if N == self.dim and self.kind == "gaussian_plane" and self.lam != 0.0:
                raise ValueError("N == dim requires a trivial weight")
        if self.kind == "sphere":
            return self.k
        if self.kind == "hyperbolic":
            return -self.k
        if self.kind == "euclidean":
            return 0.0
        lam = self.lam
        if math.isinf(N):
            return lam
        # eigenvalues of lam*I - lam^2 (x tensor x)/(N-2): {lam, lam - lam^2 rho^2/(N-2)}
        edge = lam - lam * lam * ball_radius**2 / (N - self.dim)
        return min(lam, edge)


def euclidean() -> ModelSpace:
    return ModelSpace("euclidean")


def sphere(k: float) -> ModelSpace:
    return ModelSpace("sphere", k=k)


def hyperbolic(k: float) -> ModelSpace:
    return ModelSpace("hyperbolic", k=k)


def gaussian_plane(lam: float) -> ModelSpace:
    return ModelSpace("gaussian_plane", lam=lam)


@dataclass
class GeodesicBallGrid:
    """Cell-centered geodesic polar grid over B_radius(center).

    Nodes sit at radii ``(i + 1/2) * radius/n_r`` and angles ``2 pi j / n_theta``;
    ``weights[i, j] = psi(rho_i) * exp(-V(node)) * drho * dtheta`` so that
    ``weights.sum()`` approximates the nu-measure of the ball.  The cell-centered
    radii avoid the polar coordinate singularity at rho = 0.
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

    def integrate(self, values) -> float:
        """Quadrature of a node-sampled function against nu."""
        return float(np.sum(self.weights * np.asarray(values)))

    def mask_within(self, center, r) -> np.ndarray:
        """Boolean node mask of the sub-ball B_r(center)."""
        d = self.model.distance(self.points, np.asarray(center, float))
        return d <= r

    def radial_rings(self, r) -> int:
        """Number of complete rings with rho_i <= r."""
        return int(np.sum(self.rho <= r))


def build_polar_grid(model: ModelSpace, center, r: float, n_r: int, n_theta: int) -> GeodesicBallGrid:
    """Build the geodesic polar grid; rejects radii beyond the working-ball limit."""
    if n_r < 8 or n_theta < 8:
        raise ValueError("grid resolution below the minimum of 8")
    if not r > 0:
        raise ValueError("grid radius must be positive")
    if not r < model.domain_radius_limit:
        raise ValueError("grid radius must stay below the working-ball limit")
    center = np.asarray(center, float)
    if model.embedding_residual(center) > 1e-9:
        raise ValueError("grid center is not a valid embedded point")
    drho = r / n_r
    dth = 2.0 * math.pi / n_theta
    rho = (np.arange(n_r) + 0.5) * drho
    theta = np.arange(n_theta) * dth
    e1, e2 = model.tangent_frame(center)
    dirs = np.cos(theta)[:, None] * e1[None, :] + np.sin(theta)[:, None] * e2[None, :]
    v = rho[:, None, None] * dirs[None, :, :]
    points = model.exp(center, v)
    # per-node weight = cell integral of psi * exp(-V) along the ray, radial
    # 2-point Gauss per cell (midpoint form psi(rho_i) e^{-V} drho dth + O(h^2),
    # but the measure identity then holds to O(h^4))
    off = 0.5 * drho / math.sqrt(3.0)
    weights = np.zeros((n_r, n_theta))
    for s in (-off, off):
        rg = rho + s
        pg = model.exp(center, rg[:, None, None] * dirs[None, :, :])
        weights += 0.5 * model.psi(rg)[:, None] * np.exp(-model.weight_V(pg))
    weights *= drho * dth
    return GeodesicBallGrid(model, center, float(r), n_r, n_theta, rho, theta, points, weights, (e1, e2))
