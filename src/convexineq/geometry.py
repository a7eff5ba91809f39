"""Convex bodies, volumes, and deterministic quadrature.

The body variants are a Euclidean ball, an axis-aligned cube, a cross-polytope
(ℓ¹ ball), a bounded H-polytope ``{x : Ax ≤ b}``, and an affine image of any
of these.  A separate :class:`RectUnion` models finite unions of axis-aligned
rectangles in the plane; it is not convex but supports the same quadrature
interface, which is what the functional-inequality routines need.

Conventions used throughout:

* Bodies are full-dimensional with nonempty interior; degenerate parameters
  are rejected at construction.
* ``volume`` is exact for ball, cube, cross-polytope, rectangle unions, and
  affine images of those; H-polytopes fall back to rejection sampling from
  the bounding box and report a standard error.
* ``interior_quadrature`` returns nodes and weights whose sum equals the
  exact volume: weights are exact cell measures, nodes are cell centers, so
  integrals of smooth functions converge at second order in the mesh size.
* ``boundary_quadrature`` returns nodes, outward unit normals, and weights
  summing to the exact surface measure.  In one dimension the boundary
  measure is counting measure, so each endpoint has weight one.
* A body cannot be changed after construction (its attributes and arrays
  are read-only), so each quadrature mesh is built once per body object and
  resolution and kept on the object; every call after the first returns the
  same read-only arrays.
* What differs between variants lives on the variant's class, so no other
  module branches on the kind of body: beside membership, support and
  quadrature, the hooks ``_direct_sampler``, ``_support_norm`` and
  ``_exact_center`` (None where the variant has no closed form) and a
  convex body's hit-and-run ``_chord``.

Serialization is canonical JSON; a body's fingerprint is the SHA-256 of that
form, computed once per body object, and is used to tie sampled point clouds
back to the body they came from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateBodyError,
    DimensionMismatchError,
    QuadratureUnsupportedError,
    SamplingError,
    SolverError,
    UnboundedBodyError,
)
from .estimate import Estimate
from ._rng import CHUNK, Purpose, rng_for
from .reporting import canonical_hash

_DET_FLOOR = 1e-12


def unit_ball_volume(n: int) -> float:
    """Volume of the unit Euclidean ball in dimension n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DegenerateBodyError(f"dimension must be >= 1, got {n}")
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError as exc:
        raise DegenerateBodyError(f"unit ball volume overflows at dimension {n}") from exc


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n, i.e. n * omega_n."""
    return n * unit_ball_volume(n)


@dataclass(frozen=True)
class AffineMap:
    """An invertible affine map x -> linear @ x + shift."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        L = np.atleast_2d(np.array(self.linear, dtype=float))
        s = np.atleast_1d(np.array(self.shift, dtype=float))
        if L.shape[0] != L.shape[1] or L.shape[0] != s.shape[0]:
            raise DimensionMismatchError(
                f"affine map shapes inconsistent: linear {L.shape}, shift {s.shape}"
            )
        if not (np.all(np.isfinite(L)) and np.all(np.isfinite(s))):
            raise DegenerateBodyError("affine map entries must be finite")
        det = float(np.linalg.det(L))
        if abs(det) < _DET_FLOOR:
            raise DegenerateBodyError(f"affine map is singular: |det| = {abs(det):.3e}")
        L.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "shift", s)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.shift

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -inv @ self.shift)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Return the map x -> self(inner(x))."""
        return AffineMap(self.linear @ inner.linear, self.linear @ inner.shift + self.shift)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))

    def to_json(self) -> dict:
        return {"linear": self.linear.tolist(), "shift": self.shift.tolist()}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoundaryMesh:
    """Surface quadrature: nodes on the boundary, outward unit normals, weights.

    Weights sum to the surface measure of the body (counting measure in 1-D).
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    resolution: int
    body_fingerprint: str

    def __post_init__(self):
        for name in ("nodes", "normals", "weights"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.nodes.shape != self.normals.shape or self.nodes.shape[0] != self.weights.shape[0]:
            raise DimensionMismatchError("boundary mesh arrays have inconsistent shapes")
        if np.any(self.weights < 0):
            raise DegenerateBodyError("boundary weights must be nonnegative")

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


class _Region:
    """What every domain shares: identity by canonical JSON, the quadrature
    hooks, and the caches of what is derived from the immutable body.

    Attributes are read-only once set, so a cached fingerprint or mesh can
    never go stale; the caches themselves are written by ``cached_property``
    straight into ``__dict__``.
    """

    dim: int

    def __setattr__(self, name, value):
        if name in self.__dict__ or hasattr(type(self), name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def to_json(self) -> dict:
        raise NotImplementedError

    @functools.cached_property
    def _fingerprint(self) -> str:
        return canonical_hash(self.to_json())

    def fingerprint(self) -> str:
        return self._fingerprint

    @functools.cached_property
    def _meshes(self) -> dict:
        """Quadrature meshes already built, keyed by (kind, resolution)."""
        return {}

    def __eq__(self, other):
        if not isinstance(other, _Region):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.fingerprint())

    def _interior_quadrature(self, resolution: int):
        raise QuadratureUnsupportedError(
            f"interior quadrature unsupported for {type(self).__name__} in dimension {self.dim}"
        )

    def _boundary_quadrature(self, resolution: int):
        raise QuadratureUnsupportedError(
            f"boundary quadrature unsupported for {type(self).__name__} in dimension {self.dim}"
        )

    def _direct_sampler(self):
        """make(generator, count) drawing count exact uniform points, or None."""
        return None

    def _support_norm(self) -> tuple[str, float] | None:
        """(norm "1", "2" or "inf", scale) with h(u) = scale * ||u||_norm, or None."""
        return None

    def _exact_center(self) -> np.ndarray | None:
        """The barycentre when it is known without sampling, else None."""
        return None


class ConvexBody(_Region):
    """Base class for the convex body variants."""

    # -- membership -------------------------------------------------------

    def contains_many(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    # -- scalar geometry ---------------------------------------------------

    def support(self, u: np.ndarray) -> float:
        """Support function h(u) = max_{x in body} <u, x>."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume_closed_form(self) -> float | None:
        """Exact volume when available, else None."""
        return None

    def surface_area_closed_form(self) -> float | None:
        return None

    def interior_point(self) -> np.ndarray:
        """A point in the interior, used as a chain anchor."""
        raise NotImplementedError

    def _chord(self, x: np.ndarray, d: np.ndarray, diam: float) -> tuple[np.ndarray, np.ndarray]:
        """(tmin, tmax) of the chords {x + t d} for rows of x and unit rows of d,
        by bisection on membership to float precision; closed forms override it."""
        out = []
        for sign in (1.0, -1.0):
            lo = np.zeros(x.shape[0])
            hi = np.full(x.shape[0], diam)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                inside = self.contains_many(x + (sign * mid)[:, None] * d)
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
            out.append(sign * lo)
        return out[1], out[0]


def _check_point_shape(body, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    if squeeze:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != body.dim:
        raise DimensionMismatchError(
            f"points of dimension {pts.shape[-1] if pts.ndim else '?'} "
            f"against body of dimension {body.dim}"
        )
    return pts


class Ball(ConvexBody):
    """Euclidean ball of given radius centered at the origin."""

    def __init__(self, radius: float, dim: int):
        if dim < 1:
            raise DegenerateBodyError(f"dimension must be >= 1, got {dim}")
        if not (radius > 0 and math.isfinite(radius)):
            raise DegenerateBodyError(f"ball radius must be positive and finite, got {radius}")
        self.radius = float(radius)
        self.dim = int(dim)

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        return np.linalg.norm(pts, axis=1) <= self.radius * (1.0 + tol)

    def support(self, u):
        return self.radius * float(np.linalg.norm(u))

    def bounding_box(self):
        r = np.full(self.dim, self.radius)
        return -r, r

    def volume_closed_form(self):
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def surface_area_closed_form(self):
        if self.dim == 1:
            return 2.0
        return unit_sphere_area(self.dim) * self.radius ** (self.dim - 1)

    def interior_point(self):
        return np.zeros(self.dim)

    def to_json(self):
        return {"variant": "ball", "dim": self.dim, "radius": self.radius}

    def _direct_sampler(self):
        # a Gaussian direction scaled by U^(1/n) times the radius
        n, r = self.dim, self.radius

        def make(g, count):
            z = g.standard_normal((count, n))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            u = g.random(count) ** (1.0 / n)
            return r * z * u[:, None]

        return make

    def _support_norm(self):
        return "2", self.radius

    def _exact_center(self):
        return np.zeros(self.dim)

    def _chord(self, x, d, diam):
        # |x + t d| = r with |d| = 1
        r = self.radius
        xd = (x * d).sum(axis=1)
        disc = xd * xd - ((x * x).sum(axis=1) - r * r)
        disc = np.maximum(disc, 0.0)
        root = np.sqrt(disc)
        return -xd - root, -xd + root

    def _interior_quadrature(self, resolution):
        r, n = self.radius, self.dim
        if n == 1:
            return _interval_interior(-r, r, resolution)
        if n == 2:
            edges_r = np.linspace(0.0, r, resolution + 1)
            edges_t = np.linspace(0.0, 2 * math.pi, 2 * resolution + 1)
            rm = 0.5 * (edges_r[:-1] + edges_r[1:])
            tm = 0.5 * (edges_t[:-1] + edges_t[1:])
            # exact cell areas: (r2^2 - r1^2)/2 * dtheta
            wr = 0.5 * (edges_r[1:] ** 2 - edges_r[:-1] ** 2)
            dt = edges_t[1] - edges_t[0]
            R, T = np.meshgrid(rm, tm, indexing="ij")
            nodes = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
            weights = np.repeat(wr * dt, tm.size)
            return nodes, weights
        if n == 3:
            edges_r = np.linspace(0.0, r, resolution + 1)
            edges_p = np.linspace(0.0, math.pi, resolution + 1)
            edges_a = np.linspace(0.0, 2 * math.pi, 2 * resolution + 1)
            rm = 0.5 * (edges_r[:-1] + edges_r[1:])
            pm = 0.5 * (edges_p[:-1] + edges_p[1:])
            am = 0.5 * (edges_a[:-1] + edges_a[1:])
            wr = (edges_r[1:] ** 3 - edges_r[:-1] ** 3) / 3.0
            wp = np.cos(edges_p[:-1]) - np.cos(edges_p[1:])
            da = edges_a[1] - edges_a[0]
            R, P, A = np.meshgrid(rm, pm, am, indexing="ij")
            nodes = np.stack(
                [
                    (R * np.sin(P) * np.cos(A)).ravel(),
                    (R * np.sin(P) * np.sin(A)).ravel(),
                    (R * np.cos(P)).ravel(),
                ],
                axis=1,
            )
            WR, WP, WA = np.meshgrid(wr, wp, np.full(am.size, da), indexing="ij")
            weights = (WR * WP * WA).ravel()
            return nodes, weights
        raise QuadratureUnsupportedError(f"ball interior quadrature limited to n <= 3, got n = {n}")

    def _boundary_quadrature(self, resolution):
        r, n = self.radius, self.dim
        if n == 1:
            return _interval_boundary(-r, r)
        if n == 2:
            m = 4 * resolution
            theta = (np.arange(m) + 0.5) * (2 * math.pi / m)
            normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            nodes = r * normals
            weights = np.full(m, 2 * math.pi * r / m)
            return nodes, normals, weights
        if n == 3:
            edges_p = np.linspace(0.0, math.pi, resolution + 1)
            edges_a = np.linspace(0.0, 2 * math.pi, 2 * resolution + 1)
            pm = 0.5 * (edges_p[:-1] + edges_p[1:])
            am = 0.5 * (edges_a[:-1] + edges_a[1:])
            wp = np.cos(edges_p[:-1]) - np.cos(edges_p[1:])
            da = edges_a[1] - edges_a[0]
            P, A = np.meshgrid(pm, am, indexing="ij")
            normals = np.stack(
                [(np.sin(P) * np.cos(A)).ravel(), (np.sin(P) * np.sin(A)).ravel(), np.cos(P).ravel()],
                axis=1,
            )
            nodes = r * normals
            WP, WA = np.meshgrid(wp, np.full(am.size, da), indexing="ij")
            weights = r * r * (WP * WA).ravel()
            return nodes, normals, weights
        # High dimensions: equal-weight points drawn from a stream keyed by
        # (dim, resolution) so the mesh is deterministic without a seed input.
        m = 2 * resolution * resolution
        g = rng_for(1000003 * n + resolution, Purpose.SPHERE_MESH)
        z = g.standard_normal((m, n))
        normals = z / np.linalg.norm(z, axis=1, keepdims=True)
        nodes = r * normals
        area = unit_sphere_area(n) * r ** (n - 1)
        weights = np.full(m, area / m)
        return nodes, normals, weights


class Cube(ConvexBody):
    """Axis-aligned cube [-side/2, side/2]^n."""

    def __init__(self, side: float, dim: int):
        if dim < 1:
            raise DegenerateBodyError(f"dimension must be >= 1, got {dim}")
        if not (side > 0 and math.isfinite(side)):
            raise DegenerateBodyError(f"cube side must be positive and finite, got {side}")
        self.side = float(side)
        self.dim = int(dim)

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        half = self.side / 2.0
        return np.all(np.abs(pts) <= half * (1.0 + tol), axis=1)

    def support(self, u):
        return 0.5 * self.side * float(np.abs(np.asarray(u, float)).sum())

    def bounding_box(self):
        h = np.full(self.dim, self.side / 2.0)
        return -h, h

    def volume_closed_form(self):
        return self.side**self.dim

    def surface_area_closed_form(self):
        if self.dim == 1:
            return 2.0
        return 2 * self.dim * self.side ** (self.dim - 1)

    def interior_point(self):
        return np.zeros(self.dim)

    def to_json(self):
        return {"variant": "cube", "dim": self.dim, "side": self.side}

    def _direct_sampler(self):
        # independent uniform coordinates
        n, s = self.dim, self.side

        def make(g, count):
            return (g.random((count, n)) - 0.5) * s

        return make

    def _support_norm(self):
        return "1", self.side / 2.0

    def _exact_center(self):
        return np.zeros(self.dim)

    def _chord(self, x, d, diam):
        half = self.side / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half - x) / d
            t2 = (half - x) / d
        lo = np.where(d != 0, np.minimum(t1, t2), -np.inf)
        hi = np.where(d != 0, np.maximum(t1, t2), np.inf)
        return lo.max(axis=1), hi.min(axis=1)

    def _interior_quadrature(self, resolution):
        if self.dim > 3:
            raise QuadratureUnsupportedError(
                f"cube interior quadrature limited to n <= 3, got n = {self.dim}"
            )
        half = self.side / 2.0
        return _box_interior(-np.full(self.dim, half), np.full(self.dim, half), resolution)

    def _boundary_quadrature(self, resolution):
        if self.dim == 1:
            return _interval_boundary(-self.side / 2, self.side / 2)
        if self.dim > 3:
            raise QuadratureUnsupportedError(
                f"cube boundary quadrature limited to n <= 3, got n = {self.dim}"
            )
        lo, hi = self.bounding_box()
        return _box_boundary(lo, hi, resolution)


class L1Ball(ConvexBody):
    """Cross-polytope {x : sum |x_i| <= radius}."""

    def __init__(self, radius: float, dim: int):
        if dim < 1:
            raise DegenerateBodyError(f"dimension must be >= 1, got {dim}")
        if not (radius > 0 and math.isfinite(radius)):
            raise DegenerateBodyError(
                f"cross-polytope radius must be positive and finite, got {radius}"
            )
        self.radius = float(radius)
        self.dim = int(dim)

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        return np.abs(pts).sum(axis=1) <= self.radius * (1.0 + tol)

    def support(self, u):
        return self.radius * float(np.max(np.abs(np.asarray(u, float))))

    def bounding_box(self):
        r = np.full(self.dim, self.radius)
        return -r, r

    def volume_closed_form(self):
        # 2^n r^n / n!
        return (2.0 * self.radius) ** self.dim / math.factorial(self.dim)

    def surface_area_closed_form(self):
        n, r = self.dim, self.radius
        if n == 1:
            return 2.0
        # 2^n facets, each a regular simplex with vertices r e_i, area
        # sqrt(n) r^(n-1) / (n-1)!
        return 2**n * math.sqrt(n) * r ** (n - 1) / math.factorial(n - 1)

    def interior_point(self):
        return np.zeros(self.dim)

    def to_json(self):
        return {"variant": "l1ball", "dim": self.dim, "radius": self.radius}

    def _direct_sampler(self):
        # exponential spacings: with e_1, ..., e_{n+1} iid standard
        # exponentials, (e_1, ..., e_n) / (e_1 + ... + e_{n+1}) is uniform on
        # the standard simplex, and random signs spread it over all orthants
        n, r = self.dim, self.radius

        def make(g, count):
            e = g.standard_exponential((count, n + 1))
            x = e[:, :n] / e.sum(axis=1, keepdims=True)
            signs = np.where(g.random((count, n)) < 0.5, -1.0, 1.0)
            return r * x * signs

        return make

    def _support_norm(self):
        return "inf", self.radius

    def _exact_center(self):
        return np.zeros(self.dim)

    def _polygon(self):
        r = self.radius
        return np.array([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]])

    def _interior_quadrature(self, resolution):
        r, n = self.radius, self.dim
        if n == 1:
            return _interval_interior(-r, r, resolution)
        if n == 2:
            return _polygon_interior(self._polygon(), resolution)
        raise QuadratureUnsupportedError(
            f"cross-polytope interior quadrature limited to n <= 2, got n = {n}"
        )

    def _boundary_quadrature(self, resolution):
        r, n = self.radius, self.dim
        if n == 1:
            return _interval_boundary(-r, r)
        if n == 2:
            return _polygon_boundary(self._polygon(), resolution)
        if n == 3:
            nodes_all, normals_all, weights_all = [], [], []
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    for sz in (1.0, -1.0):
                        tri = np.array([[sx * r, 0, 0], [0, sy * r, 0], [0, 0, sz * r]])
                        nrm = np.array([sx, sy, sz]) / math.sqrt(3.0)
                        nd, wt = _triangle_refine(tri, resolution)
                        nodes_all.append(nd)
                        weights_all.append(wt)
                        normals_all.append(np.tile(nrm, (nd.shape[0], 1)))
            return (
                np.concatenate(nodes_all),
                np.concatenate(normals_all),
                np.concatenate(weights_all),
            )
        raise QuadratureUnsupportedError(
            f"cross-polytope boundary quadrature limited to n <= 3, got n = {n}"
        )


class HPolytope(ConvexBody):
    """Bounded polyhedron {x : A x <= b} with nonempty interior.

    Construction solves 2n support programs to certify boundedness and a
    Chebyshev-center program to certify a nonempty interior; both are cached.
    """

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"constraint shapes inconsistent: A {A.shape}, b {b.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise DegenerateBodyError("constraint entries must be finite")
        norms = np.linalg.norm(A, axis=1)
        vacuous = norms < 1e-14
        if np.any(vacuous & (b < 0)):
            raise DegenerateBodyError("constraint 0 <= b with b < 0 makes the polytope empty")
        A, b, norms = A[~vacuous], b[~vacuous], norms[~vacuous]
        if A.shape[0] == 0:
            raise UnboundedBodyError("no effective constraints")
        self.A = A / norms[:, None]
        self.b = b / norms
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self.dim = A.shape[1]
        self._chebyshev = self._compute_chebyshev()
        self._bbox = self._compute_bbox()

    def _compute_chebyshev(self):
        n = self.dim
        # maximize r subject to A x + r <= b (rows are unit-normalized)
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A_ub = np.hstack([self.A, np.ones((self.A.shape[0], 1))])
        res = linprog(c, A_ub=A_ub, b_ub=self.b, bounds=[(None, None)] * n + [(0, None)],
                      method="highs")
        if res.status == 3:
            raise UnboundedBodyError("polytope admits a recession direction")
        if not res.success:
            raise DegenerateBodyError(f"interior certificate failed: {res.message}")
        center, radius = res.x[:n], res.x[n]
        if radius <= 1e-10:
            raise DegenerateBodyError(
                f"polytope has empty interior (inscribed radius {radius:.3e})"
            )
        return _read_only(center), float(radius)

    def _compute_bbox(self):
        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            for sign, out in ((1.0, hi), (-1.0, lo)):
                c = np.zeros(n)
                c[i] = -sign
                res = linprog(c, A_ub=self.A, b_ub=self.b,
                              bounds=[(None, None)] * n, method="highs")
                if res.status == 3:
                    raise UnboundedBodyError(
                        f"polytope is unbounded along coordinate {i}"
                    )
                if not res.success:
                    raise DegenerateBodyError(f"support program failed: {res.message}")
                out[i] = sign * (-res.fun)
        return _read_only(lo), _read_only(hi)

    @property
    def chebyshev_center(self) -> np.ndarray:
        return self._chebyshev[0].copy()

    @property
    def inscribed_radius(self) -> float:
        return self._chebyshev[1]

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        scale = 1.0 + np.abs(self.b)
        return np.all(pts @ self.A.T <= self.b + tol * scale, axis=1)

    def support(self, u):
        u = np.asarray(u, dtype=float)
        res = linprog(-u, A_ub=self.A, b_ub=self.b,
                      bounds=[(None, None)] * self.dim, method="highs")
        if not res.success:
            raise SolverError(f"support program failed: status {res.status}, {res.message}")
        return float(-res.fun)

    def bounding_box(self):
        return self._bbox[0].copy(), self._bbox[1].copy()

    def interior_point(self):
        return self.chebyshev_center

    def to_json(self):
        return {"variant": "hpolytope", "dim": self.dim, "A": self.A.tolist(), "b": self.b.tolist()}

    def _chord(self, x, d, diam):
        # row i bounds t above where <a_i, d> > 0 and below where it is < 0
        num = self.b[None, :] - x @ self.A.T
        den = d @ self.A.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = num / den
        hi = np.where(den > 1e-300, t, np.inf).min(axis=1)
        lo = np.where(den < -1e-300, t, -np.inf).max(axis=1)
        return lo, hi

    def vertices_2d(self) -> np.ndarray:
        """Vertices of a planar polytope in counterclockwise order."""
        if self.dim != 2:
            raise QuadratureUnsupportedError("vertex enumeration implemented for n = 2 only")
        m = self.A.shape[0]
        pts = []
        for i in range(m):
            for j in range(i + 1, m):
                M = self.A[[i, j]]
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                v = np.linalg.solve(M, self.b[[i, j]])
                if np.all(self.A @ v <= self.b + 1e-9 * (1.0 + np.abs(self.b))):
                    pts.append(v)
        if len(pts) < 3:
            raise DegenerateBodyError("planar polytope has fewer than 3 vertices")
        pts = np.array(pts)
        center = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        order = np.argsort(ang)
        pts = pts[order]
        keep = [0]
        for k in range(1, len(pts)):
            if np.linalg.norm(pts[k] - pts[keep[-1]]) > 1e-9:
                keep.append(k)
        if np.linalg.norm(pts[keep[-1]] - pts[keep[0]]) <= 1e-9 and len(keep) > 1:
            keep.pop()
        return pts[keep]

    def _interior_quadrature(self, resolution):
        if self.dim == 1:
            lo, hi = self.bounding_box()
            return _interval_interior(lo[0], hi[0], resolution)
        if self.dim == 2:
            return _polygon_interior(self.vertices_2d(), resolution)
        raise QuadratureUnsupportedError(
            f"H-polytope interior quadrature limited to n <= 2, got n = {self.dim}"
        )

    def _boundary_quadrature(self, resolution):
        if self.dim == 1:
            lo, hi = self.bounding_box()
            return _interval_boundary(lo[0], hi[0])
        if self.dim == 2:
            return _polygon_boundary(self.vertices_2d(), resolution)
        raise QuadratureUnsupportedError(
            f"H-polytope boundary quadrature limited to n <= 2, got n = {self.dim}"
        )


class AffineImage(ConvexBody):
    """Image T(K) = {L x + s : x in K} of a base body under an invertible map.

    Nested affine images are flattened at construction so the base is always
    one of the primitive variants.
    """

    def __init__(self, base: ConvexBody, linear, shift=None):
        if not isinstance(base, ConvexBody):
            raise DegenerateBodyError("affine image base must be a convex body")
        n = base.dim
        if shift is None:
            shift = np.zeros(n)
        outer = AffineMap(np.asarray(linear, float), np.asarray(shift, float))
        if outer.dim != n:
            raise DimensionMismatchError(
                f"map dimension {outer.dim} against body dimension {n}"
            )
        if isinstance(base, AffineImage):
            outer = outer.compose(base.map)
            base = base.base
        self.base = base
        self.map = outer
        self._inv = outer.inverse()
        self.dim = n

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        return self.base.contains_many(self._inv.apply(pts), tol=tol)

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return self.base.support(self.map.linear.T @ u) + float(self.map.shift @ u)

    def bounding_box(self):
        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            hi[i] = self.support(e)
            lo[i] = -self.support(-e)
        return lo, hi

    def volume_closed_form(self):
        v = self.base.volume_closed_form()
        if v is None:
            return None
        return abs(self.map.det) * v

    def interior_point(self):
        return self.map.apply(self.base.interior_point()[None, :])[0]

    def to_json(self):
        return {
            "variant": "affine_image",
            "dim": self.dim,
            "base": self.base.to_json(),
            **self.map.to_json(),
        }

    def _direct_sampler(self):
        # base samples pushed through the map
        inner = self.base._direct_sampler()
        if inner is None:
            return None
        amap = self.map

        def make(g, count):
            return amap.apply(inner(g, count))

        return make

    def _support_norm(self):
        # only a pure scaling t I (t > 0, no shift) keeps the base's norm, so
        # volume-one normalizations stay on the closed-form path
        L, s = self.map.linear, self.map.shift
        t = L[0, 0]
        if (
            t > 0
            and np.allclose(L, t * np.eye(self.dim), rtol=0, atol=1e-14 * abs(t))
            and np.allclose(s, 0.0, rtol=0, atol=1e-14 * abs(t))
        ):
            inner = self.base._support_norm()
            if inner is not None:
                return inner[0], inner[1] * t
        return None

    def _exact_center(self):
        center = self.base._exact_center()
        return None if center is None else self.map.linear @ center + self.map.shift

    def _interior_quadrature(self, resolution):
        nodes, weights = self.base._interior_quadrature(resolution)
        return self.map.apply(nodes), weights * abs(self.map.det)

    def _boundary_quadrature(self, resolution):
        nodes, normals, weights = self.base._boundary_quadrature(resolution)
        mapped = self.map.apply(nodes)
        # surface pushforward: normal nu -> L^{-T} nu / |L^{-T} nu|,
        # weight w -> w * |det L| * |L^{-T} nu|
        cot = normals @ self._inv.linear  # rows are L^{-T} nu
        lens = np.linalg.norm(cot, axis=1)
        new_normals = cot / lens[:, None]
        new_weights = weights * abs(self.map.det) * lens
        return mapped, new_normals, new_weights


class RectUnion(_Region):
    """Union of axis-aligned closed rectangles in the plane.

    Rectangles must have pairwise disjoint interiors.  Exact volume and
    quadrature come from the rectangles themselves; boundary quadrature drops
    the shared portions of adjacent rectangle edges so that only the true
    topological boundary carries surface measure.
    """

    dim = 2

    def __init__(self, rects):
        parsed = []
        for lo, hi in rects:
            lo = _read_only(np.array(lo, dtype=float))
            hi = _read_only(np.array(hi, dtype=float))
            if lo.shape != (2,) or hi.shape != (2,):
                raise DimensionMismatchError("rect union rectangles must be 2-D")
            if not np.all(hi > lo):
                raise DegenerateBodyError(f"degenerate rectangle: lo {lo}, hi {hi}")
            parsed.append((lo, hi))
        if not parsed:
            raise DegenerateBodyError("rect union needs at least one rectangle")
        for i in range(len(parsed)):
            for j in range(i + 1, len(parsed)):
                (lo1, hi1), (lo2, hi2) = parsed[i], parsed[j]
                overlap = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
                if np.all(overlap > 1e-12):
                    raise DegenerateBodyError(
                        f"rectangles {i} and {j} have overlapping interiors"
                    )
        self.rects = tuple(parsed)

    def contains_many(self, points, tol=0.0):
        pts = _check_point_shape(self, points)
        out = np.zeros(pts.shape[0], dtype=bool)
        for lo, hi in self.rects:
            pad = tol * (1.0 + np.abs(hi - lo))
            out |= np.all((pts >= lo - pad) & (pts <= hi + pad), axis=1)
        return out

    def support(self, u):
        u = np.asarray(u, dtype=float)
        best = -math.inf
        for lo, hi in self.rects:
            best = max(best, float(np.maximum(u * lo, u * hi).sum()))
        return best

    def bounding_box(self):
        lo = np.min([lo for lo, _ in self.rects], axis=0)
        hi = np.max([hi for _, hi in self.rects], axis=0)
        return lo, hi

    def volume_closed_form(self):
        return float(sum(np.prod(hi - lo) for lo, hi in self.rects))

    def surface_area_closed_form(self):
        total = 0.0
        for k, (lo, hi) in enumerate(self.rects):
            for axis in (0, 1):
                for side_coord, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
                    segs = self._exposed(k, axis, side_coord, sign)
                    total += sum(b - a for a, b in segs)
        return total

    def interior_point(self):
        areas = [float(np.prod(hi - lo)) for lo, hi in self.rects]
        lo, hi = self.rects[int(np.argmax(areas))]
        return (lo + hi) / 2.0

    def to_json(self):
        return {
            "variant": "rect_union",
            "dim": 2,
            "rects": [[lo.tolist(), hi.tolist()] for lo, hi in self.rects],
        }

    def _direct_sampler(self):
        # the budget is split across rectangles in proportion to area, with
        # largest-remainder rounding, and each share is uniform on its box
        areas = np.array([float(np.prod(hi - lo)) for lo, hi in self.rects])
        probs = areas / areas.sum()
        rects = self.rects

        def make(g, count):
            counts = _largest_remainder(probs * count)
            parts = []
            for (lo, hi), k in zip(rects, counts):
                if k:
                    parts.append(lo + (hi - lo) * g.random((k, 2)))
            return np.concatenate(parts) if parts else np.zeros((0, 2))

        return make

    def _exposed(self, k, axis, coord, sign):
        """Sub-intervals of rect k's edge not covered by a neighbor across it."""
        lo, hi = self.rects[k]
        other_axis = 1 - axis
        segments = [(float(lo[other_axis]), float(hi[other_axis]))]
        for j, (lo2, hi2) in enumerate(self.rects):
            if j == k:
                continue
            # neighbor must sit on the outward side with a face on this line
            facing = lo2[axis] if sign > 0 else hi2[axis]
            if abs(facing - coord) > 1e-12:
                continue
            cover = (float(lo2[other_axis]), float(hi2[other_axis]))
            segments = _subtract_interval(segments, cover)
        return [(a, b) for a, b in segments if b - a > 1e-12]

    def _interior_quadrature(self, resolution):
        nodes_all, weights_all = [], []
        for lo, hi in self.rects:
            nd, wt = _box_interior(lo, hi, resolution)
            nodes_all.append(nd)
            weights_all.append(wt)
        return np.concatenate(nodes_all), np.concatenate(weights_all)

    def _boundary_quadrature(self, resolution):
        ref = max(float(np.max(hi - lo)) for lo, hi in self.rects)
        nodes_all, normals_all, weights_all = [], [], []
        for k, (lo, hi) in enumerate(self.rects):
            for axis in (0, 1):
                for coord, sign in ((float(lo[axis]), -1.0), (float(hi[axis]), 1.0)):
                    nrm = np.zeros(2)
                    nrm[axis] = sign
                    for a, b in self._exposed(k, axis, coord, sign):
                        pieces = max(1, math.ceil(resolution * (b - a) / ref))
                        ts = a + (np.arange(pieces) + 0.5) * ((b - a) / pieces)
                        nd = np.empty((pieces, 2))
                        nd[:, axis] = coord
                        nd[:, 1 - axis] = ts
                        nodes_all.append(nd)
                        normals_all.append(np.tile(nrm, (pieces, 1)))
                        weights_all.append(np.full(pieces, (b - a) / pieces))
        return (
            np.concatenate(nodes_all),
            np.concatenate(normals_all),
            np.concatenate(weights_all),
        )


Domain = ConvexBody | RectUnion


def _largest_remainder(targets: np.ndarray) -> np.ndarray:
    """Floors of the targets, plus one for the largest fractional parts."""
    base = np.floor(targets).astype(int)
    short = int(round(targets.sum())) - int(base.sum())
    if short > 0:
        order = np.argsort(-(targets - base), kind="stable")
        base[order[:short]] += 1
    return base


def _subtract_interval(segments, cover):
    a2, b2 = cover
    out = []
    for a, b in segments:
        if b2 <= a or a2 >= b:
            out.append((a, b))
            continue
        if a2 > a:
            out.append((a, a2))
        if b2 < b:
            out.append((b2, b))
    return out


# -- shared quadrature helpers --------------------------------------------


def _interval_interior(a, b, resolution):
    edges = np.linspace(a, b, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids[:, None], np.full(resolution, (b - a) / resolution)


def _interval_boundary(a, b):
    nodes = np.array([[a], [b]])
    normals = np.array([[-1.0], [1.0]])
    weights = np.ones(2)
    return nodes, normals, weights


def _box_interior(lo, hi, resolution):
    n = lo.shape[0]
    axes = []
    for i in range(n):
        edges = np.linspace(lo[i], hi[i], resolution + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    cell = float(np.prod((hi - lo) / resolution))
    return nodes, np.full(nodes.shape[0], cell)


def _box_boundary(lo, hi, resolution):
    n = lo.shape[0]
    nodes_all, normals_all, weights_all = [], [], []
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        axes = []
        for i in others:
            edges = np.linspace(lo[i], hi[i], resolution + 1)
            axes.append(0.5 * (edges[:-1] + edges[1:]))
        if others:
            grids = np.meshgrid(*axes, indexing="ij")
            flat = np.stack([g.ravel() for g in grids], axis=1)
        else:
            flat = np.zeros((1, 0))
        area = float(np.prod([(hi[i] - lo[i]) / resolution for i in others])) if others else 1.0
        for coord, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
            nd = np.empty((flat.shape[0], n))
            nd[:, axis] = coord
            for col, i in enumerate(others):
                nd[:, i] = flat[:, col]
            nrm = np.zeros(n)
            nrm[axis] = sign
            nodes_all.append(nd)
            normals_all.append(np.tile(nrm, (nd.shape[0], 1)))
            weights_all.append(np.full(nd.shape[0], area))
    return np.concatenate(nodes_all), np.concatenate(normals_all), np.concatenate(weights_all)


def _polygon_area_centroid(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def _triangle_refine(tri, resolution):
    """Split a triangle into resolution^2 congruent copies; centroid nodes.

    Works in any ambient dimension; weights are exact sub-triangle measures.
    """
    a, b, c = tri[0], tri[1], tri[2]
    e1, e2 = b - a, c - a
    if tri.shape[1] == 2:
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    else:
        area = 0.5 * float(np.linalg.norm(np.cross(e1, e2)))
    r = resolution
    nodes = []
    # row i has (r - i) upward and (r - i - 1) downward sub-triangles
    for i in range(r):
        for j in range(r - i):
            # upward triangle with corners (j, i), (j+1, i), (j, i+1) in
            # barycentric lattice units; centroid at ((3j+1), (3i+1)) / (3r)
            nodes.append(a + e1 * ((3 * j + 1) / (3 * r)) + e2 * ((3 * i + 1) / (3 * r)))
        for j in range(r - i - 1):
            nodes.append(a + e1 * ((3 * j + 2) / (3 * r)) + e2 * ((3 * i + 2) / (3 * r)))
    nodes = np.array(nodes)
    weights = np.full(nodes.shape[0], area / (r * r))
    return nodes, weights


def _polygon_interior(vertices, resolution):
    area, centroid = _polygon_area_centroid(vertices)
    if area <= 0:
        vertices = vertices[::-1]
        area, centroid = _polygon_area_centroid(vertices)
    nodes_all, weights_all = [], []
    m = len(vertices)
    for k in range(m):
        tri = np.array([centroid, vertices[k], vertices[(k + 1) % m]])
        nd, wt = _triangle_refine(tri, resolution)
        nodes_all.append(nd)
        weights_all.append(wt)
    return np.concatenate(nodes_all), np.concatenate(weights_all)


def _polygon_boundary(vertices, resolution):
    area, _ = _polygon_area_centroid(vertices)
    if area <= 0:
        vertices = vertices[::-1]
    m = len(vertices)
    nodes_all, normals_all, weights_all = [], [], []
    for k in range(m):
        v0, v1 = vertices[k], vertices[(k + 1) % m]
        edge = v1 - v0
        length = float(np.linalg.norm(edge))
        if length <= 1e-14:
            continue
        # outward normal of a counterclockwise polygon edge
        nrm = np.array([edge[1], -edge[0]]) / length
        ts = (np.arange(resolution) + 0.5) / resolution
        nd = v0[None, :] + ts[:, None] * edge[None, :]
        nodes_all.append(nd)
        normals_all.append(np.tile(nrm, (resolution, 1)))
        weights_all.append(np.full(resolution, length / resolution))
    return np.concatenate(nodes_all), np.concatenate(normals_all), np.concatenate(weights_all)


# -- public module-level operations ----------------------------------------


def contains(body: Domain, point) -> bool:
    """Exact membership test for a single point."""
    return bool(body.contains_many(np.asarray(point, dtype=float))[0])


def volume_with_error(
    body: Domain, *, mc_samples: int = 200_000, seed: int = 0, method: str = "auto"
) -> Estimate:
    """Volume of the body: closed form when available, else rejection MC.

    Rejection sampling draws from the bounding box and counts hits; the
    standard error is the binomial one scaled by the box volume.  Passing
    method="mc" skips the closed form, which gives an estimator independent
    of it for cross-checks.
    """
    if method not in ("auto", "mc"):
        raise SamplingError(f"volume method must be 'auto' or 'mc', got {method!r}")
    v = body.volume_closed_form() if method == "auto" else None
    if v is not None:
        return Estimate(value=float(v), stderr=0.0, count=0, seed=None)
    if mc_samples <= 0:
        raise SamplingError(f"Monte Carlo sample budget must be positive, got {mc_samples}")
    lo, hi = body.bounding_box()
    box_vol = float(np.prod(hi - lo))
    hits = 0
    done = 0
    idx = 0
    while done < mc_samples:
        take = min(CHUNK, mc_samples - done)
        g = rng_for(seed, Purpose.VOLUME_MC, chunk=idx)
        pts = lo + (hi - lo) * g.random((take, body.dim))
        hits += int(body.contains_many(pts).sum())
        done += take
        idx += 1
    p = hits / mc_samples
    value = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1 - p), 1.0 / mc_samples) / mc_samples)
    return Estimate(value=value, stderr=stderr, count=mc_samples, seed=seed)


def volume(body: Domain, *, mc_samples: int = 200_000, seed: int = 0) -> float:
    return volume_with_error(body, mc_samples=mc_samples, seed=seed).value


def support(body: Domain, u) -> float:
    u = np.asarray(u, dtype=float)
    if u.shape != (body.dim,):
        raise DimensionMismatchError(f"direction shape {u.shape} against dimension {body.dim}")
    if np.linalg.norm(u) == 0:
        raise DegenerateBodyError("support direction must be nonzero")
    return body.support(u)


def bounding_box(body: Domain) -> tuple[np.ndarray, np.ndarray]:
    return body.bounding_box()


def apply_affine(body: ConvexBody, linear, shift=None) -> AffineImage:
    """Apply an invertible affine map, flattening nested images."""
    return AffineImage(body, linear, shift)


def normalize_to_volume_one(
    body: ConvexBody, *, mc_samples: int = 200_000, seed: int = 0
) -> AffineImage:
    """Rescale the body about the origin to unit volume.

    Always returns an affine image with a pure scaling map; the volume of the
    result is exactly one for closed-form variants and within the volume
    estimate's standard error for Monte Carlo ones.
    """
    v = body.volume_closed_form()
    if v is None:
        v = volume(body, mc_samples=mc_samples, seed=seed)
    t = v ** (-1.0 / body.dim)
    return AffineImage(body, t * np.eye(body.dim))


def interior_quadrature(domain: Domain, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic interior nodes and weights; weights sum to the volume.

    Second-order accurate for smooth integrands: doubling the resolution
    divides the error of a smooth integral by about four.  Built once per
    domain object and resolution; the arrays are read-only.
    """
    if resolution < 2:
        raise QuadratureUnsupportedError(f"interior resolution must be >= 2, got {resolution}")
    key = ("interior", int(resolution))
    mesh = domain._meshes.get(key)
    if mesh is None:
        nodes, weights = domain._interior_quadrature(int(resolution))
        mesh = domain._meshes[key] = (_read_only(nodes), _read_only(weights))
    return mesh


def boundary_quadrature(body: Domain, resolution: int) -> BoundaryMesh:
    """Deterministic surface mesh; weights sum to the surface measure.

    Built once per body object and resolution.
    """
    if resolution < 8:
        raise QuadratureUnsupportedError(f"boundary resolution must be >= 8, got {resolution}")
    key = ("boundary", int(resolution))
    mesh = body._meshes.get(key)
    if mesh is None:
        nodes, normals, weights = body._boundary_quadrature(int(resolution))
        mesh = body._meshes[key] = BoundaryMesh(
            nodes=nodes,
            normals=normals,
            weights=weights,
            resolution=int(resolution),
            body_fingerprint=fingerprint(body),
        )
    return mesh


def surface_area(body: Domain) -> float | None:
    """Closed-form surface measure when available."""
    return body.surface_area_closed_form()


def body_to_json(body: Domain) -> dict:
    return body.to_json()


def body_from_json(obj: dict) -> Domain:
    kind = obj.get("variant")
    if kind == "ball":
        return Ball(obj["radius"], obj["dim"])
    if kind == "cube":
        return Cube(obj["side"], obj["dim"])
    if kind == "l1ball":
        return L1Ball(obj["radius"], obj["dim"])
    if kind == "hpolytope":
        return HPolytope(np.asarray(obj["A"], float), np.asarray(obj["b"], float))
    if kind == "affine_image":
        base = body_from_json(obj["base"])
        return AffineImage(base, np.asarray(obj["linear"], float), np.asarray(obj["shift"], float))
    if kind == "rect_union":
        return RectUnion([(np.asarray(lo, float), np.asarray(hi, float)) for lo, hi in obj["rects"]])
    raise DegenerateBodyError(f"unknown body type {kind!r}")


def fingerprint(body: Domain) -> str:
    """SHA-256 of the canonical JSON form; stable across processes and
    computed once per body object."""
    return body.fingerprint()


def ball_volume_one(n: int) -> Ball:
    """The Euclidean ball of volume one in R^n (exact radius omega_n^(-1/n))."""
    return Ball(unit_ball_volume(n) ** (-1.0 / n), n)


def cube_volume_one(n: int) -> Cube:
    """The cube of volume one in R^n."""
    return Cube(1.0, n)


def l1_ball_volume_one(n: int) -> L1Ball:
    """The cross-polytope of volume one in R^n (exact radius (n!/2^n)^(1/n))."""
    return L1Ball((math.factorial(n) / 2.0**n) ** (1.0 / n), n)


def interval(a: float, b: float) -> ConvexBody:
    """The 1-D body [a, b], as a shifted cube."""
    if not (b > a):
        raise DegenerateBodyError(f"interval needs b > a, got [{a}, {b}]")
    return AffineImage(Cube(b - a, 1), np.eye(1), np.array([(a + b) / 2.0]))


def interval_bounds(domain: Domain) -> tuple[float, float]:
    """Endpoints of a 1-D body."""
    if domain.dim != 1:
        raise DimensionMismatchError(f"expected a 1-D body, got dimension {domain.dim}")
    lo, hi = domain.bounding_box()
    return float(lo[0]), float(hi[0])
