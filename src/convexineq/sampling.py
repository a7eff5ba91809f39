"""Uniform sampling from convex bodies.

Ball, cube, and cross-polytope have exact direct samplers:

* ball: a Gaussian direction scaled by U^(1/n) times the radius;
* cube: independent uniform coordinates;
* cross-polytope: exponential spacings. With e_1, ..., e_{n+1} iid standard
  exponentials, the vector (e_1, ..., e_n) / (e_1 + ... + e_{n+1}) is uniform
  on the standard simplex, and random signs spread it over all orthants.

Affine images push base samples through the map; H-polytopes fall back to a
vectorized hit-and-run chain.  Rectangle unions split the budget across
rectangles proportionally to area with largest-remainder rounding.

All samplers draw from counter-based streams in fixed-size chunks, so output
is bit-reproducible for a given (body, m, seed) regardless of scheduling.
Each call verifies membership of a 1% subsample before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from ._rng import CHUNK, Purpose, chunked, rng_for
from .errors import ChainStuckError, SamplingError
from .estimate import Estimate
from .geometry import AffineImage, Ball, ConvexBody, Cube, Domain, HPolytope, L1Ball, RectUnion

@dataclass(frozen=True)
class PointCloud:
    """Uniform sample of a body with provenance.

    Weights are the uniform 1/m; they exist so that downstream code treating
    clouds as discrete measures does not special-case the uniform case.
    """

    points: np.ndarray
    weights: np.ndarray
    seed: int
    sampler: str
    body_fingerprint: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or wts.shape != (pts.shape[0],):
            raise SamplingError("point cloud arrays have inconsistent shapes")
        if abs(wts.sum() - 1.0) > 1e-9:
            raise SamplingError("point cloud weights must sum to one")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def meta(self) -> dict:
        return {
            "count": self.count,
            "dim": self.dim,
            "seed": int(self.seed),
            "sampler": self.sampler,
            "body_fingerprint": self.body_fingerprint,
        }


def _direct_kernel(body):
    """Return make(generator, count) for variants with an exact sampler."""
    if isinstance(body, Ball):
        n, r = body.dim, body.radius

        def make(g, count):
            z = g.standard_normal((count, n))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            u = g.random(count) ** (1.0 / n)
            return r * z * u[:, None]

        return make
    if isinstance(body, Cube):
        n, s = body.dim, body.side

        def make(g, count):
            return (g.random((count, n)) - 0.5) * s

        return make
    if isinstance(body, L1Ball):
        n, r = body.dim, body.radius

        def make(g, count):
            e = g.standard_exponential((count, n + 1))
            x = e[:, :n] / e.sum(axis=1, keepdims=True)
            signs = np.where(g.random((count, n)) < 0.5, -1.0, 1.0)
            return r * x * signs

        return make
    if isinstance(body, RectUnion):
        areas = np.array([float(np.prod(hi - lo)) for lo, hi in body.rects])
        probs = areas / areas.sum()
        rects = body.rects

        def make(g, count):
            counts = _largest_remainder(probs * count)
            parts = []
            for (lo, hi), k in zip(rects, counts):
                if k:
                    parts.append(lo + (hi - lo) * g.random((k, 2)))
            return np.concatenate(parts) if parts else np.zeros((0, 2))

        return make
    return None


def _largest_remainder(targets: np.ndarray) -> np.ndarray:
    base = np.floor(targets).astype(int)
    short = int(round(targets.sum())) - int(base.sum())
    if short > 0:
        order = np.argsort(-(targets - base), kind="stable")
        base[order[:short]] += 1
    return base


def sample_uniform(body: Domain, m: int, seed: int) -> PointCloud:
    """Draw m uniform points; exact sampler when one exists, else hit-and-run."""
    if m <= 0:
        raise SamplingError(f"sample count must be positive, got {m}")
    if isinstance(body, AffineImage):
        inner = _direct_kernel(body.base)
        if inner is not None:
            base_make = inner
            amap = body.map

            def make(g, count):
                return amap.apply(base_make(g, count))

            pts = chunked(seed, Purpose.SAMPLE_DIRECT, 0, m, make)
            return _finish(body, pts, seed, "direct")
        return hit_and_run(body, m, seed)
    kernel = _direct_kernel(body)
    if kernel is not None:
        pts = chunked(seed, Purpose.SAMPLE_DIRECT, 0, m, kernel)
        return _finish(body, pts, seed, "direct")
    return hit_and_run(body, m, seed)


def _finish(body, pts, seed, sampler) -> PointCloud:
    m = pts.shape[0]
    k = max(1, math.ceil(m / 100))
    g = rng_for(seed, Purpose.SAMPLE_CHECK)
    idx = g.choice(m, size=min(k, m), replace=False)
    ok = body.contains_many(pts[idx], tol=1e-9)
    if not np.all(ok):
        bad = pts[idx[~ok]][0]
        raise SamplingError(
            f"sampler produced a point outside the body: {bad.tolist()} "
            f"({int((~ok).sum())} of {len(idx)} checked)"
        )
    return PointCloud(
        points=pts,
        weights=np.full(m, 1.0 / m),
        seed=seed,
        sampler=sampler,
        body_fingerprint=geometry.fingerprint(body),
    )


# -- hit-and-run -------------------------------------------------------------


def _chord_ball(r, x, d):
    # |x + t d| = r with |d| = 1
    xd = (x * d).sum(axis=1)
    disc = xd * xd - ((x * x).sum(axis=1) - r * r)
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    return -xd - root, -xd + root

def _chord_cube(half, x, d):
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - x) / d
        t2 = (half - x) / d
    lo = np.where(d != 0, np.minimum(t1, t2), -np.inf)
    hi = np.where(d != 0, np.maximum(t1, t2), np.inf)
    return lo.max(axis=1), hi.min(axis=1)

def _chord_polytope(A, b, x, d):
    num = b[None, :] - x @ A.T
    den = d @ A.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    hi = np.where(den > 1e-300, t, np.inf).min(axis=1)
    lo = np.where(den < -1e-300, t, -np.inf).max(axis=1)
    return lo, hi

def _chord_bisect(body, x, d, diam):
    """Chord endpoints by bisection on membership; exact to float precision."""
    out = []
    for sign in (1.0, -1.0):
        lo = np.zeros(x.shape[0])
        hi = np.full(x.shape[0], diam)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            inside = body.contains_many(x + (sign * mid)[:, None] * d)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        out.append(sign * lo)
    return out[1], out[0]


def hit_and_run(
    body: Domain,
    m: int,
    seed: int,
    burn_in: int | None = None,
    thinning: int | None = None,
) -> PointCloud:
    """Uniform sampling by hit-and-run: random direction, uniform chord point.

    Runs up to 64 independent chains in lockstep from a deterministic start
    (the average of boundary hits along the coordinate axes through an
    interior anchor).  Defaults: burn_in = 100 n, thinning = 10 n.
    """
    if m <= 0:
        raise SamplingError(f"sample count must be positive, got {m}")
    if isinstance(body, RectUnion):
        # chords through a non-convex union can leave and re-enter it
        raise SamplingError("hit-and-run requires a convex body; use sample_uniform")
    if isinstance(body, AffineImage):
        inner = hit_and_run(body.base, m, seed, burn_in, thinning)
        pts = body.map.apply(inner.points)
        return _finish(body, pts, seed, "hit_and_run")
    n = body.dim
    burn_in = 100 * n if burn_in is None else int(burn_in)
    thinning = 10 * n if thinning is None else max(1, int(thinning))
    lo, hi = body.bounding_box()
    diam = float(np.linalg.norm(hi - lo)) + 1e-300

    anchor = body.interior_point()
    hits = []
    for i in range(n):
        d = np.zeros((1, n))
        d[0, i] = 1.0
        tmin, tmax = _chord(body, anchor[None, :], d, diam)
        hits.append(anchor + tmax[0] * d[0])
        hits.append(anchor + tmin[0] * d[0])
    start = np.mean(hits, axis=0)
    if not body.contains_many(start[None, :])[0]:
        start = anchor

    chains = min(64, m)
    per_chain = math.ceil(m / chains)
    g = rng_for(seed, Purpose.SAMPLE_CHAIN)
    x = np.tile(start, (chains, 1))
    kept = np.empty((chains, per_chain, n))
    stuck = np.zeros(chains, dtype=int)
    # the state at time burn_in is the first retained sample, so burn_in=0,
    # thinning=1, m=1 returns the start point itself
    k = 0
    t_step = 0
    while True:
        if t_step >= burn_in and (t_step - burn_in) % thinning == 0:
            kept[:, k, :] = x
            k += 1
            if k == per_chain:
                break
        d = g.standard_normal((chains, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        tmin, tmax = _chord(body, x, d, diam)
        width = tmax - tmin
        bad = ~(width > 1e-14 * diam)
        stuck = np.where(bad, stuck + 1, 0)
        if np.any(stuck >= 100):
            raise ChainStuckError(
                "hit-and-run found a numerically empty chord 100 times in a row"
            )
        u = g.random(chains)
        t = np.where(bad, 0.0, tmin + u * width)
        x = x + t[:, None] * d
        t_step += 1
    pts = kept.reshape(chains * per_chain, n)[:m]
    return _finish(body, pts, seed, "hit_and_run")


def _chord(body, x, d, diam):
    if isinstance(body, Ball):
        return _chord_ball(body.radius, x, d)
    if isinstance(body, Cube):
        return _chord_cube(body.side / 2.0, x, d)
    if isinstance(body, HPolytope):
        return _chord_polytope(body.A, body.b, x, d)
    return _chord_bisect(body, x, d, diam)


# -- moment estimation --------------------------------------------------------


def estimate_mean_norm_p(body: Domain, p: float, m: int, seed: int) -> Estimate:
    """Monte Carlo estimate of the p-th moment of |x| under the uniform law."""
    if not (1.0 <= p <= 8.0):
        raise SamplingError(f"moment order must lie in [1, 8], got {p}")
    cloud = sample_uniform(body, m, seed)
    v = np.linalg.norm(cloud.points, axis=1) ** p
    return Estimate(
        value=float(v.mean()),
        stderr=float(v.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
        count=m,
        seed=seed,
    )
