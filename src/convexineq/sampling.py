"""Uniform sampling from convex bodies.

A body whose class has an exact sampler (``_direct_sampler`` in
:mod:`geometry`: ball, cube, cross-polytope, rectangle unions and affine
images of those) is sampled directly; any other convex body, such as a
general H-polytope, by a vectorized hit-and-run chain along the chords its
class computes.

All samplers draw from counter-based streams in fixed-size chunks, so output
is bit-reproducible for a given (body, m, seed) regardless of scheduling.
Each call verifies membership of a 1% subsample before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from ._rng import Purpose, chunked, rng_for
from .errors import ChainStuckError, SamplingError
from .estimate import Estimate
from .geometry import AffineImage, ConvexBody, Domain


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


def sample_uniform(body: Domain, m: int, seed: int) -> PointCloud:
    """Draw m uniform points; exact sampler when one exists, else hit-and-run."""
    if m <= 0:
        raise SamplingError(f"sample count must be positive, got {m}")
    make = body._direct_sampler()
    if make is None:
        return hit_and_run(body, m, seed)
    pts = chunked(seed, Purpose.SAMPLE_DIRECT, 0, m, make)
    return _finish(body, pts, seed, "direct")


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
    if not isinstance(body, ConvexBody):
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
    # one call per lockstep step of the chains, kept as a module-level name
    # because bench/tracing.py counts chain steps by wrapping it
    return body._chord(x, d, diam)


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
