"""Isotropic position, isotropic constants, and relative entropy.

A body is in isotropic position when it has unit volume, barycenter at the
origin, and covariance L^2 I; the scalar L is its isotropic constant.  For a
body in general position, L = (det Cov)^(1/2n) / |K|^(1/n), which is what the
fitting routine estimates.  The affine map to isotropic position is computed
from one point cloud and validated on an independent one, so the reported
defect is an out-of-sample quantity rather than an artifact of whitening the
data that produced the map.

``relative_entropy_uniform`` is the entropy of the uniform law on K relative
to the uniform law on a superset B, which is exactly log(|B| / |K|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from ._rng import Purpose, child_seed
from .errors import (
    ContainmentError,
    DegenerateBodyError,
    DimensionMismatchError,
    SamplingError,
)
from .estimate import Estimate
from .geometry import AffineMap, ConvexBody, Domain
from .reporting import Record
from .sampling import PointCloud, sample_uniform

def covariance(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Weighted barycenter and covariance of a point cloud.

    Raises if the cloud is too small or numerically rank-deficient, since a
    singular covariance admits no whitening map.
    """
    pts, w = cloud.points, cloud.weights
    m, n = pts.shape
    if m < n + 1:
        raise SamplingError(f"need at least dim + 1 = {n + 1} points, got {m}")
    mu = w @ pts
    centered = pts - mu
    cov = (centered * w[:, None]).T @ centered
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        raise DegenerateBodyError(
            f"covariance is numerically singular (eigenvalues {eigs[0]:.3e} .. {eigs[-1]:.3e})"
        )
    return mu, cov


@dataclass(frozen=True)
class IsotropyReport(Record):
    """Result of fitting the affine map to isotropic position.

    ``transform`` maps the original body to (approximate) isotropic position.
    ``isotropy_defect`` is eig_max/eig_min - 1 of the validation covariance,
    measured on a cloud independent of the one that produced the transform.
    """

    centroid: np.ndarray
    covariance: np.ndarray
    transform: AffineMap
    L_estimate: Estimate
    isotropy_defect: float
    fit_count: int
    body_fingerprint: str


def isotropic_position(body: ConvexBody, m: int = 100_000, seed: int = 0) -> IsotropyReport:
    """Fit the map to isotropic position and validate it out of sample."""
    n = body.dim
    fit_cloud = sample_uniform(body, m, child_seed(seed, Purpose.ISO_FIT))
    mu, cov = covariance(fit_cloud)
    vals, vecs = np.linalg.eigh(cov)
    whiten = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    det_w = float(np.prod(1.0 / np.sqrt(vals)))
    vol_est = geometry.volume_with_error(
        body, mc_samples=max(m, 100_000), seed=child_seed(seed, Purpose.ISO_VOLUME)
    )
    if vol_est.value <= 0:
        raise DegenerateBodyError("volume estimate is nonpositive")
    scale = (vol_est.value * det_w) ** (-1.0 / n)
    linear = scale * whiten
    transform = AffineMap(linear, -linear @ mu)

    check_seed = child_seed(seed, Purpose.ISO_VALIDATE)
    check_cloud = sample_uniform(body, m, check_seed)
    mapped = transform.apply(check_cloud.points)
    sq = Estimate.of_samples((mapped**2).sum(axis=1), seed=check_seed)
    # the map already holds the volume's factor vol^(-1/n); this unit factor
    # carries a Monte Carlo volume's error into L
    L = (sq / n).sqrt() * (vol_est / vol_est.value) ** (-1.0 / n)
    _, cov2 = covariance(replace(check_cloud, points=mapped))
    eig2 = np.linalg.eigvalsh(cov2)
    defect = float(eig2[-1] / eig2[0] - 1.0)
    return IsotropyReport(
        centroid=mu,
        covariance=cov,
        transform=transform,
        L_estimate=L,
        isotropy_defect=defect,
        fit_count=m,
        body_fingerprint=geometry.fingerprint(body),
    )


def isotropic_constant(body: ConvexBody, m: int = 100_000, seed: int = 0) -> Estimate:
    """The isotropic constant L of the body, estimated by Monte Carlo.

    Affine-invariant up to sampling error: applying any invertible affine map
    to the body leaves the value unchanged.
    """
    return isotropic_position(body, m=m, seed=seed).L_estimate


def relative_entropy_uniform(K: Domain, B: Domain, *, m: int = 10_000, seed: int = 0) -> float:
    """Entropy of uniform(K) relative to uniform(B): log(|B| / |K|).

    Requires K inside B; containment is certified on m sampled points and a
    violation raises with a witness point.
    """
    if B.dim != K.dim:
        raise DimensionMismatchError(f"bodies live in dimensions {B.dim} and {K.dim}")
    cloud = sample_uniform(K, m, child_seed(seed, Purpose.ISO_CERT))
    ok = B.contains_many(cloud.points, tol=1e-9)
    if not np.all(ok):
        witness = cloud.points[~ok][0]
        raise ContainmentError(
            f"inner body is not contained in the outer body: witness {witness.tolist()}"
        )
    mc = max(m, 100_000)
    vol_k = geometry.volume_with_error(K, mc_samples=mc, seed=child_seed(seed, Purpose.ENTROPY_VOLUME_K))
    vol_b = geometry.volume_with_error(B, mc_samples=mc, seed=child_seed(seed, Purpose.ENTROPY_VOLUME_B))
    if vol_k.value <= 0 or vol_b.value <= 0:
        raise DegenerateBodyError("volume estimates must be positive")
    return float(math.log(vol_b.value / vol_k.value))
